import pytest

from autrealize import perm
from autrealize.errors import CapExceededError, SpecParseError, VerificationError
from autrealize.perm import (
    PermGroup,
    Permutation,
    are_isomorphic,
    parse_cycles,
    render_cycles,
)
from reference import aut_group_via_quotient, named_perm_group, normalizer, quotient, to_abstract


def G(*cycle_strings, n):
    return PermGroup([parse_cycles(s, n) for s in cycle_strings], degree=n)


class TestClosure:
    def test_s3_from_transpositions(self):
        assert G("(1 2)", "(2 3)", n=3).order == 6

    def test_trivial(self):
        assert PermGroup([], degree=4).order == 1

    def test_c4(self):
        assert G("(1 2 3 4)", n=4).order == 4

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            PermGroup([Permutation((2, 1)), Permutation((1, 2, 3))], degree=2)

    def test_degree_cap(self):
        with pytest.raises(CapExceededError):
            PermGroup([], degree=13)

    def test_lagrange(self):
        s4 = named_perm_group("S4")
        for sub in (named_perm_group("A4"), G("(1 2)(3 4)", "(1 3)(2 4)", n=4)):
            assert s4.order % sub.order == 0


class TestNormalizer:
    def test_transposition_self_normalizing(self):
        s3 = named_perm_group("S3")
        h = G("(1 2)", n=3)
        assert normalizer(s3, h).order == 2

    def test_normal_subgroup(self):
        s3 = named_perm_group("S3")
        assert normalizer(s3, named_perm_group("A3")) == s3

    def test_trivial_subgroup(self):
        s3 = named_perm_group("S3")
        assert normalizer(s3, PermGroup([], degree=3)) == s3

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError):
            normalizer(named_perm_group("A3"), G("(1 2)", n=3))


class TestQuotient:
    def test_s3_mod_a3(self):
        q, _ = quotient(named_perm_group("S3"), named_perm_group("A3"))
        assert len(q) == 2

    def test_self_quotient(self):
        h = G("(1 2)", n=3)
        q, _ = quotient(h, h)
        assert len(q) == 1

    def test_s4_mod_v4_is_s3(self):
        v4 = G("(1 2)(3 4)", "(1 3)(2 4)", n=4)
        q, reps = quotient(named_perm_group("S4"), v4)
        assert len(q) == 6
        ok, _ = are_isomorphic(q, to_abstract(named_perm_group("S3")))
        assert ok

    def test_not_normal_rejected(self):
        with pytest.raises(VerificationError):
            quotient(named_perm_group("S3"), G("(1 2)", n=3))

    def test_index_formula(self):
        s4 = named_perm_group("S4")
        a4 = named_perm_group("A4")
        q, _ = quotient(s4, a4)
        assert len(q) == s4.order // a4.order


class TestAutViaQuotient:
    def test_s3_subgroup_values(self):
        s3 = named_perm_group("S3")
        cases = [
            (PermGroup([], degree=3), 6),
            (G("(1 2)", n=3), 1),
            (named_perm_group("A3"), 2),
            (s3, 1),
        ]
        for h, order in cases:
            q, _ = aut_group_via_quotient(s3, h)
            assert len(q) == order

    def test_trivial_gives_whole_group(self):
        for grp in (named_perm_group("S3"), named_perm_group("C4")):
            q, _ = aut_group_via_quotient(grp, PermGroup([], degree=grp.degree))
            ok, _ = are_isomorphic(q, to_abstract(grp))
            assert ok


class TestIsomorphism:
    def pool(self):
        return [
            PermGroup([], degree=1),
            named_perm_group("C2"),
            named_perm_group("C3"),
            named_perm_group("C4"),
            G("(1 2)(3 4)", "(1 3)(2 4)", n=4),  # V4
            named_perm_group("C5"),
            named_perm_group("C6"),
            named_perm_group("S3"),
            named_perm_group("S4"),
            named_perm_group("A4"),
            named_perm_group("C8"),
        ]

    def test_c4_vs_v4(self):
        c4 = to_abstract(named_perm_group("C4"))
        v4 = to_abstract(G("(1 2)(3 4)", "(1 3)(2 4)", n=4))
        ok, wit = are_isomorphic(c4, v4)
        assert not ok and wit is None

    def test_s3_vs_s4_mod_v4(self):
        v4 = G("(1 2)(3 4)", "(1 3)(2 4)", n=4)
        q, _ = quotient(named_perm_group("S4"), v4)
        ok, wit = are_isomorphic(to_abstract(named_perm_group("S3")), q)
        assert ok and wit is not None

    def test_self_isomorphism(self):
        for grp in self.pool():
            t = to_abstract(grp)
            ok, wit = are_isomorphic(t, t)
            assert ok
            # witness verifies as a homomorphism
            for i in range(len(t)):
                for j in range(len(t)):
                    assert wit[t[i][j]] == t[wit[i]][wit[j]]

    def test_search_cap(self, monkeypatch):
        # S3's first candidate map is an isomorphism; past a cap of 0
        # candidates the search is refused before it is tried
        s3 = to_abstract(named_perm_group("S3"))
        monkeypatch.setattr(perm, "ISO_BACKTRACK_CAP", 0)
        with pytest.raises(CapExceededError, match="exceeded 0 candidates"):
            are_isomorphic(s3, s3)
        monkeypatch.setattr(perm, "ISO_BACKTRACK_CAP", 1)
        assert are_isomorphic(s3, s3)[0]

    def test_equivalence_relation(self):
        tables = [to_abstract(g) for g in self.pool()]
        rel = {}
        for i, a in enumerate(tables):
            for j, b in enumerate(tables):
                rel[i, j] = are_isomorphic(a, b)[0]
        for i in range(len(tables)):
            assert rel[i, i]
            for j in range(len(tables)):
                assert rel[i, j] == rel[j, i]
                for k in range(len(tables)):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]


class TestCycleNotation:
    def test_round_trip_over_s4(self):
        for p in named_perm_group("S4"):
            assert parse_cycles(render_cycles(p), 4) == p

    def test_identity(self):
        assert render_cycles(Permutation.identity(3)) == "()"
        assert parse_cycles("()", 3) == Permutation.identity(3)

    def test_parse_errors(self):
        with pytest.raises(SpecParseError):
            parse_cycles("(1 2", 3)
        with pytest.raises(SpecParseError):
            parse_cycles("(1 2)(2 3)", 3)
        with pytest.raises(SpecParseError):
            parse_cycles("(1 5)", 3)
        # a 1-cycle's point is checked like any other, then dropped
        for text in ("(9)", "(0)", "(-1)", "(1)(1 2)"):
            with pytest.raises(SpecParseError):
                parse_cycles(text, 3)
