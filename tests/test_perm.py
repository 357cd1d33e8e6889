import pytest

from autrealize.errors import CapExceededError, SpecParseError, VerificationError
from autrealize.perm import (
    AbstractGroup,
    PermGroup,
    Permutation,
    are_isomorphic,
    parse_cycles,
    render_cycles,
)
from reference import aut_group_via_quotient, normalizer, quotient, to_abstract


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
            PermGroup([Permutation((2, 1)), Permutation((1, 2, 3))])

    def test_degree_cap(self):
        with pytest.raises(CapExceededError):
            PermGroup([], degree=13)

    def test_lagrange(self):
        s4 = PermGroup.symmetric(4)
        for sub in (PermGroup.alternating(4), G("(1 2)(3 4)", "(1 3)(2 4)", n=4)):
            assert s4.order % sub.order == 0


class TestNormalizer:
    def test_transposition_self_normalizing(self):
        s3 = PermGroup.symmetric(3)
        h = G("(1 2)", n=3)
        assert normalizer(s3, h).order == 2

    def test_normal_subgroup(self):
        s3 = PermGroup.symmetric(3)
        assert normalizer(s3, PermGroup.alternating(3)) == s3

    def test_trivial_subgroup(self):
        s3 = PermGroup.symmetric(3)
        assert normalizer(s3, PermGroup([], degree=3)) == s3

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError):
            normalizer(PermGroup.alternating(3), G("(1 2)", n=3))


class TestQuotient:
    def test_s3_mod_a3(self):
        q, _ = quotient(PermGroup.symmetric(3), PermGroup.alternating(3))
        assert q.order == 2

    def test_self_quotient(self):
        h = G("(1 2)", n=3)
        q, _ = quotient(h, h)
        assert q.order == 1

    def test_s4_mod_v4_is_s3(self):
        v4 = G("(1 2)(3 4)", "(1 3)(2 4)", n=4)
        q, reps = quotient(PermGroup.symmetric(4), v4)
        assert q.order == 6
        ok, _ = are_isomorphic(q, to_abstract(PermGroup.symmetric(3)))
        assert ok

    def test_not_normal_rejected(self):
        with pytest.raises(VerificationError):
            quotient(PermGroup.symmetric(3), G("(1 2)", n=3))

    def test_index_formula(self):
        s4 = PermGroup.symmetric(4)
        a4 = PermGroup.alternating(4)
        q, _ = quotient(s4, a4)
        assert q.order == s4.order // a4.order


class TestAutViaQuotient:
    def test_s3_subgroup_values(self):
        s3 = PermGroup.symmetric(3)
        cases = [
            (PermGroup([], degree=3), 6),
            (G("(1 2)", n=3), 1),
            (PermGroup.alternating(3), 2),
            (s3, 1),
        ]
        for h, order in cases:
            q, _ = aut_group_via_quotient(s3, h)
            assert q.order == order

    def test_trivial_gives_whole_group(self):
        for grp in (PermGroup.symmetric(3), PermGroup.cyclic(4)):
            q, _ = aut_group_via_quotient(grp, PermGroup([], degree=grp.degree))
            ok, _ = are_isomorphic(q, to_abstract(grp))
            assert ok


class TestIsomorphism:
    def pool(self):
        return [
            PermGroup([], degree=1),
            PermGroup.cyclic(2),
            PermGroup.cyclic(3),
            PermGroup.cyclic(4),
            G("(1 2)(3 4)", "(1 3)(2 4)", n=4),  # V4
            PermGroup.cyclic(5),
            PermGroup.cyclic(6),
            PermGroup.symmetric(3),
            PermGroup.symmetric(4),
            PermGroup.alternating(4),
            PermGroup.cyclic(8),
        ]

    def test_c4_vs_v4(self):
        c4 = to_abstract(PermGroup.cyclic(4))
        v4 = to_abstract(G("(1 2)(3 4)", "(1 3)(2 4)", n=4))
        ok, wit = are_isomorphic(c4, v4)
        assert not ok and wit is None

    def test_s3_vs_s4_mod_v4(self):
        v4 = G("(1 2)(3 4)", "(1 3)(2 4)", n=4)
        q, _ = quotient(PermGroup.symmetric(4), v4)
        ok, wit = are_isomorphic(to_abstract(PermGroup.symmetric(3)), q)
        assert ok and wit is not None

    def test_self_isomorphism(self):
        for grp in self.pool():
            t = to_abstract(grp)
            ok, wit = are_isomorphic(t, t)
            assert ok
            # witness verifies as a homomorphism
            for i in range(t.order):
                for j in range(t.order):
                    assert wit[t.mul(i, j)] == t.mul(wit[i], wit[j])

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


class TestAbstractGroup:
    def test_bad_table_rejected(self):
        with pytest.raises(VerificationError):
            AbstractGroup([[0, 1], [1, 1]])

    def test_identity_must_be_first(self):
        with pytest.raises(VerificationError):
            AbstractGroup([[1, 0], [0, 1]])

    def test_empty_table_rejected(self):
        # a group has at least its identity
        with pytest.raises(VerificationError):
            AbstractGroup([])

    def test_eq_and_hash_follow_the_table(self):
        a = AbstractGroup([[0, 1], [1, 0]])
        assert a == AbstractGroup(((0, 1), (1, 0)))
        assert hash(a) == hash(AbstractGroup(((0, 1), (1, 0))))
        assert a != to_abstract(PermGroup.cyclic(3))

    def test_element_orders(self):
        t = to_abstract(PermGroup.cyclic(6))
        assert t.order_multiset() == [1, 2, 3, 3, 6, 6]


class TestCycleNotation:
    def test_round_trip_over_s4(self):
        for p in PermGroup.symmetric(4):
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
