from fractions import Fraction as F

import pytest

from autrealize import pipeline
from autrealize.errors import BudgetExhaustedError, CapExceededError, SpecParseError
from autrealize.pipeline import (
    build_E_minpoly,
    build_state,
    compute_y,
    fields_distinct_exact,
    realize_sn,
    run,
    specialize_and_verify,
    subgroup_preimage,
    t0_sequence,
)
from autrealize.perm import PermGroup, are_isomorphic, parse_cycles


@pytest.fixture(scope="module")
def state_trivial():
    return build_state(PermGroup([], degree=1), 1)


@pytest.fixture(scope="module")
def state_s2():
    return build_state(PermGroup.symmetric(2), 2)


class TestRealizeSn:
    def test_n1(self):
        L = realize_sn(1)
        assert L.degree == 1 and L.galois.order == 1

    def test_n2(self):
        L = realize_sn(2)
        assert L.degree == 2 and L.galois.order == 2

    def test_n3(self):
        L = realize_sn(3)
        assert L.degree == 6

    def test_caps(self):
        with pytest.raises(SpecParseError):
            realize_sn(0)
        for n in (4, 5):
            with pytest.raises(CapExceededError):
                realize_sn(n)


class TestSubgroupPreimage:
    def test_full_group(self):
        L = realize_sn(2)
        Gp = subgroup_preimage(L, PermGroup.symmetric(2))
        assert Gp.order == 2

    def test_trivial_subgroup(self):
        L = realize_sn(2)
        Gp = subgroup_preimage(L, PermGroup([], degree=2))
        assert Gp.order == 1

    def test_degree_mismatch(self):
        L = realize_sn(2)
        with pytest.raises(SpecParseError):
            subgroup_preimage(L, PermGroup.symmetric(3))


class TestComputeY:
    def test_full_group_gives_zero(self):
        L = realize_sn(2)
        Gp = subgroup_preimage(L, PermGroup.symmetric(2))
        y, p = compute_y(L, Gp)
        assert not y and p.degree == 1

    def test_proper_subgroup(self):
        L = realize_sn(2)
        Gp = subgroup_preimage(L, PermGroup([], degree=2))
        y, p = compute_y(L, Gp)
        assert p.degree == 2
        assert not p.eval(y)


class TestBuildEMinpoly:
    def test_n1_degree_3(self):
        L = realize_sn(1)
        c, q = build_E_minpoly(L, L.field.zero())
        assert c == 0 and q.deg_X == 3
        # q = X^3 + T X + T
        q0 = q.specialize(F(1))
        assert q0.coeffs == (F(1), F(1), F(0), F(1))

    def test_n2_degree_6(self, state_s2):
        assert state_s2.q.deg_X == 6
        assert state_s2.c != 0


class TestSpecializeAndVerify:
    def test_t0_zero_rejected(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 0)
        assert rec.status == "rejected" and "bad set" in rec.reason

    def test_t0_one_accepted(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 1)
        assert rec.status == "accepted"
        assert rec.q0.coeffs == (F(1), F(1), F(0), F(1))  # X^3 + X + 1
        assert rec.aut.order == 1

    def test_bad_rational_rejected(self, state_trivial):
        rec = specialize_and_verify(state_trivial, F(-27, 4))
        assert rec.status == "rejected"

    def test_s2_accept(self, state_s2):
        for t0 in t0_sequence(5):
            rec = specialize_and_verify(state_s2, t0)
            if rec.status == "accepted":
                assert rec.q0.degree == 6
                assert rec.aut.order == 2
                ok, _ = are_isomorphic(rec.aut.group, state_s2.G_abstract)
                assert ok
                break
        else:
            pytest.fail("no accepted specialization for S2 within height 5")


class TestRun:
    def test_trivial_two_fields(self):
        cert = run(PermGroup([], degree=1), 1, count=2, t_max=10)
        assert len(cert.accepted) == 2
        assert cert.accepted[0].t0 != cert.accepted[1].t0
        # X^3 + X + 1 is irreducible mod 5, X^3 - X - 1 has a root there
        assert cert.distinctness == ((0, 1, 5),)
        assert fields_distinct_exact(*cert.accepted) == 5
        # the transcript starts at t0 = 0, which is in the bad set
        assert cert.transcript[0][0] == 0 and cert.transcript[0][1] == "rejected"

    def test_budget_exhausted(self):
        with pytest.raises(BudgetExhaustedError) as ei:
            run(PermGroup([], degree=1), 1, count=50, t_max=2)
        assert ei.value.transcript

    def test_count_validation(self):
        with pytest.raises(SpecParseError):
            run(PermGroup([], degree=1), 1, count=0)

    def test_field_never_separated_from_itself(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 1)
        assert rec.status == "accepted"
        assert fields_distinct_exact(rec, rec) is None

    def test_no_separating_prime_rejects(self, monkeypatch):
        monkeypatch.setattr(pipeline, "DISTINCTNESS_PRIMES", 0)
        with pytest.raises(BudgetExhaustedError) as ei:
            run(PermGroup([], degree=1), 1, count=2, t_max=1)
        assert ei.value.transcript[2] == (
            F(-1), "rejected", "no prime separates it from the field at t0 = 1"
        )

    def test_s2_run(self):
        cert = run(PermGroup.symmetric(2), 2, count=2, t_max=20)
        assert len(cert.accepted) == 2
        for rec in cert.accepted:
            assert rec.aut.order == 2
        assert fields_distinct_exact(*cert.accepted)
        assert any(e == "prime" for e, _ in cert.audit)


class TestT0Sequence:
    def test_order_and_halves(self):
        seq = list(t0_sequence(2))
        assert seq[:5] == [F(0), F(1), F(-1), F(2), F(-2)]
        assert F(1, 2) in seq and F(-3, 2) in seq
        assert len(seq) == len(set(seq))
