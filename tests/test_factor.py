import random
from fractions import Fraction as F

import pytest

from autrealize.errors import CapExceededError, VerificationError
from autrealize.exact import UniPoly, discriminant, poly_gcd
from autrealize.factor import (
    _gfactor_sqf,
    _hensel_lift,
    audit_trail,
    factor_over_Q,
    find_rational_factors_of_degree,
    frobenius_pattern,
    is_irreducible_Q,
    squarefree_part,
)
from reference import expand

X = UniPoly.gen("X")
ONE = UniPoly.one("X")


def C(v):
    return UniPoly.constant(F(v), "X")


def rand_irreducible(rng, max_deg=4, bound=9):
    while True:
        deg = rng.randrange(1, max_deg + 1)
        coeffs = [F(rng.randrange(-bound, bound + 1)) for _ in range(deg)] + [F(1)]
        f = UniPoly(coeffs, "X")
        if is_irreducible_Q(f):
            return f


class TestFrobeniusPattern:
    def test_gaussian_integers(self):
        assert frobenius_pattern(X**2 + 1, 5) == (1, 1)
        assert frobenius_pattern(X**2 + 1, 7) == (2,)

    def test_unusable_primes(self):
        # F = 5X^3 + X + 1: p = 5 divides its leading coefficient
        f = X**3 + X * F(1, 5) + C(F(1, 5))
        assert frobenius_pattern(f, 5) is None
        assert frobenius_pattern(f, 7) is not None
        # disc(X^3 + X + 1) = -31: a repeated factor mod 31
        assert frobenius_pattern(X**3 + X + 1, 31) is None

    def test_matches_complete_factorization_mod_p(self):
        rng = random.Random(83)
        for _ in range(30):
            f = rand_irreducible(rng, max_deg=8)
            fi = [int(c) for c in f.coeffs]
            for p in (5, 7, 11, 13, 101):
                got = frobenius_pattern(f, p)
                fp = [c % p for c in fi]
                if not discriminant(f) % p:
                    assert got is None
                else:
                    assert got == tuple(sorted(len(g) - 1 for g in _gfactor_sqf(fp, p)))


class TestFactorOverQ:
    def test_difference_factorization(self):
        fac = factor_over_Q(X**4 - C(5) * X**2 + 6)
        got = sorted((g.coeffs, m) for g, m in fac.factors)
        assert got == [
            ((F(-3), F(0), F(1)), 1),
            ((F(-2), F(0), F(1)), 1),
        ]

    def test_cubic_irreducible(self):
        fac = factor_over_Q(X**3 + X + 1)
        assert fac.is_irreducible

    def test_x4_plus_1_irreducible(self):
        assert factor_over_Q(X**4 + 1).is_irreducible

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_Q(UniPoly.zero("X"))

    def test_unit_and_multiplicity(self):
        f = C(6) * (X - 1) ** 3 * (X**2 + 1) ** 2
        fac = factor_over_Q(f)
        assert fac.unit == F(6)
        assert expand(fac) == f

    def test_round_trips(self):
        rng = random.Random(11)
        for _ in range(200):
            parts = [rand_irreducible(rng) for _ in range(rng.randrange(1, 4))]
            unit = F(rng.choice([1, -1, 2, 3, -5]))
            prod = UniPoly.constant(unit, "X")
            for p in parts:
                prod = prod * p
            fac = factor_over_Q(prod)
            assert expand(fac) == prod
            expected = sorted(p.coeffs for p in parts)
            got = []
            for g, m in fac.factors:
                got.extend([g.coeffs] * m)
            assert sorted(got) == expected

    def test_factors_stay_irreducible(self):
        rng = random.Random(12)
        for _ in range(20):
            f = rand_irreducible(rng) * rand_irreducible(rng)
            for g, _ in factor_over_Q(f).factors:
                assert is_irreducible_Q(g)


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible_Q(X**3 + X + 1)
        assert not is_irreducible_Q(X**3 - X)
        assert is_irreducible_Q(X**2 - X - 1)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible_Q(C(5))


class TestSquarefreePart:
    def test_t_squared_family(self):
        T = UniPoly.gen("T")
        f = T**2 * (T * 4 + 27)
        assert squarefree_part(f) == (T * (T * 4 + 27)).monic()

    def test_pure_power(self):
        assert squarefree_part(X**3) == X

    def test_squarefree_input(self):
        f = C(3) * (X**2 + 1)
        assert squarefree_part(f) == X**2 + 1

    def test_disc_cross_check(self):
        rng = random.Random(13)
        for _ in range(40):
            coeffs = [F(rng.randrange(-6, 7)) for _ in range(rng.randrange(2, 6))]
            coeffs.append(F(1))
            f = UniPoly(coeffs, "X")
            sqf = poly_gcd(f, f.derivative()).degree == 0
            assert (discriminant(f) != 0) == sqf


class TestDegreeCap:
    def test_cap_error(self):
        f = X**401 + X + 1
        with pytest.raises(CapExceededError):
            factor_over_Q(f)


class TestTargetedSearch:
    def test_finds_all_of_degree(self):
        big = (X**2 - 2) * (X**3 - X - 1) * (X**2 - 3)
        found = find_rational_factors_of_degree(big, 2)
        assert sorted(f.coeffs for f in found) == [
            (F(-3), F(0), F(1)),
            (F(-2), F(0), F(1)),
        ]
        assert [f.coeffs for f in find_rational_factors_of_degree(big, 3)] == [
            (F(-1), F(-1), F(0), F(1))
        ]

    def test_none_of_degree(self):
        big = (X**2 - 2) * (X**3 - X - 1)
        assert find_rational_factors_of_degree(big, 4) == []

    def test_audit_records_primes(self):
        with audit_trail() as events:
            factor_over_Q(X**4 - C(5) * X**2 + 6)
        assert any(e == "prime" for e, _ in events)
        assert any(e == "lift_exponent" for e, _ in events)

    def test_non_squarefree_input_rejected(self):
        # no prime makes a repeated factor squarefree mod p
        with pytest.raises(ValueError):
            find_rational_factors_of_degree((X**2 + 1) ** 2 * (X**3 - 2), 3)

    def test_determinism(self):
        f = (X**3 - X - 1) * (X**4 + 1) * (X - 2)
        a = [(g.coeffs, m) for g, m in factor_over_Q(f).factors]
        b = [(g.coeffs, m) for g, m in factor_over_Q(f).factors]
        assert a == b


class TestHenselLift:
    def test_non_coprime_factors_rejected(self):
        # X^2 = X * X mod 5: the two modular factors share the root 0
        with pytest.raises(VerificationError):
            _hensel_lift(5, [0, 0, 1], [[0, 1], [0, 1]], 2)
