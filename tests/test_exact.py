import random
from fractions import Fraction as F

import pytest

from autrealize.exact import (
    BiPoly,
    UniPoly,
    _gcd_primes,
    _ggcd,
    discriminant,
    discriminant_in_X,
    interpolate,
    is_squarefree,
    parse_bipoly,
    parse_rational,
    parse_unipoly,
    poly_divrem,
    poly_gcd,
    render_bipoly,
    render_rational,
    render_unipoly,
    resultant,
)
from autrealize.numfield import NumberField
from reference import poly_gcdex, sylvester_resultant

X = UniPoly.gen("X")
ONE = UniPoly.one("X")


def C(v):
    return UniPoly.constant(F(v), "X")


def rand_poly(rng, max_deg=6, coeff_bound=10, var="X"):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [F(rng.randrange(-coeff_bound, coeff_bound + 1)) for _ in range(deg)]
    coeffs.append(F(rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])))
    return UniPoly(coeffs, var)


class TestDivRem:
    def test_factor_identity(self):
        q, r = poly_divrem(X**2 - 1, X - 1)
        assert q == X + 1 and r.is_zero

    def test_hand_division(self):
        q, r = poly_divrem(X**3 + X + 1, X**2 + 1)
        assert q == X and r == ONE

    def test_self_division(self):
        f = X**3 + C(2) * X - C(7)
        q, r = poly_divrem(f, f)
        assert q == ONE and r.is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(X, UniPoly.zero("X"))

    def test_ring_law_random(self):
        rng = random.Random(1)
        for _ in range(50):
            f = rand_poly(rng)
            g = rand_poly(rng)
            q, r = poly_divrem(f * g, g)
            assert q == f and r.is_zero


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(X**2 - 1, X**3 - 1) == X - 1

    def test_coprime(self):
        # disc(X^3 + X + 1) = -31 != 0, so f and f' are coprime
        f = X**3 + X + 1
        assert poly_gcd(f, f.derivative()) == ONE

    def test_gcd_with_zero(self):
        f = C(3) * X**2 + C(6)
        assert poly_gcd(f, UniPoly.zero("X")) == f.monic()

    def test_both_zero(self):
        with pytest.raises(ValueError):
            poly_gcd(UniPoly.zero("X"), UniPoly.zero("X"))

    def test_gcdex_bezout(self):
        rng = random.Random(2)
        for _ in range(25):
            f, g = rand_poly(rng, 4), rand_poly(rng, 4)
            s, t, h = poly_gcdex(f, g)
            assert s * f + t * g == h
            assert h == poly_gcd(f, g)

    def test_planted_common_factors(self):
        # coefficients up to 2**80 need several CRT primes, so wrong
        # candidates come up and must fail the exact division check
        rng = random.Random(3)

        def big_poly(deg):
            cs = [F(rng.randint(-2**80, 2**80)) for _ in range(deg)]
            return UniPoly(cs + [F(rng.choice([-1, 1]) * rng.randint(1, 2**80))])

        for _ in range(30):
            c = big_poly(rng.randrange(0, 6))
            f = c * big_poly(rng.randrange(0, 7))
            g = c * big_poly(rng.randrange(0, 7))
            h = poly_gcd(f, g)
            assert h.is_monic()
            (a, ra), (b, rb) = poly_divrem(f, h), poly_divrem(g, h)
            assert ra.is_zero and rb.is_zero
            assert resultant(a, b) != 0
            assert h.degree >= c.degree

    def test_unlucky_primes(self):
        # resultant(X, X + p) = p: mod p the cofactors share the root 0, so
        # the image there has degree 3, not 2.  An unlucky first prime is
        # replaced; an unlucky second one is dropped (3**70 needs more than
        # one prime, so the first candidate fails the exact check).
        gen = _gcd_primes()
        primes = [next(gen), next(gen)]
        for p, c in zip(primes, (X**2 + C(1), X**2 + C(3**70))):
            f, g = c * X, c * (X + C(p))
            assert abs(resultant(X, X + C(p))) == p
            image = _ggcd([int(v) % p for v in f.coeffs], [int(v) % p for v in g.coeffs], p)
            assert len(image) - 1 == 3
            assert poly_gcd(f, g) == c

    def test_special_inputs(self):
        zero = UniPoly.zero("X")
        assert poly_gcd(zero, C(5)) == ONE
        assert poly_gcd(C(-3), X**2 + C(1)) == ONE
        assert poly_gcd(C(F(2, 3)), C(7)) == ONE
        # non-monic, negative leading coefficients
        f = C(-6) * (X - C(2)) * (X + C(1)) ** 2
        g = C(4) * (X + C(1)) * (X**2 + C(3))
        assert poly_gcd(f, g) == X + C(1)
        assert poly_gcd(-f, -g) == X + C(1)
        assert poly_gcd(f, f.derivative()) == X + C(1)
        # rational coefficients
        r = X - C(F(1, 2))
        f = r * (C(F(3, 7)) * X**2 + C(F(5, 11)))
        g = r * (C(F(-4, 5)) * X + C(F(2, 9)))
        assert poly_gcd(f, g) == r
        assert poly_gcd(zero, f) == f.monic()
        # a prime dividing a leading coefficient is skipped
        p = next(_gcd_primes())
        f = (C(p) * X + C(1)) * (X + C(2))
        assert poly_gcd(f, (X + C(2)) * (X - C(3))) == X + C(2)

    def test_is_squarefree(self):
        assert is_squarefree(X**3 + X + C(1))
        assert is_squarefree(C(7))
        assert not is_squarefree((X - C(1)) ** 2 * (X + C(2)))


class TestResultant:
    def test_eval_at_root(self):
        assert resultant(X**2 - 3, X + 1) == F(-2)

    def test_linear_case(self):
        # Res(X - a, X - b) = b - a
        assert resultant(X - C(2), X - C(5)) == F(3)

    def test_symmetry_law(self):
        rng = random.Random(3)
        for _ in range(40):
            f, g = rand_poly(rng, 4), rand_poly(rng, 4)
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f)

    def test_zero_input(self):
        with pytest.raises(ValueError):
            resultant(UniPoly.zero("X"), X)

    def test_matches_sylvester(self):
        rng = random.Random(4)
        for _ in range(60):
            f, g = rand_poly(rng, 5), rand_poly(rng, 5)
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_vanishes_iff_common_root(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            f, g = rand_poly(rng, 6), rand_poly(rng, 6)
            if f.degree < 1 or g.degree < 1:
                continue
            shared = poly_gcd(f, g).degree >= 1
            assert (resultant(f, g) == 0) == shared
            checked += 1

    def test_over_number_field(self):
        K = NumberField(UniPoly([F(-2), F(0), F(1)], "Z"))
        XK = UniPoly.gen("X", K)
        f = XK * XK - K.from_rational(2)  # (X - s2)(X + s2)
        g = XK - K.gen()
        assert resultant(f, g) == K.zero()
        g2 = XK - K.one()
        assert resultant(f, g2) == K.from_rational(-1)


class TestDiscriminant:
    def test_cubic_examples(self):
        assert discriminant(X**3 + X + 1) == F(-31)
        assert discriminant(X**3 - X - 1) == F(-23)

    def test_bivariate_family(self):
        f = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])
        d = discriminant_in_X(f)
        T = UniPoly.gen("T")
        assert d == -(T**3) * 4 - (T**2) * 27

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            discriminant(ONE)

    def test_squarefree_iff_nonzero_disc(self):
        rng = random.Random(6)
        for _ in range(40):
            f = rand_poly(rng, 5)
            if f.degree < 2:
                continue
            sqf = poly_gcd(f, f.derivative()).degree == 0
            assert (discriminant(f) != 0) == sqf

    def test_family_identity_over_number_fields(self):
        # disc_X of X^3 + (T-y)X + (T-y) is -(T-y)^2 (4(T-y) + 27)
        rng = random.Random(7)
        moduli = [
            UniPoly([F(-1), F(1)], "Z"),
            UniPoly([F(-1), F(-1), F(1)], "Z"),
            UniPoly([F(-2), F(0), F(0), F(1)], "Z"),
        ]
        done = 0
        while done < 20:
            K = NumberField(moduli[done % 3], trusted=True)
            y = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            one = K.one()
            f = BiPoly.from_terms(
                [(0, 3, one), (1, 1, one), (0, 1, -y), (1, 0, one), (0, 0, -y)],
                K,
            )
            s = UniPoly([-y, one], "T", K)
            assert discriminant_in_X(f) == -(s * s) * (s * 4 + 27)
            done += 1


class TestSpecialize:
    def family(self):
        return BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])

    def test_at_one(self):
        assert self.family().specialize(1) == X**3 + X + 1

    def test_at_zero(self):
        assert self.family().specialize(0) == X**3

    def test_constant_in_t(self):
        f = BiPoly.from_terms([(0, 2, F(1)), (0, 0, F(-3))])
        assert f.specialize(17) == X**2 - 3


class TestInterpolate:
    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_poly(rng, 5)
            pts = [F(i) for i in range(f.degree + 1)]
            vals = [f.eval(p) for p in pts]
            assert interpolate(pts, vals, "X") == f


class TestRendering:
    def test_rational(self):
        assert render_rational(F(3, 4)) == "3/4"
        assert render_rational(F(-5)) == "-5"
        assert parse_rational("3/4") == F(3, 4)

    def test_unipoly_round_trip(self):
        f = X**3 + C(F(1, 2)) * X + 1
        assert parse_unipoly(render_unipoly(f), "X") == f

    def test_bipoly_round_trip(self):
        f = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1, 3)), (1, 0, F(-2))])
        assert parse_bipoly(render_bipoly(f)) == f

    def test_outer_index_is_t_power(self):
        f = BiPoly.from_terms([(1, 0, F(7))])
        assert render_bipoly(f) == [["0"], ["7"]]
