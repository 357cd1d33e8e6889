import random
from fractions import Fraction as F

import pytest

from autrealize.errors import SpecParseError
from autrealize.exact import (
    BiPoly,
    UniPoly,
    discriminant,
    interpolate,
    parse_rational,
    parse_unipoly,
    poly_divrem,
    poly_gcd,
    render_rational,
    render_unipoly,
)
from autrealize.numfield import NumberField
from reference import (
    derivative,
    discriminant_in_X,
    newton_interpolate,
    poly_gcdex,
    resultant_std,
    sylvester_resultant,
)

X = UniPoly.gen()
ONE = UniPoly.one()


def C(v):
    return UniPoly.constant(F(v))


def rand_poly(rng, max_deg=6, coeff_bound=10):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [F(rng.randrange(-coeff_bound, coeff_bound + 1)) for _ in range(deg)]
    coeffs.append(F(rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])))
    return UniPoly(coeffs)


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
            poly_divrem(X, UniPoly.zero())

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
        assert poly_gcd(f, derivative(f)) == ONE

    def test_gcd_with_zero(self):
        f = C(3) * X**2 + C(6)
        assert poly_gcd(f, UniPoly.zero()) == f.monic()

    def test_both_zero(self):
        with pytest.raises(ValueError):
            poly_gcd(UniPoly.zero(), UniPoly.zero())

    def test_gcdex_bezout(self):
        rng = random.Random(2)
        for _ in range(25):
            f, g = rand_poly(rng, 4), rand_poly(rng, 4)
            s, t, h = poly_gcdex(f, g)
            assert s * f + t * g == h
            assert h == poly_gcd(f, g)

    def test_planted_common_factors(self):
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
            assert resultant_std(b, a) != 0
            assert h.degree >= c.degree

    def test_special_inputs(self):
        zero = UniPoly.zero()
        assert poly_gcd(zero, C(5)) == ONE
        assert poly_gcd(C(-3), X**2 + C(1)) == ONE
        assert poly_gcd(C(F(2, 3)), C(7)) == ONE
        # non-monic, negative leading coefficients
        f = C(-6) * (X - C(2)) * (X + C(1)) ** 2
        g = C(4) * (X + C(1)) * (X**2 + C(3))
        assert poly_gcd(f, g) == X + C(1)
        assert poly_gcd(-f, -g) == X + C(1)
        assert poly_gcd(f, derivative(f)) == X + C(1)
        # rational coefficients
        r = X - C(F(1, 2))
        f = r * (C(F(3, 7)) * X**2 + C(F(5, 11)))
        g = r * (C(F(-4, 5)) * X + C(F(2, 9)))
        assert poly_gcd(f, g) == r
        assert poly_gcd(zero, f) == f.monic()


class TestResultant:
    def test_eval_at_root(self):
        assert resultant_std(X + 1, X**2 - 3) == F(-2)

    def test_linear_case(self):
        # Res(X - b, X - a) = b - a
        assert resultant_std(X - C(5), X - C(2)) == F(3)

    def test_symmetry_law(self):
        rng = random.Random(3)
        for _ in range(40):
            f, g = rand_poly(rng, 4), rand_poly(rng, 4)
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant_std(g, f) == sign * resultant_std(f, g)

    def test_zero_input(self):
        with pytest.raises(ValueError):
            resultant_std(X, UniPoly.zero())

    def test_matches_sylvester(self):
        rng = random.Random(4)
        for _ in range(60):
            f, g = rand_poly(rng, 5), rand_poly(rng, 5)
            assert resultant_std(g, f) == sylvester_resultant(f, g)

    def test_vanishes_iff_common_root(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            f, g = rand_poly(rng, 6), rand_poly(rng, 6)
            if f.degree < 1 or g.degree < 1:
                continue
            shared = poly_gcd(f, g).degree >= 1
            assert (resultant_std(g, f) == 0) == shared
            checked += 1

    def test_number_field_rejected(self):
        # resultants and discriminants are over Q only
        K = NumberField(UniPoly([F(-2), F(0), F(1)]))
        XK = UniPoly.gen(K)
        f = XK * XK - K.from_rational(2)
        with pytest.raises(ValueError):
            resultant_std(f, XK - K.gen())
        with pytest.raises(ValueError):
            discriminant(f)
        with pytest.raises(ValueError):
            discriminant(XK - K.gen())


class TestDiscriminant:
    def test_cubic_examples(self):
        assert discriminant(X**3 + X + 1) == F(-31)
        assert discriminant(X**3 - X - 1) == F(-23)

    def test_bivariate_family(self):
        f = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])
        d = discriminant_in_X(f)
        T = UniPoly.gen()
        assert d == -(T**3) * 4 - (T**2) * 27

    def test_bivariate_constant_leading_coefficient(self):
        # 2X^2 + TX + T: T^2 - 8T
        f = BiPoly.from_terms([(0, 2, F(2)), (1, 1, F(1)), (1, 0, F(1))])
        T = UniPoly.gen()
        assert discriminant_in_X(f) == T * T - T * 8

    def test_bivariate_not_monic_in_x_rejected(self):
        # T X^2 + X + 1 loses its X-degree at T = 0
        for terms in ([(1, 2, F(1)), (0, 1, F(1)), (0, 0, F(1))], [(1, 1, F(1)), (0, 0, F(1))]):
            with pytest.raises(ValueError):
                discriminant_in_X(BiPoly.from_terms(terms))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            discriminant(ONE)
        assert discriminant(X * 3 + 1) == 1

    def test_squarefree_iff_nonzero_disc(self):
        rng = random.Random(6)
        for _ in range(40):
            f = rand_poly(rng, 5)
            if f.degree < 2:
                continue
            sqf = poly_gcd(f, derivative(f)).degree == 0
            assert (discriminant(f) != 0) == sqf

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_sylvester_with_denominators(self, degree):
        """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f), the resultant a
        Sylvester determinant over Q, for f that is neither monic nor
        integral: the package clears the denominator den and scales the
        integer discriminant by den^(2d-2)."""
        rng = random.Random(degree)
        sign = -1 if degree * (degree - 1) // 2 % 2 else 1
        for _ in range(10):
            coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(degree)]
            coeffs.append(F(rng.choice([-5, -1, 1, 5, 7]), rng.choice([2, 3, 4, 6])))
            f = UniPoly(coeffs)
            assert f.lc() != 1 and any(c.den > 1 for c in f.coeffs)
            want = sign * sylvester_resultant(derivative(f), f) / f.lc()
            assert discriminant(f) == want

    def test_family_identity_over_number_fields(self):
        # disc_X of X^3 + (T-y)X + (T-y) is -(T-y)^2 (4(T-y) + 27): the
        # rational discriminant of the family, shifted by T -> T - y, must
        # match the Sylvester determinant of each specialization over K
        rng = random.Random(7)
        moduli = [
            UniPoly([F(-1), F(1)]),
            UniPoly([F(-1), F(-1), F(1)]),
            UniPoly([F(-2), F(0), F(0), F(1)]),
        ]
        family = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])
        d = discriminant_in_X(family)
        for done in range(20):
            K = NumberField(moduli[done % 3])
            y = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            one = K.one()
            s = UniPoly([-y, one], K)
            shifted = UniPoly(d.coeffs, K).compose(s)
            assert shifted == -(s * s) * (s * 4 + 27)
            t = K.from_rational(F(rng.randrange(-20, 21), rng.randrange(1, 5)))
            a = t - y
            f = UniPoly([a, a, K.zero(), one], K)
            assert -sylvester_resultant(derivative(f), f) == shifted.eval(t)


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
            assert interpolate(pts, vals) == f

    def test_matches_newton_over_fractions(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 19, 54, 109):
            vals = [
                F(rng.randrange(-(2**1100), 2**1100), rng.randrange(1, 1000))
                for _ in range(n + 1)
            ]
            vals[rng.randrange(n + 1)] = F(-(2**1001) - 1, 3)
            assert interpolate(range(n + 1), vals) == newton_interpolate(
                range(n + 1), vals
            )

    def test_points_must_be_zero_to_n(self):
        for pts in ([F(1), F(2)], [F(0), F(2)], [F(1), F(0)], [F(0), F(1, 2)]):
            with pytest.raises(ValueError):
                interpolate(pts, [F(1), F(2)])
        with pytest.raises(ValueError):
            interpolate([F(0), F(1)], [F(1)])


class TestRendering:
    def test_rational(self):
        assert render_rational(F(3, 4)) == "3/4"
        assert render_rational(F(-5)) == "-5"
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-5") == F(-5)

    @pytest.mark.parametrize(
        "text", ["2/2", " 1 ", "-0", "+1", "1e2", "1/0", "x", 1, 1.0, True, None]
    )
    def test_parse_rational_is_canonical_only(self, text):
        with pytest.raises(SpecParseError):
            parse_rational(text)

    def test_unipoly_round_trip(self):
        f = X**3 + C(F(1, 2)) * X + 1
        assert parse_unipoly(render_unipoly(f)) == f
