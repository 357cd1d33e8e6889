import random
from fractions import Fraction as F

import pytest

from autrealize import family
from autrealize.errors import VerificationError
from autrealize.exact import QQ, BiPoly, UniPoly
from autrealize.family import FAMILY, bad_set, certify_s3, cubic
from autrealize.numfield import NumberField
from reference import derivative, discriminant_in_X, sylvester_resultant

X = UniPoly.gen()
T = UniPoly.gen()


def Zpoly(*coeffs):
    return UniPoly([F(c) for c in coeffs])


@pytest.fixture(scope="module")
def fields():
    return [
        NumberField(Zpoly(-1, 1)),
        NumberField(Zpoly(-1, -1, 1)),
        NumberField(Zpoly(-2, 0, 0, 1)),
    ]


class TestCubic:
    def test_rational(self):
        assert cubic(F(2)) == X**3 + X * 2 + 2
        assert cubic(0) == X**3
        assert cubic(F(-1, 3)).field is QQ

    def test_number_field_coefficients(self):
        K = NumberField(Zpoly(23, 0, 1))
        f = cubic(K.gen())
        assert f.field is K
        assert f.coeffs == (K.gen(), K.gen(), K.zero(), K.one())


class TestBuildMember:
    # the pipeline's member at y is cubic(t - y) at each rational t, i.e.
    # the bivariate X^3 + (T - y)X + (T - y) specialized at T = t
    def test_y_zero(self):
        assert FAMILY.rows == ((0, 0, 0, 1), (1, 1, 0, 0))
        for t in range(-5, 6):
            assert cubic(F(t) - 0) == FAMILY.specialize(t)

    def test_y_one(self):
        q = BiPoly([[-1, -1, 0, 1], [1, 1, 0, 0]])
        assert q.rows[0][1] == -1
        assert q.rows[1][1] == 1
        assert q.rows[0][0] == -1
        for t in range(-5, 6):
            assert cubic(F(t) - 1) == q.specialize(t)


class TestCertifyS3:
    def test_y_zero(self):
        # at y = 0 the pipeline's cubic over K(T) is FAMILY itself
        assert certify_s3() is None
        assert discriminant_in_X(FAMILY) == -(T * T) * (T * 4 + 27)

    def test_wrong_discriminant_raises(self, monkeypatch):
        # one value off at T = 5, the last of the six points that prove
        # the identity
        real = family.discriminant
        monkeypatch.setattr(
            family, "discriminant", lambda f: real(f) + (f[0] == 5)
        )
        with pytest.raises(VerificationError, match="discriminant identity"):
            certify_s3()

    def test_y_one(self):
        # the substitution a -> T - 1 carries the certified discriminant
        q = BiPoly([[-1, -1, 0, 1], [1, 1, 0, 0]])
        s = T - 1
        assert discriminant_in_X(q) == -(s * s) * (s * 4 + 27)
        assert discriminant_in_X(q) == discriminant_in_X(FAMILY).compose(s)

    def test_random_y_over_small_fields(self, fields):
        # independent of exact.discriminant: for a monic cubic f the
        # Sylvester determinant gives disc(f) = -Res(f, f')
        rng = random.Random(31)
        for done in range(21):
            K = fields[done % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            t = F(rng.randrange(-20, 21), rng.randrange(1, 5))
            a = K.from_rational(t) - y
            f = cubic(a)
            disc = -sylvester_resultant(derivative(f), f)
            assert disc == -(a * a) * (a * 4 + 27)


def bad_points(q, candidates):
    return [t0 for t0 in candidates if bad_set(q, t0)]


class TestBadSet:
    def test_family_at_zero(self):
        q = BiPoly([[0, 0, 0, 1], [1, 1, 0, 0]])
        candidates = [F(-27, 4)] + [F(t) for t in range(-10, 11)]
        assert bad_points(q, candidates) == [F(-27, 4), F(0)]

    def test_double_root_at_zero(self):
        q = BiPoly([[0, 0, 1], [-1, 0, 0]])  # X^2 - T
        assert bad_points(q, [F(t) for t in range(-10, 11)]) == [F(0)]

    def test_family_at_one(self):
        q = BiPoly([[-1, -1, 0, 1], [1, 1, 0, 0]])
        candidates = [F(-23, 4)] + [F(t) for t in range(-10, 11)]
        assert bad_points(q, candidates) == [F(-23, 4), F(1)]

    def test_specializations_outside_bad_set_squarefree(self):
        from autrealize.exact import discriminant, poly_gcd

        q = BiPoly([[0, 0, 0, 1], [1, 1, 0, 0]])
        disc_T = discriminant_in_X(q)
        for t in range(-10, 11):
            t0 = F(t)
            spec = q.specialize(t0)
            squarefree = poly_gcd(spec, derivative(spec)).degree == 0
            if bad_set(q, t0):
                assert discriminant(spec) == 0
                assert disc_T.eval(t0) == 0
                assert not squarefree
            else:
                assert discriminant(spec) != 0
                assert disc_T.eval(t0) != 0
                assert squarefree

    def test_non_separable_rejected(self):
        q = BiPoly([[0, 0, 1]])  # X^2: disc vanishes identically
        assert all(bad_set(q, F(t)) for t in range(-3, 4))
