import random
from fractions import Fraction as F

import pytest

from autrealize.errors import SpecParseError
from autrealize.exact import BiPoly, UniPoly, discriminant_in_X
from autrealize.family import (
    FamilyMember,
    bad_set,
    build_member,
    certify_distinct,
    certify_s3,
    replay_distinct,
    replay_s3,
    t_identity_residual,
)
from autrealize.numfield import NumberField


def Zpoly(*coeffs):
    return UniPoly([F(c) for c in coeffs], "Z")


@pytest.fixture(scope="module")
def QQ():
    return NumberField.rationals()


@pytest.fixture(scope="module")
def fields():
    return [
        NumberField.rationals(),
        NumberField(Zpoly(-1, -1, 1), trusted=True),
        NumberField(Zpoly(-2, 0, 0, 1), trusted=True),
    ]


class TestBuildMember:
    def test_y_zero(self, QQ):
        m = build_member(QQ, 0)
        one = QQ.one()
        assert m.poly == BiPoly.from_terms(
            [(0, 3, one), (1, 1, one), (1, 0, one)], QQ
        )

    def test_y_one(self, QQ):
        m = build_member(QQ, 1)
        assert m.poly.coeff(0, 1) == -QQ.one()
        assert m.poly.coeff(1, 1) == QQ.one()
        assert m.poly.coeff(0, 0) == -QQ.one()

    def test_number_field_coefficients(self):
        K = NumberField(Zpoly(23, 0, 1), trusted=True)
        m = build_member(K, K.gen())
        assert m.poly.coeff(0, 1) == -K.gen()

    def test_wrong_poly_rejected(self, QQ):
        good = build_member(QQ, 0)
        with pytest.raises(ValueError):
            FamilyMember(QQ, QQ.one(), good.poly)


class TestCertifyS3:
    def test_y_zero(self, QQ):
        cert = certify_s3(build_member(QQ, 0))
        # disc = -T^2 (4T + 27)
        T = UniPoly.gen("T", QQ)
        assert cert.disc == -(T * T) * (T * 4 + 27)
        assert cert.square_class_degree == 1
        assert replay_s3(cert)

    def test_y_one(self, QQ):
        cert = certify_s3(build_member(QQ, 1))
        s = UniPoly([-QQ.one(), QQ.one()], "T", QQ)
        assert cert.disc == -(s * s) * (s * 4 + 27)
        assert replay_s3(cert)

    def test_random_y_over_small_fields(self, fields):
        rng = random.Random(31)
        done = 0
        while done < 20:
            K = fields[done % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            m = build_member(K, y)
            cert = certify_s3(m)
            # independent recomputation through the generic discriminant
            assert cert.disc == discriminant_in_X(m.poly)
            assert replay_s3(cert)
            done += 1


class TestCertifyDistinct:
    def test_rational_pair(self, QQ):
        cert = certify_distinct(QQ, 0, 1)
        assert cert.delta == 1
        # G(Y) = Y^3 + Y + 1 is irreducible over Q
        assert len(cert.g_factors) == 1 and cert.g_factors[0][0].degree == 3
        assert len(cert.shapes) == 4  # divisors {1, G} x V in {1, x+1}
        assert replay_distinct(cert, QQ)

    def test_equal_parameters_rejected(self, QQ):
        with pytest.raises(SpecParseError):
            certify_distinct(QQ, 1, 1)

    def test_sqrt5_pair(self):
        K = NumberField(Zpoly(-5, 0, 1), trusted=True)
        cert = certify_distinct(K, K.zero(), K.gen())
        assert replay_distinct(cert, K)

    def test_random_pairs(self, fields):
        rng = random.Random(32)
        done = 0
        while done < 10:
            K = fields[done % len(fields)]
            y1 = K.element([rng.randrange(-4, 5) for _ in range(K.degree)])
            y2 = K.element([rng.randrange(-4, 5) for _ in range(K.degree)])
            if y1 == y2:
                continue
            cert = certify_distinct(K, y1, y2)
            assert replay_distinct(cert, K)
            done += 1
        for K in fields:
            y = K.element([1] * K.degree)
            with pytest.raises(SpecParseError):
                certify_distinct(K, y, y)


def bad_points(q, candidates):
    return [t0 for t0 in candidates if bad_set(q, t0)]


class TestBadSet:
    def test_family_at_zero(self):
        q = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])
        candidates = [F(-27, 4)] + [F(t) for t in range(-10, 11)]
        assert bad_points(q, candidates) == [F(-27, 4), F(0)]

    def test_double_root_at_zero(self):
        q = BiPoly.from_terms([(0, 2, F(1)), (1, 0, F(-1))])  # X^2 - T
        assert bad_points(q, [F(t) for t in range(-10, 11)]) == [F(0)]

    def test_family_at_one(self):
        q = BiPoly.from_terms(
            [(0, 3, F(1)), (1, 1, F(1)), (0, 1, F(-1)), (1, 0, F(1)), (0, 0, F(-1))]
        )
        candidates = [F(-23, 4)] + [F(t) for t in range(-10, 11)]
        assert bad_points(q, candidates) == [F(-23, 4), F(1)]

    def test_specializations_outside_bad_set_squarefree(self):
        from autrealize.exact import discriminant, poly_gcd

        q = BiPoly.from_terms([(0, 3, F(1)), (1, 1, F(1)), (1, 0, F(1))])
        disc_T = discriminant_in_X(q)
        for t in range(-10, 11):
            t0 = F(t)
            spec = q.specialize(t0)
            squarefree = poly_gcd(spec, spec.derivative()).degree == 0
            if bad_set(q, t0):
                assert discriminant(spec) == 0
                assert disc_T.eval(t0) == 0
                assert not squarefree
            else:
                assert discriminant(spec) != 0
                assert disc_T.eval(t0) != 0
                assert squarefree

    def test_non_separable_rejected(self):
        q = BiPoly.from_terms([(0, 2, F(1))])  # X^2: disc vanishes identically
        assert all(bad_set(q, F(t)) for t in range(-3, 4))


class TestTIdentity:
    def test_residual_vanishes(self, QQ, fields):
        assert t_identity_residual(QQ, 0).is_zero
        assert t_identity_residual(QQ, F(3, 2)).is_zero
        for K in fields[1:]:
            assert t_identity_residual(K, K.gen()).is_zero
