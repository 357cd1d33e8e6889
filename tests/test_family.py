import random
from fractions import Fraction as F

import pytest

from autrealize.exact import BiPoly, UniPoly, discriminant_in_X
from autrealize.family import FamilyMember, bad_set, build_member, certify_s3
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
        m = build_member(QQ, 0)
        cert = certify_s3(m)
        # disc = -T^2 (4T + 27)
        T = UniPoly.gen("T", QQ)
        assert discriminant_in_X(m.poly) == -(T * T) * (T * 4 + 27)
        assert cert.square_class_degree == 1
        assert [label for label, _ in cert.irreducibility] == [
            "constant-root",
            "linear-root",
        ]

    def test_y_one(self, QQ):
        m = build_member(QQ, 1)
        cert = certify_s3(m)
        s = UniPoly([-QQ.one(), QQ.one()], "T", QQ)
        assert discriminant_in_X(m.poly) == -(s * s) * (s * 4 + 27)
        assert cert.square_class_degree == 1

    def test_random_y_over_small_fields(self, fields):
        rng = random.Random(31)
        done = 0
        while done < 20:
            K = fields[done % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            m = build_member(K, y)
            cert = certify_s3(m)
            # independent recomputation through the generic discriminant
            s = UniPoly([-y, K.one()], "T", K)
            assert discriminant_in_X(m.poly) == -(s * s) * (s * 4 + 27)
            assert cert.square_class_degree == 1
            done += 1


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
