import random
from fractions import Fraction as F
from math import gcd

import pytest

from autrealize.errors import CapExceededError, VerificationError
from autrealize.exact import UniPoly, poly_divrem
from autrealize.numfield import (
    NumberField,
    automorphisms,
    charpoly,
    extend_field,
    factor_over_nf,
    fixed_field,
    minpoly,
    roots_in_field,
    splitting_field,
)
from autrealize.perm import PermGroup, are_isomorphic, parse_cycles
from reference import aut_group_via_quotient, euclid_inverse

X = UniPoly.gen("X")


def Zpoly(*coeffs):
    return UniPoly([F(c) for c in coeffs], "Z")


@pytest.fixture(scope="module")
def golden():
    return NumberField(Zpoly(-1, -1, 1))  # Z^2 = Z + 1


@pytest.fixture(scope="module")
def cbrt2():
    return NumberField(Zpoly(-2, 0, 0, 1))  # Z^3 = 2


@pytest.fixture(scope="module")
def cubic_splitting():
    # splitting field of X^3 - X - 1, degree 6, group S3
    return splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)], "X"))


class TestArithmetic:
    def test_inverse_forced_by_relation(self, cbrt2):
        z = cbrt2.gen()
        assert z.inverse() == cbrt2.element([0, 0, F(1, 2)])

    def test_additive_inverse(self, golden):
        a = golden.element([3, -7])
        assert not (a + (-a))

    def test_golden_ratio_identity(self, golden):
        z = golden.gen()
        assert z * (z - 1) == golden.one()

    def test_inversion_of_zero(self, golden):
        with pytest.raises(ZeroDivisionError):
            golden.zero().inverse()

    def test_owner_mismatch(self, golden, cbrt2):
        with pytest.raises(ValueError):
            golden.gen() + cbrt2.gen()

    def test_random_inverses(self, golden, cbrt2, cubic_splitting):
        rng = random.Random(21)
        fields = [golden, cbrt2, cubic_splitting.field]
        done = 0
        while done < 100:
            K = fields[done % len(fields)]
            a = K.element([rng.randrange(-9, 10) for _ in range(K.degree)])
            if not a:
                continue
            assert a * a.inverse() == K.one()
            done += 1

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            NumberField(Zpoly(-1, 0, 1))  # (Z-1)(Z+1)


class TestIntegerKernel:
    """Elements are integer vectors over one denominator; every operation
    must agree with Fraction arithmetic on the coordinates."""

    MODULI = {
        "sqrt2": (-2, 0, 1),
        "golden": (-1, -1, 1),
        "rational_coefficients": (F(-1, 3), F(-1, 2), 0, 1),  # Z^3 - Z/2 - 1/3
    }

    @pytest.fixture(params=list(MODULI))
    def field(self, request):
        return NumberField(Zpoly(*self.MODULI[request.param]))

    @staticmethod
    def sample(K, seed, count=40):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            coords = [
                F(rng.randrange(-30, 31), rng.randrange(1, 13))
                if rng.random() < 0.8
                else 0
                for _ in range(K.degree)
            ]
            out.append(K.element(coords))
        return out

    def test_products_match_schoolbook(self, field):
        elems = self.sample(field, 61)
        for a, b in zip(elems, elems[1:]):
            reduced = poly_divrem(a.to_poly() * b.to_poly(), field.modulus)[1]
            assert (a * b).to_poly() == reduced
            assert (a + b).to_poly() == a.to_poly() + b.to_poly()
            assert (a * F(-7, 4)).to_poly() == a.to_poly() * F(-7, 4)

    def test_inverses_match_euclid(self, field):
        for a in self.sample(field, 62):
            if a:
                inv = a.inverse()
                assert inv == euclid_inverse(a)
                assert a * inv == field.one()

    def test_lowest_terms(self, field):
        elems = self.sample(field, 63)
        derived = [a * b for a, b in zip(elems, elems[1:])]
        derived += [a - a for a in elems[:3]] + [a.inverse() for a in elems if a]
        for e in elems + derived:
            assert e.den > 0
            assert gcd(e.den, *e.num) == 1
            assert len(e.num) == field.degree
            if not e:
                assert e.den == 1

    def test_eq_and_hash_follow_coords(self, field):
        elems = self.sample(field, 64, count=12)
        # the same values reached by other routes
        again = [field.element(a.coords) for a in elems]
        again += [(a + b) - b for a, b in zip(elems, elems[1:])]
        for x in elems + again:
            for y in elems:
                assert (x == y) == (x.coords == y.coords)
                if x == y:
                    assert hash(x) == hash(y)

    def test_sort_key_is_fraction_order(self, field):
        elems = self.sample(field, 65)
        by_key = sorted(elems, key=lambda e: e.sort_key())
        by_fractions = sorted(elems, key=lambda e: tuple(F(c, e.den) for c in e.num))
        assert [e.coords for e in by_key] == [e.coords for e in by_fractions]

    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            (field.gen() - field.gen()).inverse()

    def test_zero_divisor_of_reducible_modulus(self):
        K = NumberField(Zpoly(-1, 0, 1), trusted=True)  # (Z - 1)(Z + 1)
        with pytest.raises(VerificationError, match="not irreducible"):
            (K.gen() - 1).inverse()
        # a unit of the same ring still inverts
        assert K.gen().inverse() == K.gen()


class TestMinpoly:
    def test_generator(self, golden):
        assert minpoly(golden.gen()) == Zpoly(-1, -1, 1).with_var("X")

    def test_rational_element(self, golden):
        assert minpoly(golden.from_rational(F(2, 3))) == UniPoly([F(-2, 3), F(1)], "X")

    def test_sqrt2_plus_sqrt3(self):
        K2 = NumberField(Zpoly(-2, 0, 1))
        K, _, beta = extend_field(K2, UniPoly([F(-3), F(0), F(1)], "X"))
        assert K.degree == 4
        z = K.gen()
        assert minpoly(z) == UniPoly([F(1), F(0), F(-10), F(0), F(1)], "X")

    def test_properties(self, cbrt2, golden):
        rng = random.Random(22)
        for K in (cbrt2, golden):
            for _ in range(10):
                a = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
                p = minpoly(a)
                assert p.is_monic()
                assert not p.eval(a)
                assert K.degree % p.degree == 0
                assert charpoly(a).degree == K.degree
        # known answer in Q(sqrt 2): a = 3 - 2 sqrt 2 and its conjugate
        # a' = 3 + 2 sqrt 2 give (X - a)(X - a') = X^2 - 6X + 1
        K = NumberField(Zpoly(-2, 0, 1))
        a = K.element([3, -2])
        conj = K.element([3, 2])
        by_hand = UniPoly([-a, K.one()], "X", K) * UniPoly([-conj, K.one()], "X", K)
        assert all(c.is_rational for c in by_hand.coeffs)
        assert charpoly(a) == UniPoly([c.coords[0] for c in by_hand.coeffs], "X")
        assert charpoly(a) == X**2 - 6 * X + 1


class TestFactorOverNf:
    def test_golden_splits(self, golden):
        z = golden.gen()
        fac = factor_over_nf(X**2 - X - 1, golden)
        roots = sorted((-g.coeffs[0]).coords for g, _ in fac.factors)
        assert roots == sorted([z.coords, (golden.one() - z).coords])

    def test_cbrt2_partial_split(self, cbrt2):
        f = UniPoly([F(-2), F(0), F(0), F(1)], "X")
        fac = factor_over_nf(f, cbrt2)
        assert sorted(g.degree for g, _ in fac.factors) == [1, 2]
        acc = UniPoly.one("X", cbrt2)
        for g, m in fac.factors:
            acc = acc * g**m
        assert acc == f.to_field(cbrt2)

    def test_irreducible_stays(self):
        K = NumberField(Zpoly(-2, 0, 1))
        fac = factor_over_nf(X**2 + 1, K)
        assert len(fac.factors) == 1 and fac.factors[0][0].degree == 2

    def test_random_reassembly(self, golden, cbrt2):
        rng = random.Random(23)
        for trial in range(20):
            K = (golden, cbrt2)[trial % 2]
            coeffs = [
                K.element([rng.randrange(-4, 5) for _ in range(K.degree)])
                for _ in range(rng.randrange(2, 5))
            ]
            f = UniPoly(coeffs + [K.one()], "X", K)
            fac = factor_over_nf(f, K)
            acc = UniPoly.constant(fac.unit, "X", K)
            for g, m in fac.factors:
                acc = acc * g**m
            assert acc == f
            for g, _ in fac.factors:
                refac = factor_over_nf(g, K)
                assert len(refac.factors) == 1 and refac.factors[0][1] == 1


class TestRootsInField:
    def test_sqrt5_in_golden(self, golden):
        roots = roots_in_field(X**2 - 5, golden)
        assert sorted(r.coords for r in roots) == [
            (F(-1), F(2)),
            (F(1), F(-2)),
        ]

    def test_no_rational_roots(self):
        Q = NumberField.rationals()
        assert roots_in_field(X**3 + X + 1, Q) == []

    def test_generator_is_root(self, cbrt2):
        roots = roots_in_field(cbrt2.modulus.with_var("X"), cbrt2)
        assert cbrt2.gen() in roots


class TestAutomorphisms:
    def test_golden_order_two(self, golden):
        table = automorphisms(golden)
        assert table.order == 2
        imgs = sorted(m.coords for m in table.maps)
        assert imgs == [(F(0), F(1)), (F(1), F(-1))]

    def test_real_cubic_trivial(self):
        K = NumberField(Zpoly(-1, -1, 0, 1))  # Z^3 - Z - 1, one real root
        assert automorphisms(K).order == 1

    def test_z4_plus_1_is_v4(self):
        K = NumberField(Zpoly(1, 0, 0, 0, 1))
        table = automorphisms(K)
        assert table.order == 4
        v4 = PermGroup(
            [parse_cycles(s, 4) for s in ["(1 2)(3 4)", "(1 3)(2 4)"]]
        ).to_abstract()[0]
        assert are_isomorphic(table.group, v4)[0]

    def test_order_divides_degree(self, golden, cbrt2):
        for K in (golden, cbrt2):
            assert K.degree % automorphisms(K).order == 0

    def test_maps_preserve_arithmetic(self, golden):
        rng = random.Random(24)
        table = automorphisms(golden)
        for _ in range(20):
            a = golden.element([rng.randrange(-5, 6), rng.randrange(-5, 6)])
            b = golden.element([rng.randrange(-5, 6), rng.randrange(-5, 6)])
            for i in range(table.order):
                assert table.apply(i, a + b) == table.apply(i, a) + table.apply(i, b)
                assert table.apply(i, a * b) == table.apply(i, a) * table.apply(i, b)
                assert table.apply(i, golden.from_rational(7)) == 7


class TestSplittingField:
    def test_quadratic(self):
        L = splitting_field(UniPoly([F(-1), F(-1), F(1)], "X"))
        assert L.degree == 2 and L.galois.order == 2

    def test_cubic(self, cubic_splitting):
        L = cubic_splitting
        assert L.degree == 6
        assert L.galois.order == 6
        assert L.galois.elements == PermGroup.symmetric(3).elements
        # action is faithful: distinct automorphisms give distinct perms
        assert len(set(L.perms)) == 6

    def test_already_split(self):
        L = splitting_field((X - 1) * (X - 2))
        assert L.degree == 1 and L.galois.order == 1

    def test_root_product_reconstructs(self, cubic_splitting):
        L = cubic_splitting
        acc = UniPoly.one("X", L.field)
        for r in L.roots:
            acc = acc * UniPoly([-r, L.field.one()], "X", L.field)
        assert acc == L.poly.to_field(L.field)

    def test_degree_cap(self):
        with pytest.raises(CapExceededError):
            splitting_field(UniPoly([F(-2), F(0), F(0), F(1)], "X"), max_degree=2)
        with pytest.raises(CapExceededError):
            # X^3 - X - 1 needs degree 6; the quadratic step exceeds 3
            splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)], "X"), max_degree=3)


class TestFixedField:
    def test_stabilizer_gives_cubic_subfield(self, cubic_splitting):
        L = cubic_splitting
        stab = PermGroup.from_elements(
            [p for p in L.galois.elements if p(3) == 3], L.galois.degree
        )
        y, p = fixed_field(L, stab)
        assert p.degree == 3
        # same field as Q(root): the original cubic has a root in
        # the field defined by p, and conversely
        Kp = NumberField(p.with_var("Z"), trusted=True)
        assert roots_in_field(L.poly, Kp)
        assert roots_in_field(p, NumberField(L.poly.with_var("Z"), trusted=True))

    def test_a3_gives_quadratic_resolvent(self, cubic_splitting):
        from autrealize.exact import discriminant

        y, p = fixed_field(cubic_splitting, PermGroup.alternating(3))
        assert p.degree == 2
        d = discriminant(p)
        # disc lies in -23 * (Q*)^2
        ratio = d / F(-23)
        assert ratio > 0
        num, den = ratio.numerator, ratio.denominator
        import math

        assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def test_full_group_gives_q(self, cubic_splitting):
        y, p = fixed_field(cubic_splitting, cubic_splitting.galois)
        assert p.degree == 1 and y.is_rational

    def test_degree_formula_and_fixedness(self, cubic_splitting):
        L = cubic_splitting
        for H in (
            PermGroup([], degree=3),
            PermGroup([parse_cycles("(1 2)", 3)], degree=3),
            PermGroup.alternating(3),
            L.galois,
        ):
            y, p = fixed_field(L, H)
            assert p.degree * H.order == L.degree
            for perm in H.elements:
                assert L.autos.apply(L.aut_index_for_perm(perm), y) == y


class TestLemmaCrossCheck:
    def test_field_side_matches_group_side(self, cubic_splitting):
        L = cubic_splitting
        s3 = PermGroup.symmetric(3)
        cases = [
            (PermGroup([], degree=3), 6),
            (PermGroup([parse_cycles("(1 2)", 3)], degree=3), 1),
            (PermGroup.alternating(3), 2),
            (s3, 1),
        ]
        for H, expected in cases:
            _, p = fixed_field(L, H)
            KH = NumberField(p.with_var("Z"), trusted=True)
            field_side = automorphisms(KH).order
            group_side = aut_group_via_quotient(s3, H)[0].order
            assert field_side == group_side == expected
            assert field_side <= KH.degree
