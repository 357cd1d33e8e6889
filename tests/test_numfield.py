import random
import time
from fractions import Fraction as F
from functools import cache
from itertools import islice
from math import gcd

import pytest

from autrealize.errors import CapExceededError, VerificationError
from autrealize.exact import QQ, UniPoly, poly_divrem
from autrealize import factor, numfield, perm
from autrealize.factor import Reductions, completeness_prime
from autrealize.numfield import (
    AutomorphismTable,
    NumberField,
    extend_field,
    factor_over_nf,
    fixed_field,
    roots_in_field,
    shifted_norms,
    splitting_field,
    table_mod_p,
)
from autrealize.perm import PermGroup, are_isomorphic, parse_cycles
from reference import (
    apply,
    aut_group_via_quotient,
    automorphisms,
    completeness_prime_by_pattern,
    composition_table,
    ddf_by_gcd,
    ddf_degrees,
    distinct_parts,
    embed_generator_by_gcd,
    euclid_inverse,
    expand,
    minpoly,
    named_perm_group,
    root_product_by_ddf,
    shifted_norm_by_resultants,
    to_abstract,
)

X = UniPoly.gen()


def Zpoly(*coeffs):
    return UniPoly([F(c) for c in coeffs])


@pytest.fixture(scope="module")
def golden():
    return NumberField(Zpoly(-1, -1, 1))  # Z^2 = Z + 1


@pytest.fixture(scope="module")
def cbrt2():
    return NumberField(Zpoly(-2, 0, 0, 1))  # Z^3 = 2


@pytest.fixture(scope="module")
def cubic_splitting():
    # splitting field of X^3 - X - 1, degree 6, group S3
    return splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)]))


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

    def test_field_is_its_object(self, golden):
        # a second field built from the same modulus is another field:
        # its elements equal none of the first's and do not coerce into it
        twin = NumberField(golden.modulus)
        assert (golden.gen() == twin.gen()) is False
        with pytest.raises(ValueError):
            UniPoly([golden.gen()], twin)

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

    def test_qcoords_is_fraction_order(self, field):
        elems = self.sample(field, 65)
        by_key = sorted(elems, key=lambda e: e.qcoords)
        by_fractions = sorted(elems, key=lambda e: tuple(F(c, e.den) for c in e.num))
        assert [e.coords for e in by_key] == [e.coords for e in by_fractions]

    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            (field.gen() - field.gen()).inverse()

    def test_zero_divisor_of_reducible_modulus(self):
        K = NumberField(Zpoly(-1, 0, 1))  # (Z - 1)(Z + 1)
        with pytest.raises(VerificationError, match="not irreducible"):
            (K.gen() - 1).inverse()
        # a unit of the same ring still inverts
        assert K.gen().inverse() == K.gen()


class TestFactorOverNf:
    def test_golden_splits(self, golden):
        z = golden.gen()
        fac = factor_over_nf(X**2 - X - 1, golden)
        roots = sorted((-g.coeffs[0]).coords for g in fac)
        assert roots == sorted([z.coords, (golden.one() - z).coords])

    def test_cbrt2_partial_split(self, cbrt2):
        f = UniPoly([F(-2), F(0), F(0), F(1)])
        fac = factor_over_nf(f, cbrt2)
        assert [g.degree for g in fac] == [1, 2]
        assert expand(fac) == UniPoly(f.coeffs, cbrt2)

    def test_one_discriminant_per_norm(self, cbrt2, monkeypatch):
        """Each norm the shift search tries takes one discriminant, on
        its record; the accepted norm is factored through that record."""
        records, discs = [], []
        record, disc = numfield.Reductions, factor.discriminant
        monkeypatch.setattr(numfield, "Reductions", lambda N: records.append(N) or record(N))
        monkeypatch.setattr(factor, "discriminant", lambda F: discs.append(F) or disc(F))
        f = UniPoly([F(-2), F(0), F(0), F(1)])
        assert [g.degree for g in factor_over_nf(f, cbrt2)] == [1, 2]
        assert len(records) == 3  # at s = 1 and s = -1 the norm has a repeated root
        assert len(discs) == len(records)

    def test_irreducible_stays(self):
        K = NumberField(Zpoly(-2, 0, 1))
        fac = factor_over_nf(X**2 + 1, K)
        assert len(fac) == 1 and fac[0].degree == 2

    def test_random_reassembly(self, golden, cbrt2):
        rng = random.Random(23)
        for trial in range(20):
            K = (golden, cbrt2)[trial % 2]

            def rand_part():
                coeffs = [
                    K.element([rng.randrange(-4, 5) for _ in range(K.degree)])
                    for _ in range(rng.randrange(1, 3))
                ]
                return UniPoly(coeffs + [K.one()], K)

            _, f = distinct_parts(rand_part, rng.randrange(1, 3))
            fac = factor_over_nf(f, K)
            assert expand(fac) == f
            for g in fac:
                assert factor_over_nf(g, K) == (g,)

    @pytest.mark.parametrize(
        "field, f",
        [("golden", (X**2 + 1) ** 2), ("cbrt2", (X**2 + 1) ** 2 * (X - 1))],
    )
    def test_repeated_factor_refused(self, request, monkeypatch, field, f):
        """Over K = Q(theta) of degree d, at most m^2 d(d-1)/2 shifts s
        leave the norm of a squarefree f(X - s*theta) of degree m with a
        repeated root; past one more shift than that, f is refused."""
        K = request.getfixturevalue(field)
        shifts = []  # one record, hence one squarefreeness test, per norm
        record = numfield.Reductions
        monkeypatch.setattr(numfield, "Reductions", lambda N: shifts.append(N) or record(N))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="squarefree"):
            factor_over_nf(f, K)
        assert time.perf_counter() - start < 1
        m, d = f.degree, K.degree
        assert len(shifts) == m * m * d * (d - 1) // 2 + 1


class TestRootsInField:
    def test_sqrt5_in_golden(self, golden):
        roots = roots_in_field(X**2 - 5, golden)
        assert sorted(r.coords for r in roots) == [
            (F(-1), F(2)),
            (F(1), F(-2)),
        ]

    def test_no_rational_roots(self):
        assert roots_in_field(X**3 + X + 1, QQ) == []

    def test_generator_is_root(self, cbrt2):
        roots = roots_in_field(cbrt2.modulus, cbrt2)
        assert cbrt2.gen() in roots


class TestAutomorphisms:
    """The reference table: one map per root of the modulus in the field."""

    def test_golden_order_two(self, golden):
        table = automorphisms(golden)
        assert len(table.maps) == 2
        imgs = sorted(m.coords for m in table.maps)
        assert imgs == [(F(0), F(1)), (F(1), F(-1))]

    def test_real_cubic_trivial(self):
        K = NumberField(Zpoly(-1, -1, 0, 1))  # Z^3 - Z - 1, one real root
        assert len(automorphisms(K).maps) == 1

    def test_z4_plus_1_is_v4(self):
        K = NumberField(Zpoly(1, 0, 0, 0, 1))
        table = automorphisms(K)
        assert len(table.maps) == 4
        v4 = to_abstract(
            PermGroup([parse_cycles(s, 4) for s in ["(1 2)(3 4)", "(1 3)(2 4)"]], degree=4)
        )
        assert are_isomorphic(table.table, v4)[0]

    def test_order_divides_degree(self, golden, cbrt2):
        for K in (golden, cbrt2):
            assert K.degree % len(automorphisms(K).maps) == 0

    def test_maps_preserve_arithmetic(self, golden):
        rng = random.Random(24)
        table = automorphisms(golden)
        for _ in range(20):
            a = golden.element([rng.randrange(-5, 6), rng.randrange(-5, 6)])
            b = golden.element([rng.randrange(-5, 6), rng.randrange(-5, 6)])
            for m in table.maps:
                assert apply(m, a + b) == apply(m, a) + apply(m, b)
                assert apply(m, a * b) == apply(m, a) * apply(m, b)
                assert apply(m, golden.from_rational(7)) == 7

    def test_order_kept_and_steps_checked(self, golden):
        """The maps keep the order they are given in, the identity first
        or not; each step of the proof is kept as a check, and the table
        is read only when every step passes."""
        maps = automorphisms(golden).maps
        aut = AutomorphismTable(golden, maps[::-1], prime=11)
        assert aut.maps == maps[::-1]
        assert aut.table == composition_table(maps[::-1])
        assert aut.checks == [
            ("images are roots", True, ""),
            ("completeness prime", True, "p = 11"),
        ]
        not_a_root = (maps[0], golden.element([1, 1]))
        not_prime = "p = 9: not an integer prime with 5 <= p < 2**64"
        no_images = "p = 7: no images, and the bound needs a root mod p"
        for images, p, failed, detail in [
            (not_a_root, 11, "images are roots", ""),
            (maps, 7, "completeness prime", "p = 7: 0 roots mod p for 2 images"),
            (maps, 9, "completeness prime", not_prime),
            ((), 7, "completeness prime", no_images),  # 0 roots mod 7 too
        ]:
            aut = AutomorphismTable(golden, images, prime=p)
            assert [check for check in aut.checks if not check[1]] == [
                (failed, False, detail)
            ]
            assert aut.table is None

    def test_table_mod_p_refusals(self, golden):
        maps = automorphisms(golden).maps
        assert table_mod_p(golden, maps, 11) == composition_table(maps)
        bad = {
            "no usable root": (maps, 7),  # Z^2 - Z - 1 is irreducible mod 7
            "divides the denominator": ((maps[0], golden.element([F(1, 11), 1])), 11),
            "agree mod": ((*maps, maps[1]), 11),
        }
        for message, (images, p) in bad.items():
            with pytest.raises(VerificationError, match=message):
                table_mod_p(golden, images, p)


class TestEmbedGenerator:
    """The generator's image by one linear solve in the tower is the one
    the gcd over the larger field gives."""

    def test_sqrt2_then_sqrt3(self):
        K = NumberField(Zpoly(-2, 0, 1))
        h = UniPoly((X**2 - 3).coeffs, K)
        K2, powers, beta, c = extend_field(K, h)
        theta2 = powers.base
        assert theta2 == embed_generator_by_gcd(K, h, K2, c)
        assert theta2 * theta2 == 2 and beta * beta == 3
        # K2 = Q(sqrt 2 + sqrt 3), whatever the sign of c, and h over Q
        # gives the same field
        assert K2.modulus == Zpoly(1, 0, -10, 0, 1)
        assert extend_field(K, X**2 - 3)[0].modulus == K2.modulus

    def test_every_step_of_the_s3_tower(self, cubic_splitting):
        K, work = QQ, cubic_splitting.poly
        steps = 0
        while True:
            factors = factor_over_nf(work, K)
            nonlinear = [g for g in factors if g.degree > 1]
            if not nonlinear:
                break
            K2, powers, _, c = extend_field(K, nonlinear[0])
            theta2 = powers.base
            assert theta2 == embed_generator_by_gcd(K, nonlinear[0], K2, c)
            work = work.map_coeffs(lambda e: e.to_poly().eval(theta2), field=K2)
            K, steps = K2, steps + 1
        assert steps == 2 and K.modulus == cubic_splitting.field.modulus


#: polynomials whose splitting fields cover S_n, cyclic, V4 and D4 groups,
#: one with a rational root and one already split over Q
SPLITTING_CASES = {
    "X^2-X-1": X**2 - X - 1,
    "X^3-X-1": X**3 - X - 1,
    "X^3-2": X**3 - 2,
    "X^3+X^2-2X-1": X**3 + X**2 - 2 * X - 1,
    "X^4+1": X**4 + 1,
    "X^4-5X^2+6": X**4 - 5 * X**2 + 6,
    "X^4+X^3+X^2+X+1": X**4 + X**3 + X**2 + X + 1,
    "(X-1)(X-2)": (X - 1) * (X - 2),
    "X^4-2": X**4 - 2,
}


@cache
def splitting(name):
    """The splitting field of SPLITTING_CASES[name], built once."""
    return splitting_field(SPLITTING_CASES[name])


def assert_homomorphism(L, gens=None):
    """The labelling of generator images by root permutations respects
    composition: sigma_s(sigma_t(Z)) is the image labelled s * t, for
    every t and every s in gens (default: every element).  A generating
    set suffices: then sigma_(s t) = sigma_s . sigma_t for s in gens, so
    sigma_e is the identity and, along any word u in gens,
    sigma_(u t) = sigma_u . sigma_t."""
    for s in gens or L.images:
        for t, mt in L.images.items():
            assert L.images[s * t] == apply(L.images[s], mt)


@pytest.fixture(scope="module")
def s4_base():
    """The splitting field of X^4 - X - 1 (degree 24, group S4), with the
    completeness primes, tables mod p and isomorphism searches its
    construction asked for, wherever the package reaches them from."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (factor, numfield, perm):
            for name in ("completeness_prime", "table_mod_p", "are_isomorphic"):
                orig = getattr(module, name, None)
                if orig is not None:
                    mp.setattr(
                        module,
                        name,
                        lambda *a, orig=orig, name=name: seen.append(name) or orig(*a),
                    )
        L = splitting_field(X**4 - X - 1)
    return L, seen


class TestSplittingField:
    @pytest.mark.parametrize("name", list(SPLITTING_CASES))
    def test_galois_action_matches_reference(self, name):
        """Permuting the roots in the tracked generator finds the same
        automorphisms as factoring the modulus over the field, each
        permutation is how its map moves the roots, and the labelling is
        a homomorphism."""
        L = splitting(name)
        ref = automorphisms(L.field)
        assert set(L.images.values()) == set(ref.maps)
        assert L.galois.order == L.degree == len(L.images)
        for perm, m in L.images.items():
            moved = [L.roots.index(apply(m, r)) + 1 for r in L.roots]
            assert perm.images == tuple(moved)
        assert_homomorphism(L)

    @pytest.mark.parametrize(
        "f", [X**3 - X - 1, X**2 - X - 1, X - 1], ids=["X^3-X-1", "X^2-X-1", "X-1"]
    )
    def test_galois_is_the_closure_of_its_images(self, f):
        """Gal(L) is closed from the root permutations, not trusted to be
        a group: they compose within themselves, and there are [L:Q]."""
        L = splitting_field(f)
        images = set(L.images)
        assert L.galois.elements == images
        assert {a * b for a in images for b in images} == images
        assert L.galois.order == L.degree

    @pytest.mark.parametrize("name", list(SPLITTING_CASES))
    def test_completeness_prime_matches_pattern_definition(self, name):
        """The completeness prime of the field's modulus, found by counting
        roots, is the first prime whose Frobenius pattern has [L:Q] ones,
        and at each of the first 200 usable primes the record's root
        product and pattern are those of the per-prime gcd definition."""
        L = splitting(name)
        f = L.field.modulus
        red = Reductions(f)
        assert completeness_prime(red, L.degree) == completeness_prime_by_pattern(
            f, L.degree
        )
        for p in islice(red.primes(), 200):
            ddf = ddf_by_gcd(f, p)
            assert red.roots(p) == root_product_by_ddf(ddf)
            assert red.pattern(p) == ddf_degrees(ddf)

    @pytest.mark.parametrize("f, calls", [(X**2 - X - 1, 1), (X**3 - X - 1, 2)])
    def test_last_root_from_the_trace(self, monkeypatch, f, calls):
        """The tower never factors over its largest field: the last root
        is minus the X^(n-1) coefficient minus the others."""
        seen = []
        factor_over_nf = numfield.factor_over_nf
        monkeypatch.setattr(
            numfield,
            "factor_over_nf",
            lambda g, K: seen.append(K) or factor_over_nf(g, K),
        )
        L = splitting_field(f)
        assert len(seen) == calls
        assert max(K.degree for K in seen) < L.degree

    @pytest.mark.parametrize("f, calls", [(X**3 - X - 1, 0), (X**4 + 1, 12)])
    def test_permutations_read_off_the_injections(self, monkeypatch, f, calls):
        """Each adjoined root's image comes from the one injection that
        gives its map, and a single root left over from the free index;
        a root is evaluated at a map's image only for the other roots (for
        X^4 + 1, at the three roots besides the adjoined one, for each of
        its 4 maps)."""
        seen, inside = [], []
        evaluate = UniPoly.eval
        monkeypatch.setattr(
            UniPoly, "eval", lambda g, x: (inside and seen.append(x)) or evaluate(g, x)
        )
        permutation = numfield._root_permutation

        def counted(*args):
            inside.append(True)
            try:
                return permutation(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(numfield, "_root_permutation", counted)
        L = splitting_field(f)
        assert len(seen) == calls
        assert L.galois.order == L.degree

    def test_s4_base(self, s4_base):
        """X^4 - X - 1, the base of the S4 route: its degree-24 field has
        Galois group S4, read off without a completeness prime, a table mod
        p or an isomorphism search."""
        L, seen = s4_base
        assert L.degree == 24
        assert L.galois.elements == named_perm_group("S4").elements
        assert seen == []

    def test_s4_base_homomorphism(self, s4_base):
        # a transposition and a 4-cycle generate S4
        assert_homomorphism(s4_base[0], named_perm_group("S4").generators)

    def test_quadratic(self):
        L = splitting_field(UniPoly([F(-1), F(-1), F(1)]))
        assert L.degree == 2 and L.galois.order == 2

    def test_cubic(self, cubic_splitting):
        L = cubic_splitting
        assert L.degree == 6
        assert L.galois.order == 6
        assert L.galois.elements == named_perm_group("S3").elements
        # action is faithful: distinct automorphisms give distinct perms
        assert len(L.images) == len(set(L.images.values())) == 6

    def test_already_split(self):
        L = splitting_field((X - 1) * (X - 2))
        assert L.degree == 1 and L.galois.order == 1

    def test_repeated_factor_refused(self):
        """The first factorization, over Q, refuses a repeated factor."""
        with pytest.raises(ValueError, match="squarefree"):
            splitting_field((X**2 - 2) ** 2 * (X - 1))

    def test_generator_powers_built_once(self, monkeypatch):
        """Each step maps the old field into the new through the powers
        that the embedding built for its own check; no element's powers
        are built twice."""
        bases = []
        powers = numfield.Powers

        def watched(m, k):
            bases.append(m)
            return powers(m, k)

        monkeypatch.setattr(numfield, "Powers", watched)
        splitting_field(X**3 - X - 1)
        assert len(bases) == len(set(bases))

    def test_root_product_reconstructs(self, cubic_splitting):
        L = cubic_splitting
        acc = UniPoly.one(L.field)
        for r in L.roots:
            acc = acc * UniPoly([-r, L.field.one()], L.field)
        assert acc == UniPoly(L.poly.coeffs, L.field)

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setattr(numfield, "SPLITTING_DEGREE_CAP", 2)
        with pytest.raises(CapExceededError):
            splitting_field(UniPoly([F(-2), F(0), F(0), F(1)]))
        monkeypatch.setattr(numfield, "SPLITTING_DEGREE_CAP", 3)
        with pytest.raises(CapExceededError):
            # X^3 - X - 1 needs degree 6; the quadratic step exceeds 3
            splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)]))


def first_orbit_sum(L, H):
    """The first orbit sum over H, in fixed_field's search order, whose
    minimal polynomial by resultants has degree [L:Q] / |H|."""
    theta, d = L.field.gen(), L.degree
    candidates = [theta**j for j in range(1, d + 1)]
    candidates += [theta**j + theta * j for j in range(2, d + 1)]
    for cand in candidates:
        y = sum((apply(L.images[p], cand) for p in H.elements), L.field.zero())
        if minpoly(y).degree * H.order == d:
            return y
    return None


class TestFixedField:
    def test_stabilizer_gives_cubic_subfield(self, cubic_splitting):
        L = cubic_splitting
        stab = PermGroup(
            [p for p in L.galois.elements if p(3) == 3], L.galois.degree
        )
        y = fixed_field(L, stab)
        p = minpoly(y)
        assert p.degree == 3
        # same field as Q(root): the original cubic has a root in
        # the field defined by p, and conversely
        Kp = NumberField(p)
        assert roots_in_field(L.poly, Kp)
        assert roots_in_field(p, NumberField(L.poly))

    def test_a3_gives_quadratic_resolvent(self, cubic_splitting):
        from autrealize.exact import discriminant

        p = minpoly(fixed_field(cubic_splitting, named_perm_group("A3")))
        assert p.degree == 2
        d = discriminant(p)
        # disc lies in -23 * (Q*)^2
        (ratio,) = (d / F(-23)).coords  # a rational of QQ, read as a Fraction
        assert ratio > 0
        num, den = ratio.numerator, ratio.denominator
        import math

        assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def test_full_group_gives_q(self, cubic_splitting):
        y = fixed_field(cubic_splitting, cubic_splitting.galois)
        assert y.is_rational

    def test_degree_formula_and_fixedness(self, cubic_splitting):
        L = cubic_splitting
        for H in (
            PermGroup([], degree=3),
            PermGroup([parse_cycles("(1 2)", 3)], degree=3),
            named_perm_group("A3"),
            L.galois,
        ):
            y = fixed_field(L, H)
            assert minpoly(y).degree * H.order == L.degree
            for perm in H.elements:
                assert apply(L.images[perm], y) == y

    @pytest.mark.parametrize(
        "gens", ["", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 2 3);(1 2)"]
    )
    def test_first_orbit_sum_of_target_degree(self, cubic_splitting, monkeypatch, gens):
        """Over S3, every subgroup gets the first orbit sum whose minimal
        polynomial, by resultants, has degree [L:Q] / |H|, and candidates
        are evaluated at [L:Q] / |H| images, one for each left coset gH,
        not at all of Gal(L)."""
        L = cubic_splitting
        H = PermGroup([parse_cycles(g, 3) for g in gens.split(";") if g], degree=3)
        evaluated = set()
        evaluate = numfield.evaluate
        monkeypatch.setattr(
            numfield, "evaluate", lambda f, m: evaluated.add(m) or evaluate(f, m)
        )
        y = fixed_field(L, H)
        cosets = {frozenset(g * h for h in H.elements) for g in L.images}
        reps = [g for g in L.images if L.images[g] in evaluated]
        assert len(reps) == L.degree // H.order == len(cosets)
        assert {c for c in cosets for g in reps if g in c} == cosets
        assert y == first_orbit_sum(L, H)

    @pytest.mark.parametrize(
        "gens", ["(1 2)(3 4);(1 3)(2 4)", "(1 2)"], ids=["V4", "(1 2)"]
    )
    def test_first_orbit_sum_of_target_degree_s4(self, s4_base, gens):
        """The same over the degree-24 S4 base, for V4 (normal) and for
        a transposition (not normal)."""
        L = s4_base[0]
        H = PermGroup([parse_cycles(g, 4) for g in gens.split(";")], degree=4)
        assert fixed_field(L, H) == first_orbit_sum(L, H)


class TestLemmaCrossCheck:
    def test_field_side_matches_group_side(self, cubic_splitting):
        L = cubic_splitting
        s3 = named_perm_group("S3")
        cases = [
            (PermGroup([], degree=3), 6),
            (PermGroup([parse_cycles("(1 2)", 3)], degree=3), 1),
            (named_perm_group("A3"), 2),
            (s3, 1),
        ]
        for H, expected in cases:
            KH = NumberField(minpoly(fixed_field(L, H)))
            field_side = len(automorphisms(KH).maps)
            group_side = len(aut_group_via_quotient(s3, H)[0])
            assert field_side == group_side == expected
            assert field_side <= KH.degree


#: moduli of the fields the norm tests run over, by name
NORM_FIELDS = {
    "degree 2": (-1, -1, 1),
    "degree 3": (-2, 0, 0, 1),
    "not integral": (F(-1, 3), F(-1, 2), 0, 1),  # Z^3 - Z/2 - 1/3
}


@cache
def norm_field(name):
    if name == "degree 6":
        return splitting_field(X**3 - X - 1).field
    return NumberField(Zpoly(*NORM_FIELDS[name]))


@cache
def trager_inputs():
    """(f, K) for every norm that splitting_field(X^3 - X - 1) asks for:
    its Trager and extension steps over the cubic field (over Q itself f
    is factored with no norm)."""
    seen = []
    norms = numfield.shifted_norms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            numfield, "shifted_norms", lambda f, K: seen.append((f, K)) or norms(f, K)
        )
        splitting_field(X**3 - X - 1)
    return seen


class TestShiftedNorms:
    """Norms from power sums agree with element resultants interpolated
    over Q, for every shift the package tries."""

    SHIFTS = (0, 1, -1, 2)

    @pytest.mark.parametrize("name", [*NORM_FIELDS, "degree 6"])
    @pytest.mark.parametrize(
        "f", [X**3 + X + 1, X**2 - F(1, 2) * X + F(3, 7)], ids=["integral", "rational"]
    )
    def test_rational_f(self, name, f):
        K = norm_field(name)
        norm = shifted_norms(f, K)
        for s in self.SHIFTS:
            assert norm(s) == shifted_norm_by_resultants(f, K, s)

    @pytest.mark.parametrize("name", list(NORM_FIELDS))
    def test_f_over_k(self, name):
        K = norm_field(name)
        z = K.gen()
        f = UniPoly([z * F(1, 3) + 1, z * z - F(5, 2), K.one()], K)
        norm = shifted_norms(f, K)
        for s in self.SHIFTS:
            assert norm(s) == shifted_norm_by_resultants(f, K, s)

    def test_trager_steps_of_splitting_field(self):
        inputs = trager_inputs()
        assert any(not all(c.is_rational for c in f.coeffs) for f, _ in inputs)
        assert {K.degree for _, K in inputs} == {3}
        for f, K in inputs:
            norm = shifted_norms(f, K)
            for s in self.SHIFTS:
                assert norm(s) == shifted_norm_by_resultants(f, K, s)

    def test_linear_f_over_k(self):
        """Norm(X - a) at s = 0, the characteristic polynomial of a."""
        K = norm_field("not integral")
        a = K.element([F(2, 5), -1, F(1, 4)])
        f = UniPoly([-a, K.one()], K)
        assert shifted_norms(f, K)(0) == shifted_norm_by_resultants(f, K, 0)
        # in Q(sqrt 2), a = 3 - 2 sqrt 2 and its conjugate a' = 3 + 2 sqrt 2
        # give (X - a)(X - a') = X^2 - 6X + 1
        K = NumberField(Zpoly(-2, 0, 1))
        f = UniPoly([-K.element([3, -2]), K.one()], K)
        assert shifted_norms(f, K)(0) == X**2 - 6 * X + 1

    def test_not_monic_refused(self, golden):
        with pytest.raises(ValueError, match="monic"):
            shifted_norms(2 * X + 1, golden)
