import random
import time
from fractions import Fraction as F
from itertools import islice, takewhile

import pytest

from autrealize import factor
from autrealize.errors import CapExceededError, VerificationError
from autrealize.exact import UniPoly, _iprimitive, discriminant, poly_gcd
from autrealize.factor import (
    Reductions,
    _choose_prime,
    _gddf,
    _gfactor_sqf,
    _hensel_lift,
    _is_prime,
    audit_trail,
    completeness_prime,
    factor_over_Q,
    is_irreducible_Q,
)
from autrealize.perm import PermGroup, parse_cycles
from autrealize.pipeline import build_state
from reference import (
    choose_prime_by_factoring,
    completeness_prime_by_pattern,
    ddf_by_gcd,
    ddf_degrees,
    distinct_parts,
    expand,
    hensel_lift_over_Z,
    root_mod_p_by_ddf,
    root_product_by_ddf,
    squarefree_by_euclid,
    usable_primes,
)

X = UniPoly.gen()
ONE = UniPoly.one()


def C(v):
    return UniPoly.constant(F(v))


def rand_irreducible(rng, max_deg=4, bound=9):
    while True:
        deg = rng.randrange(1, max_deg + 1)
        coeffs = [F(rng.randrange(-bound, bound + 1)) for _ in range(deg)] + [F(1)]
        f = UniPoly(coeffs)
        if is_irreducible_Q(f):
            return f


def pattern(f, p):
    return Reductions(f).pattern(p)


class TestFrobeniusPattern:
    def test_gaussian_integers(self):
        assert pattern(X**2 + 1, 5) == (1, 1)
        assert pattern(X**2 + 1, 7) == (2,)

    def test_unusable_primes(self):
        # F = 5X^3 + X + 1: p = 5 divides its leading coefficient
        f = X**3 + X * F(1, 5) + C(F(1, 5))
        assert pattern(f, 5) is None
        assert pattern(f, 7) is not None
        # disc(X^3 + X + 1) = -31: a repeated factor mod 31
        assert pattern(X**3 + X + 1, 31) is None

    def test_matches_complete_factorization_mod_p(self):
        rng = random.Random(83)
        for _ in range(30):
            f = rand_irreducible(rng, max_deg=8)
            fi = [c.num[0] for c in f.coeffs]  # integral: each den is 1
            for p in (5, 7, 11, 13, 101):
                got = pattern(f, p)
                fp = factor._gmonic([c % p for c in fi], p)
                if not discriminant(f).num[0] % p:  # an integer: f is monic, integral
                    assert got is None
                else:
                    split = _gfactor_sqf(_gddf(fp, p), p)
                    assert got == tuple(sorted(len(g) - 1 for g in split))


def complete(f, k, screen=None):
    """completeness_prime on a fresh record of f."""
    return completeness_prime(Reductions(f), k, screen)


class TestCompletenessPrime:
    def test_first_prime_with_k_roots(self):
        # X^2 + 1 splits mod p = 1 (mod 4) and is irreducible mod 3 (mod 4)
        assert complete(X**2 + 1, 2) == 5
        # 7 leaves X^2 + 1 without a root, but the bound reduces modulo a
        # degree-1 prime above p, so no prime serves k = 0
        assert complete(X**2 + 1, 0) is None
        # a cube map is a bijection mod p = 2 (mod 3)
        assert complete(X**3 - 2, 1) == 5

    def test_none_once_the_primes_run_out(self, monkeypatch):
        # Q(i) has two automorphisms, so X^2 + 1 never has one root mod p
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 200)
        assert complete(X**2 + 1, 1) is None

    def test_root_mod_p(self):
        red = Reductions(X**2 + C(F(1, 3)))  # F = 3X^2 + 1
        for p in (7, 13, 19):
            r = red.root(p)
            assert (3 * r * r + 1) % p == 0
        assert red.root(3) is None  # 3 divides lc(F)
        assert Reductions(X**2 + 1).root(7) is None
        assert Reductions(X**2 + 1).root(5) in (2, 3)

    def test_repeated_factor_raises(self):
        """No prime is usable for a polynomial with a repeated factor; the
        search says so instead of looping."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="squarefree"):
            complete((X**2 + 1) ** 2, 2)
        with pytest.raises(ValueError, match="squarefree"):
            Reductions(X**2 + 1).primes(Reductions((X - 1) ** 2 * (X + 1)))
        with pytest.raises(ValueError, match="zero polynomial"):
            Reductions(UniPoly.zero())
        assert time.perf_counter() - start < 1


def as_poly(f):
    """The rational polynomial with integer coefficients f."""
    return UniPoly([F(c) for c in f])


def rand_squarefree_int(rng, degree):
    """A primitive squarefree integer polynomial of the given degree, the
    product of random factors of degree <= 12."""
    while True:
        f = ONE
        while f.degree < degree:
            d = min(rng.randrange(1, 13), degree - f.degree)
            g = [rng.randrange(-9, 10) for _ in range(d)] + [rng.randrange(1, 4)]
            f *= as_poly(g)
        _, f = _iprimitive([c.num[0] for c in f.coeffs])  # integral
        if Reductions(as_poly(f)).lc_disc:
            return f


@pytest.fixture(scope="module")
def q0s():
    """The accepted defining polynomials with their |G| and recorded
    completeness primes: S3 at t0 = 1 and C3 at t0 = 0."""
    out = {}
    for name, gens, t0, p in [
        ("S3", ("(1 2 3)", "(1 2)"), 1, 167),
        ("C3", ("(1 2 3)",), 0, 173),
    ]:
        G = PermGroup([parse_cycles(g, 3) for g in gens], degree=3)
        out[name] = (build_state(G).specialize(t0), G.order, p)
    return out


def assert_root_counts(f, primes=200):
    """deg gcd(X^p - X, F mod p) is the number of ones in the Frobenius
    pattern at each of the first ``primes`` usable primes."""
    red = Reductions(f)
    for p in islice(red.primes(), primes):
        assert len(red.roots(p)) - 1 == red.pattern(p).count(1)


class TestCompletenessByRootCount:
    """The completeness search counts roots by one gcd per prime, and finds
    the prime that the Frobenius-pattern definition finds."""

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_same_prime_as_pattern_definition(self, q0s, monkeypatch, name):
        f, order, recorded = q0s[name]
        assert complete(f, order) == recorded
        assert completeness_prime_by_pattern(f, order) == recorded
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 40)
        assert complete(f, 0) is None
        for k in (1, 2):
            assert complete(f, k) == completeness_prime_by_pattern(f, k)

    def test_random_squarefree(self, monkeypatch):
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 40)
        rng = random.Random(37)
        for _ in range(6):
            f = as_poly(rand_squarefree_int(rng, rng.randrange(1, 17)))
            assert complete(f, 0) is None
            for k in range(1, 4):
                assert complete(f, k) == completeness_prime_by_pattern(f, k)
            assert_root_counts(f)

    @pytest.fixture
    def calls(self, monkeypatch):
        """How often ``factor._gddf`` and ``factor._gpow_mod`` run."""
        seen = {"_gddf": 0, "_gpow_mod": 0}
        for name in seen:
            wrapped = getattr(factor, name)

            def counted(*args, name=name, wrapped=wrapped):
                seen[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(factor, name, counted)
        return seen

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_one_power_per_usable_prime_and_no_ddf(self, q0s, monkeypatch, calls, name):
        f, order, recorded = q0s[name]
        usable = list(takewhile(lambda p: p <= recorded, usable_primes(f)))
        calls.update(_gddf=0, _gpow_mod=0)
        assert complete(f, order) == recorded
        assert calls == {"_gddf": 0, "_gpow_mod": len(usable)}
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 30)
        calls.update(_gddf=0, _gpow_mod=0)
        assert complete(f, order + 1) is None
        assert calls == {"_gddf": 0, "_gpow_mod": 30}

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_root_mod_p_matches_ddf_reference(self, q0s, name):
        f, _, recorded = q0s[name]
        red = Reductions(f)
        primes = list(islice(red.primes(), 30)) + [recorded]
        for p in primes:
            assert red.root(p) == root_mod_p_by_ddf(f, p)
        assert red.root(recorded) is not None


class TestGoodPrimes:
    """One discriminant decides which primes are usable: the record's
    primes, root products and patterns are those of the per-prime
    squarefree-gcd definition."""

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_same_primes_as_per_prime_definition(self, q0s, name):
        f = q0s[name][0]
        red = Reductions(f)
        primes = list(islice(red.primes(), 200))
        assert primes == list(islice(usable_primes(f), 200))
        for p in primes:
            ddf = ddf_by_gcd(f, p)
            assert red.roots(p) == root_product_by_ddf(ddf)
            assert red.pattern(p) == ddf_degrees(ddf)
        # a prime the record passes over has no pattern there either
        skipped = [p for p in range(5, primes[-1]) if _is_prime(p) and p not in primes]
        assert skipped and all(red.pattern(p) is None for p in skipped)

    def test_no_squarefree_gcd_in_completeness_search(self, q0s, monkeypatch):
        """The search takes one gcd mod p per usable prime, the root
        product's; none decides whether F is squarefree mod p."""
        f, order, recorded = q0s["S3"]
        usable = list(takewhile(lambda p: p <= recorded, usable_primes(f)))
        calls = []
        ggcd = factor._ggcd
        monkeypatch.setattr(factor, "_ggcd", lambda a, b, p: calls.append(p) or ggcd(a, b, p))
        assert complete(f, order) == recorded
        assert calls == usable


class TestFactorOverQ:
    def test_difference_factorization(self):
        fac = factor_over_Q(X**4 - C(5) * X**2 + 6)
        assert [g.coeffs for g in fac] == [(F(-3), F(0), F(1)), (F(-2), F(0), F(1))]

    def test_cubic_irreducible(self):
        assert factor_over_Q(X**3 + X + 1) == (X**3 + X + 1,)

    def test_x4_plus_1_irreducible(self):
        assert factor_over_Q(X**4 + 1) == (X**4 + 1,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_Q(UniPoly.zero())

    def test_repeated_factor_refused(self):
        """The input must be squarefree; a repeated factor is refused by
        the record (lc(F) * disc(F) = 0) before any prime is tried."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="squarefree"):
            factor_over_Q((X**2 + 1) ** 2 * (X - 1))
        assert time.perf_counter() - start < 1

    def test_round_trips(self):
        rng = random.Random(11)
        for _ in range(200):
            count = rng.randrange(1, 4)
            parts, prod = distinct_parts(lambda: rand_irreducible(rng), count)
            prod = prod * F(rng.choice([1, -1, 2, 3, -5]))
            fac = factor_over_Q(prod)
            assert expand(fac) == prod.monic()
            assert sorted(g.coeffs for g in fac) == sorted(p.coeffs for p in parts)

    def test_factors_stay_irreducible(self):
        rng = random.Random(12)
        for _ in range(20):
            _, f = distinct_parts(lambda: rand_irreducible(rng), 2)
            for g in factor_over_Q(f):
                assert is_irreducible_Q(g)


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible_Q(X**3 + X + 1)
        assert not is_irreducible_Q(X**3 - X)
        assert is_irreducible_Q(X**2 - X - 1)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible_Q(C(5))


class TestSquarefreeCriterion:
    """A polynomial is squarefree iff lc(F) * disc(F) != 0 on its record,
    the one test every squarefree decision reads."""

    def test_is_squarefree(self):
        assert Reductions(X**3 + X + C(1)).lc_disc
        assert Reductions(C(7)).lc_disc
        assert not Reductions((X - C(1)) ** 2 * (X + C(2))).lc_disc

    def test_random_agrees_with_euclid(self):
        """Products of distinct non-monic parts, every other one times a
        part again, scaled by a rational content: the record's test
        agrees with gcd(f, f') = 1 by the textbook Euclid."""
        rng = random.Random(31)

        def part():
            coeffs = [F(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 4))]
            return UniPoly(coeffs + [F(rng.randrange(1, 4))])

        for i in range(60):
            parts, f = distinct_parts(part, rng.randrange(1, 4))
            if i % 2:
                f = f * rng.choice(parts)
            f = f * C(F(rng.choice([-1, 1]) * rng.randrange(1, 30), rng.randrange(1, 30)))
            assert squarefree_by_euclid(f) == (i % 2 == 0)
            assert bool(Reductions(f).lc_disc) == squarefree_by_euclid(f)


class TestSquarefreePart:
    """A polynomial has a squarefree part equal to itself, gcd(f, f') = 1,
    exactly when its discriminant is nonzero."""

    def test_disc_cross_check(self):
        rng = random.Random(13)
        for _ in range(40):
            coeffs = [F(rng.randrange(-6, 7)) for _ in range(rng.randrange(2, 6))]
            coeffs.append(F(1))
            f = UniPoly(coeffs)
            sqf = poly_gcd(f, f.derivative()).degree == 0
            assert (discriminant(f) != 0) == sqf


class TestDegreeCap:
    def test_cap_error(self, monkeypatch):
        """Past the cap no discriminant is taken, for it costs cubic time
        in the degree."""

        def refuse(*_):
            raise AssertionError("discriminant taken before the degree cap check")

        monkeypatch.setattr(factor, "discriminant", refuse)
        f = X**401 + X + 1
        with pytest.raises(CapExceededError, match="degree 401"):
            factor_over_Q(f)
        for red in (None, Reductions(f)):
            with pytest.raises(CapExceededError, match="degree 401"):
                is_irreducible_Q(f, reductions=red)


class TestTargetedSearch:
    """Audit events and determinism of complete factorization over Q."""

    def test_audit_records_primes(self):
        with audit_trail() as events:
            factor_over_Q(X**4 - C(5) * X**2 + 6)
        assert any(e == "prime" for e, _ in events)
        assert any(e == "lift_exponent" for e, _ in events)

    def test_determinism(self):
        f = (X**3 - X - 1) * (X**4 + 1) * (X - 2)
        assert factor_over_Q(f) == factor_over_Q(f)


class TestPrimeChoice:
    """The prime chosen from distinct-degree patterns is the one complete
    factorization mod every candidate chose, with the same modular
    factors and audit events."""

    @pytest.fixture
    def primes_split(self, monkeypatch):
        """The primes at which ``factor._gfactor_sqf`` runs, in order."""
        split = factor._gfactor_sqf
        primes = []
        monkeypatch.setattr(
            factor, "_gfactor_sqf", lambda ddf, p: primes.append(p) or split(ddf, p)
        )
        return primes

    @pytest.fixture
    def primes_ddf(self, monkeypatch):
        """The primes at which ``factor._gddf`` runs, in order."""
        ddf = factor._gddf
        primes = []
        monkeypatch.setattr(
            factor, "_gddf", lambda fp, p: primes.append(p) or ddf(fp, p)
        )
        return primes

    @staticmethod
    def choose(choice, f):
        with audit_trail() as events:
            got = choice(f)
        return got, events

    def test_same_choice_as_complete_factorization(self, primes_split):
        rng = random.Random(29)
        cases = [rand_squarefree_int(rng, d) for d in (3, 54)]
        cases += [rand_squarefree_int(rng, rng.randrange(4, 54)) for _ in range(8)]
        for f in map(as_poly, cases):
            primes_split.clear()
            got, events = self.choose(lambda f: _choose_prime(Reductions(f)), f)
            # equal-degree splitting runs on the chosen prime only
            assert primes_split == [got[0]]
            assert (got, events) == self.choose(choose_prime_by_factoring, f)

    def test_one_ddf_per_candidate_prime(self, primes_ddf):
        """The chosen prime is split from the distinct-degree factorization
        that ranked it, not from a second one."""
        rng = random.Random(31)
        for f in [rand_squarefree_int(rng, rng.randrange(4, 40)) for _ in range(6)]:
            primes_ddf.clear()
            p, _ = _choose_prime(Reductions(as_poly(f)))
            assert p in primes_ddf
            assert len(primes_ddf) == len(set(primes_ddf))


class TestHenselLift:
    def test_non_coprime_factors_rejected(self):
        # X^2 = X * X mod 5: the two modular factors share the root 0
        with pytest.raises(VerificationError):
            _hensel_lift(5, [0, 0, 1], [[0, 1], [0, 1]], 2)

    @staticmethod
    def assert_lifts_as_over_Z(f, ls):
        """Lifting mod p**k gives the factors that lifting over Z gives,
        at the Zassenhaus prime of the primitive integer polynomial f."""
        p, modular = _choose_prime(Reductions(as_poly(f)))
        for l in ls:
            assert _hensel_lift(p, f, modular, l) == hensel_lift_over_Z(
                p, f, modular, l
            )

    def test_random_squarefree(self):
        rng = random.Random(43)
        for _ in range(12):
            f = rand_squarefree_int(rng, rng.randrange(2, 31))
            self.assert_lifts_as_over_Z(f, (1, 2, 3, 5, 8, 17))

    def test_no_step_past_p_to_the_l(self, monkeypatch):
        """Each step lifts mod p**a to mod p**min(2a, l), so no step
        computes modulo more than p**l (l = 17 once reached p**32)."""
        f = [1]
        for k in range(1, 9):  # times X - k
            f = [a - k * b for a, b in zip([0, *f], [*f, 0])]
        p, modular = _choose_prime(Reductions(as_poly(f)))
        assert len(modular) == 8
        moduli = []
        gmul = factor._gmul
        monkeypatch.setattr(
            factor, "_gmul", lambda a, b, m: moduli.append(m) or gmul(a, b, m)
        )
        for l in (2, 5, 17):
            moduli.clear()
            assert _hensel_lift(p, f, modular, l) == hensel_lift_over_Z(
                p, f, modular, l
            )
            assert max(moduli) == p**l

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_defining_polynomials(self, q0s, name):
        red = Reductions(q0s[name][0])
        with audit_trail() as events:
            assert is_irreducible_Q(q0s[name][0], reductions=red)
        (l,) = [v for e, v in events if e == "lift_exponent"]
        self.assert_lifts_as_over_Z(red.F, (1, l))


class TestLiftExponent:
    def test_exceeds_twice_the_bound_just_past_a_power(self, monkeypatch):
        """With 2B + 1 = p^40 + 2 the lift goes to p^41, the least power
        above 2B; a floating-point log of 2B + 1 rounds to 40."""
        f = X**4 - C(5) * X**2 + 6
        p, _ = _choose_prime(Reductions(f))
        bound = (p**40 + 1) // 2
        monkeypatch.setattr(factor, "_mignotte_bound", lambda F: bound)
        with audit_trail() as events:
            fac = factor_over_Q(f)
        (l,) = [v for e, v in events if e == "lift_exponent"]
        assert p**l > 2 * bound
        assert fac == (X**2 - 3, X**2 - 2)
