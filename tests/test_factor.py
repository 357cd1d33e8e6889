import random
import time
from fractions import Fraction as F
from itertools import islice

import pytest

from autrealize import factor
from autrealize.errors import CapExceededError, VerificationError
from autrealize.exact import UniPoly, _is_prime, discriminant, is_squarefree, poly_gcd
from autrealize.factor import (
    _choose_prime,
    _gddf,
    _gfactor_sqf,
    _hensel_lift,
    audit_trail,
    completeness_prime,
    factor_over_Q,
    frobenius_pattern,
    linear_part_mod_p,
    root_mod_p,
    is_irreducible_Q,
    squarefree_part,
    usable_patterns,
)
from autrealize.perm import PermGroup, parse_cycles
from autrealize.pipeline import build_state
from reference import (
    choose_prime_by_factoring,
    completeness_prime_by_pattern,
    expand,
    root_mod_p_by_ddf,
)

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
                fp = factor._gmonic([c % p for c in fi], p)
                if not discriminant(f) % p:
                    assert got is None
                else:
                    split = _gfactor_sqf(_gddf(fp, p), p)
                    assert got == tuple(sorted(len(g) - 1 for g in split))


class TestCompletenessPrime:
    def test_first_prime_with_k_roots(self):
        # X^2 + 1 splits mod p = 1 (mod 4) and is irreducible mod 3 (mod 4)
        assert completeness_prime(X**2 + 1, 2) == 5
        assert completeness_prime(X**2 + 1, 0) == 7
        # a cube map is a bijection mod p = 2 (mod 3)
        assert completeness_prime(X**3 - 2, 1) == 5

    def test_none_once_the_primes_run_out(self, monkeypatch):
        # Q(i) has two automorphisms, so X^2 + 1 never has one root mod p
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 200)
        assert completeness_prime(X**2 + 1, 1) is None

    def test_root_mod_p(self):
        f = X**2 + C(F(1, 3))  # F = 3X^2 + 1
        for p in (7, 13, 19):
            r = root_mod_p(f, p)
            assert (3 * r * r + 1) % p == 0
        assert root_mod_p(X**2 + 1, 7) is None
        assert root_mod_p(X**2 + 1, 5) in (2, 3)


    def test_repeated_factor_raises(self):
        """No prime is usable for a polynomial with a repeated factor; the
        search says so instead of looping."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="squarefree"):
            completeness_prime((X**2 + 1) ** 2, 2)
        with pytest.raises(ValueError, match="squarefree"):
            next(usable_patterns([X**2 + 1, (X - 1) ** 2 * (X + 1)], 5))
        assert time.perf_counter() - start < 1


def rand_squarefree_int(rng, degree):
    """A primitive squarefree integer polynomial of the given degree, the
    product of random factors of degree <= 12."""
    while True:
        f = [1]
        while len(f) - 1 < degree:
            d = min(rng.randrange(1, 13), degree - (len(f) - 1))
            g = [rng.randrange(-9, 10) for _ in range(d)] + [rng.randrange(1, 4)]
            f = factor._imul(f, g)
        _, f = factor._iprimitive(f)
        if is_squarefree(UniPoly([F(c) for c in f])):
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
        out[name] = (build_state(G, 3).q.specialize(t0), G.order, p)
    return out


def assert_root_counts(f, primes=200):
    """deg gcd(X^p - X, F mod p) is the number of ones in the Frobenius
    pattern at each of the first ``primes`` usable primes."""
    for p, (pattern,) in usable_patterns([f], primes):
        assert len(linear_part_mod_p(f, p)) - 1 == pattern.count(1)


class TestCompletenessByRootCount:
    """The completeness search counts roots by one gcd per prime, and finds
    the prime that the Frobenius-pattern definition finds."""

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_same_prime_as_pattern_definition(self, q0s, monkeypatch, name):
        f, order, recorded = q0s[name]
        assert completeness_prime(f, order) == recorded
        assert completeness_prime_by_pattern(f, order) == recorded
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 40)
        for k in (0, 1, 2):
            assert completeness_prime(f, k) == completeness_prime_by_pattern(f, k)
        assert_root_counts(f)

    def test_random_squarefree(self, monkeypatch):
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 40)
        rng = random.Random(37)
        for _ in range(6):
            f = UniPoly([F(c) for c in rand_squarefree_int(rng, rng.randrange(1, 17))])
            for k in range(4):
                assert completeness_prime(f, k) == completeness_prime_by_pattern(f, k)
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
        usable = [
            p
            for p in range(5, recorded + 1)
            if _is_prime(p) and frobenius_pattern(f, p) is not None
        ]
        calls.update(_gddf=0, _gpow_mod=0)
        assert completeness_prime(f, order) == recorded
        assert calls == {"_gddf": 0, "_gpow_mod": len(usable)}
        monkeypatch.setattr(factor, "COMPLETENESS_PRIMES", 30)
        calls.update(_gddf=0, _gpow_mod=0)
        assert completeness_prime(f, order + 1) is None
        assert calls == {"_gddf": 0, "_gpow_mod": 30}

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_root_mod_p_matches_ddf_reference(self, q0s, name):
        f, _, recorded = q0s[name]
        primes = [p for p, _ in usable_patterns([f], 30)] + [recorded]
        for p in primes:
            assert root_mod_p(f, p) == root_mod_p_by_ddf(f, p)
        assert root_mod_p(f, recorded) is not None


class TestGoodPrimes:
    """One discriminant decides which primes are usable, with no
    squarefree gcd per prime."""

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_same_primes_as_per_prime_definition(self, q0s, name):
        f = factor._int_form(q0s[name][0])
        got = list(islice(factor._good_primes([f]), 200))
        usable = [
            (p, [factor._reduce_mod_p(f, p)])
            for p in range(5, got[-1][0] + 1)
            if _is_prime(p)
        ]
        assert got == [(p, fps) for p, fps in usable if fps[0] is not None]

    def test_no_squarefree_gcd_in_completeness_search(self, q0s, monkeypatch):
        calls = []
        gsqf = factor._gsqf_p
        monkeypatch.setattr(factor, "_gsqf_p", lambda a, p: calls.append(p) or gsqf(a, p))
        f, order, recorded = q0s["S3"]
        assert completeness_prime(f, order) == recorded
        assert calls == []


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

    def test_eq_and_hash_follow_the_fields(self):
        f = C(6) * (X - 1) ** 3 * (X**2 + 1) ** 2
        a, b = factor_over_Q(f), factor_over_Q(f)
        assert a == b and hash(a) == hash(b)
        assert a != factor_over_Q(f * 2)

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
    """Audit events and determinism of complete factorization over Q."""

    def test_audit_records_primes(self):
        with audit_trail() as events:
            factor_over_Q(X**4 - C(5) * X**2 + 6)
        assert any(e == "prime" for e, _ in events)
        assert any(e == "lift_exponent" for e, _ in events)

    def test_determinism(self):
        f = (X**3 - X - 1) * (X**4 + 1) * (X - 2)
        a = [(g.coeffs, m) for g, m in factor_over_Q(f).factors]
        b = [(g.coeffs, m) for g, m in factor_over_Q(f).factors]
        assert a == b


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
        for f in cases:
            primes_split.clear()
            got, events = self.choose(_choose_prime, f)
            # equal-degree splitting runs on the chosen prime only
            assert primes_split == [got[0]]
            assert (got, events) == self.choose(choose_prime_by_factoring, f)

    def test_one_ddf_per_candidate_prime(self, primes_ddf):
        """The chosen prime is split from the distinct-degree factorization
        that ranked it, not from a second one."""
        rng = random.Random(31)
        for f in [rand_squarefree_int(rng, rng.randrange(4, 40)) for _ in range(6)]:
            primes_ddf.clear()
            p, _ = _choose_prime(f)
            assert p in primes_ddf
            assert len(primes_ddf) == len(set(primes_ddf))


class TestHenselLift:
    def test_non_coprime_factors_rejected(self):
        # X^2 = X * X mod 5: the two modular factors share the root 0
        with pytest.raises(VerificationError):
            _hensel_lift(5, [0, 0, 1], [[0, 1], [0, 1]], 2)
