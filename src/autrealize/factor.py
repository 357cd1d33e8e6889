"""Factorization and irreducibility over Q.

The engine is classical Zassenhaus: squarefree decomposition (Yun),
factorization modulo a prime (distinct-degree + equal-degree splitting with
a fixed-seed PRNG), multifactor Hensel lifting to a Mignotte-style bound,
and subset recombination with trial division.  Each step has one
implementation shared by complete factorization (``factor_over_Q``) and
the targeted degree search (``find_rational_factors_of_degree``): both
walk the primes of ``_good_primes``, and both test and peel off candidate
factors with ``_trial_divide``.
``yun_squarefree_decomposition`` works over any exact field and is also
the squarefree decomposition used over number fields.

All integer polynomials below are dense ascending coefficient lists.
Chosen primes and lift exponents are logged and recorded in the audit
trail for certificate metadata.
"""

from __future__ import annotations

import contextvars
import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import ceil, isqrt, log

from .errors import CapExceededError, VerificationError
from .exact import (
    UniPoly,
    _gdivrem,
    _ggcd,
    _gmonic,
    _gtrim,
    _ideg,
    _idivides,
    _int_clear,
    _int_content,
    _is_prime,
    is_squarefree,
    poly_divrem,
    poly_gcd,
)

logger = logging.getLogger(__name__)

#: Fixed seed for equal-degree splitting; runs must be reproducible.
EDF_SEED = 0x5EED_CAFE

#: Largest integer-polynomial degree the recombination stage accepts.
DEGREE_CAP = 400

_audit: contextvars.ContextVar = contextvars.ContextVar("factor_audit", default=None)


class audit_trail:
    """Context manager collecting (event, value) pairs from this module."""

    def __enter__(self):
        self.events = []
        self._token = _audit.set(self.events)
        return self.events

    def __exit__(self, *exc):
        _audit.reset(self._token)
        return False


def _record(event, value):
    events = _audit.get()
    if events is not None:
        events.append((event, value))


# -- integer polynomial helpers (ascending lists) --------------------------


def _imul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _iadd(a, b):
    n = max(len(a), len(b))
    return _gtrim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _isub(a, b):
    n = max(len(a), len(b))
    return _gtrim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _itrunc(a, m):
    """Coefficients reduced into the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in a:
        c = c % m
        if c > half:
            c -= m
        out.append(c)
    return _gtrim(out)


def _iprimitive(a):
    c = _int_content(a)
    if c == 0:
        return 0, []
    return c, [x // c for x in a]


def _imax_norm(a):
    return max((abs(c) for c in a), default=0)


def _idivrem_monic(a, b):
    """Division by a monic divisor, exact over Z."""
    a = list(a)
    db = _ideg(b)
    if db < 0:
        raise ZeroDivisionError
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    return _gtrim(q), _gtrim(a[: db])


# -- GF(p) polynomial helpers (ascending lists of ints in [0, p)) -----------


def _gsub(a, b, p):
    n = max(len(a), len(b))
    return _gtrim(
        [
            ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        ]
    )


def _gmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _gtrim([c % p for c in out])


def _gmul_ground(a, c, p):
    c %= p
    return _gtrim([(x * c) % p for x in a])


def _ggcdex(a, b, p):
    """Extended gcd mod p: (s, t, h) with s*a + t*b = h, h monic."""
    r0, r1 = [c % p for c in a], [c % p for c in b]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gdivrem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gsub(s0, _gmul(q, s1, p), p)
        t0, t1 = t1, _gsub(t0, _gmul(q, t1, p), p)
    if not r0:
        raise ValueError("extended gcd of zero polynomials")
    inv = pow(r0[-1], -1, p)
    return (
        _gmul_ground(s0, inv, p),
        _gmul_ground(t0, inv, p),
        _gmul_ground(r0, inv, p),
    )


def _gderiv(a, p):
    return _gtrim([(i * c) % p for i, c in enumerate(a)][1:])


def _gpow_mod(a, e, f, p):
    result = [1]
    base = _gdivrem(a, f, p)[1]
    while e:
        if e & 1:
            result = _gdivrem(_gmul(result, base, p), f, p)[1]
        base = _gdivrem(_gmul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _gsqf_p(a, p):
    return _ideg(_ggcd(a, _gderiv(a, p), p)) == 0


def _gddf(f, p):
    """Distinct-degree factorization of monic squarefree f mod p."""
    out = []
    h = [0, 1]
    k = 1
    f = list(f)
    while _ideg(f) >= 2 * k:
        h = _gpow_mod(h, p, f, p)
        g = _ggcd(_gsub(h, [0, 1], p), f, p)
        if _ideg(g) > 0:
            out.append((g, k))
            f = _gdivrem(f, g, p)[0]
            h = _gdivrem(h, f, p)[1]
        k += 1
    if _ideg(f) > 0:
        out.append((f, _ideg(f)))
    return out


def _gedf(f, k, p, rng):
    """Equal-degree splitting (Cantor-Zassenhaus) for odd p."""
    n = _ideg(f)
    if n == k:
        return [f]
    exponent = (p**k - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _gtrim(a)
        if _ideg(a) < 1:
            continue
        g = _ggcd(a, f, p)
        if 0 < _ideg(g) < n:
            return _gedf(g, k, p, rng) + _gedf(_gdivrem(f, g, p)[0], k, p, rng)
        b = _gpow_mod(a, exponent, f, p)
        g = _ggcd(_gsub(b, [1], p), f, p)
        if 0 < _ideg(g) < n:
            return _gedf(g, k, p, rng) + _gedf(_gdivrem(f, g, p)[0], k, p, rng)


def frobenius_pattern(f: UniPoly, p):
    """Sorted degrees of the irreducible factors of F mod p, with F the
    primitive integer multiple of the rational polynomial f, or None when
    p divides lc(F) or F is not squarefree mod p.

    For irreducible f and a prime p where the pattern exists, these are
    the residue degrees of the primes above p in Q[X]/(F) (Dedekind-Kummer),
    so two fields whose patterns differ at one p are not isomorphic.
    """
    _, F = _iprimitive(_int_clear(f)[0])
    if F[-1] % p == 0:
        return None
    fp = _gmonic([c % p for c in F], p)
    if not _gsqf_p(fp, p):
        return None
    return tuple(sorted(k for g, k in _gddf(fp, p) for _ in range(_ideg(g) // k)))


def _gfactor_sqf(f, p, seed=EDF_SEED):
    """Factor monic squarefree f mod p into monic irreducibles."""
    rng = random.Random(seed)
    out = []
    for g, k in _gddf(_gmonic(f, p), p):
        out.extend(_gedf(g, k, p, rng))
    out.sort(key=lambda h: (len(h), h))
    return out


# -- Hensel lifting ---------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m**2."""
    M = m * m
    e = _itrunc(_isub(f, _imul(g, h)), M)
    q, r = _idivrem_monic(_imul(s, e), h)
    q, r = _itrunc(q, M), _itrunc(r, M)
    u = _iadd(_imul(t, e), _imul(q, g))
    G = _itrunc(_iadd(g, u), M)
    H = _itrunc(_iadd(h, r), M)
    u = _iadd(_imul(s, G), _imul(t, H))
    b = _itrunc(_isub(u, [1]), M)
    c, d = _idivrem_monic(_imul(s, b), H)
    c, d = _itrunc(c, M), _itrunc(d, M)
    u = _iadd(_imul(t, b), _imul(c, G))
    S = _itrunc(_isub(s, d), M)
    T = _itrunc(_isub(t, u), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Lift monic pairwise-coprime factors of f mod p to mod p**l.

    f = lc(f) * prod(factors) (mod p); the returned factors are monic and
    satisfy the same identity mod p**l.
    """
    r = len(factors)
    lc = f[-1]
    if r == 1:
        inv = pow(lc, -1, p**l)
        return [_itrunc([c * inv for c in f], p**l)]
    m = p
    k = r // 2
    d = int(ceil(log(l, 2))) if l > 1 else 1

    g = [lc % p]
    for fi in factors[:k]:
        g = _gmul(g, [c % p for c in fi], p)
    h = [c % p for c in factors[k]]
    for fi in factors[k + 1 :]:
        h = _gmul(h, [c % p for c in fi], p)

    s, t, one = _ggcdex(g, h, p)
    if one != [1]:
        raise VerificationError(f"modular factors are not coprime mod {p}")

    g = _itrunc(g, p)
    h = _itrunc(h, p)
    s = _itrunc(s, p)
    t = _itrunc(t, p)
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


# -- Zassenhaus -------------------------------------------------------------


def _mignotte_bound(f):
    n = _ideg(f)
    a = _imax_norm(f)
    b = abs(f[-1])
    return (isqrt(n + 1) + 1) * 2**n * a * b


#: Consecutive unusable primes after which the input is checked for a
#: repeated factor (no prime can then ever be usable).
BAD_PRIME_RUN = 64


def _good_primes(f):
    """Yield (p, f mod p made monic) for the primes p = 5, 7, 11, ... that
    do not divide lc(f) and keep f squarefree mod p.

    A squarefree f has only finitely many unusable primes; after
    BAD_PRIME_RUN consecutive ones, f is checked exactly and a ValueError
    is raised if it has a repeated factor.
    """
    bad = 0
    for p in count(5, 2):
        if not _is_prime(p):
            continue
        fp = _gmonic([c % p for c in f], p) if f[-1] % p else None
        if fp and _gsqf_p(fp, p):
            bad = 0
            yield p, fp
            continue
        bad += 1
        if bad == BAD_PRIME_RUN:
            if not is_squarefree(UniPoly([Fraction(c) for c in f])):
                raise ValueError("expects a squarefree polynomial")


def _select_prime(f, max_candidates=8, good_enough=6):
    """Pick a usable prime p (see _good_primes) for f.

    Among the first few usable primes, the one producing the fewest
    modular factors is chosen (ties broken towards smaller p); at desk
    scale this keeps subset recombination tractable.
    """
    candidates = []
    for p, fp in _good_primes(f):
        factors = _gfactor_sqf(fp, p)
        candidates.append((len(factors), p, factors))
        if len(factors) <= good_enough or len(candidates) >= max_candidates:
            break
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, best_p, best_factors = candidates[0]
    logger.debug("factor mod p: chose p=%d with %d modular factors", best_p, len(best_factors))
    _record("prime", best_p)
    return best_p, best_factors


def _lift_factors(f, p, modular):
    B = _mignotte_bound(f)
    l = int(ceil(log(2 * B + 1, p)))
    _record("lift_exponent", l)
    logger.debug("Hensel lift to p**%d", l)
    lifted = _hensel_lift(p, f, [list(m) for m in modular], l)
    return lifted, p**l


def _subsets_with_degree_sum(degrees, indices, target):
    """Yield index tuples (by increasing size, lexicographic) whose degrees
    sum to target."""
    for size in range(1, len(indices) + 1):
        for combo in combinations(indices, size):
            if sum(degrees[i] for i in combo) == target:
                yield combo


def _trial_divide(f, lifted, combo, pl):
    """Test whether the lifted factors in ``combo`` (times lc(f)) give a
    true factor of the primitive f; returns (factor, cofactor) as primitive
    integer polynomials, or None."""
    b = f[-1]
    # cheap test: symmetric product of constant terms must divide b * f[0]
    q = b
    for i in combo:
        q = q * lifted[i][0] % pl
    if q > pl // 2:
        q -= pl
    if q and (b * f[0]) % q != 0:
        return None
    G = [b]
    for i in combo:
        G = _imul(G, lifted[i])
    G = _itrunc(G, pl)
    _, G = _iprimitive(G)
    if not G:
        return None
    quot = _idivides(G, f)
    if quot is None:
        return None
    return G, quot


def _zassenhaus(f):
    """Factor a primitive squarefree integer polynomial with lc > 0."""
    n = _ideg(f)
    if n <= 0:
        return []
    if n == 1:
        return [list(f)]
    if n > DEGREE_CAP:
        raise CapExceededError(
            f"degree {n} exceeds the factorization cap {DEGREE_CAP}"
        )
    p, modular = _select_prime(f)
    lifted, pl = _lift_factors(f, p, modular)

    remaining = list(range(len(lifted)))
    factors = []
    size = 1
    while 2 * size <= len(remaining):
        for combo in combinations(remaining, size):
            hit = _trial_divide(f, lifted, combo, pl)
            if hit is not None:
                G, f = hit
                factors.append(G)
                remaining = [i for i in remaining if i not in combo]
                break
        else:
            size += 1
    factors.append(f)
    return [g for g in factors if _ideg(g) > 0]


def _find_monic_factors_of_degree(f, target):
    """All monic irreducible rational factors of the given degree.

    ``f`` is a primitive squarefree integer polynomial.  Complete: every
    irreducible factor of degree ``target`` is found (each corresponds to a
    unique subset of the Hensel-lifted modular factors).  Returns UniPoly
    factors over Q, monic.
    """
    n = _ideg(f)
    if n < target:
        return []
    if n == target:
        return [UniPoly([Fraction(c) for c in f]).monic()]
    if n > DEGREE_CAP:
        raise CapExceededError(
            f"degree {n} exceeds the factorization cap {DEGREE_CAP}"
        )
    # degree-multiset feasibility over several primes: a rational factor of
    # degree `target` reduces mod every good prime to a sub-multiset of the
    # modular factor degrees summing to `target`.
    candidates = []
    for p, fp in _good_primes(f):
        factors = _gfactor_sqf(fp, p)
        if not _degree_sum_feasible([_ideg(g) for g in factors], target):
            _record("prime_infeasible", p)
            return []
        candidates.append((len(factors), p, factors))
        if len(factors) <= 6 or len(candidates) >= 10:
            break
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, best_p, modular = candidates[0]
    _record("prime", best_p)
    lifted, pl = _lift_factors(f, best_p, modular)

    remaining = list(range(len(lifted)))
    degrees = {i: _ideg(lifted[i]) for i in remaining}
    out = []
    progress = True
    while progress:
        progress = False
        for combo in _subsets_with_degree_sum(degrees, remaining, target):
            hit = _trial_divide(f, lifted, combo, pl)
            if hit is None or _ideg(hit[0]) != target:
                continue
            G, f = hit
            out.append(UniPoly([Fraction(c) for c in G]).monic())
            remaining = [i for i in remaining if i not in combo]
            if _ideg(f) == target:
                out.append(UniPoly([Fraction(c) for c in f]).monic())
                remaining = []
            progress = bool(remaining)
            break
    return out


def _degree_sum_feasible(degs, target):
    feasible = {0}
    for d in degs:
        feasible |= {s + d for s in feasible if s + d <= target}
    return target in feasible


# -- public API over Q ------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor_i ** mult_i) == input, factors monic irreducible."""

    unit: Fraction
    factors: tuple  # of (UniPoly, int)

    @property
    def is_irreducible(self):
        return (
            len(self.factors) == 1
            and self.factors[0][1] == 1
            and self.factors[0][0].degree >= 1
        )


def yun_squarefree_decomposition(f: UniPoly):
    """Yun's algorithm over any exact field of characteristic 0 (Q or a
    number field): returns list of (monic squarefree g_i, multiplicity i)."""
    f = f.monic()
    out = []
    d = f.derivative()
    a = poly_gcd(f, d)
    b = poly_divrem(f, a)[0]
    c = poly_divrem(d, a)[0]
    i = 1
    while b.degree >= 1:
        z = c - b.derivative()
        if z.is_zero:
            out.append((b.monic(), i))
            break
        g = poly_gcd(b, z)
        if g.degree >= 1:
            out.append((g, i))
        b = poly_divrem(b, g)[0]
        c = poly_divrem(z, g)[0]
        i += 1
    return out


def factor_over_Q(f: UniPoly) -> Factorization:
    """Complete factorization of a nonzero rational polynomial."""
    if f.field is not None:
        raise ValueError("factor_over_Q expects rational coefficients")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit, ())
    pairs = []
    for g, mult in yun_squarefree_decomposition(f):
        fi = _int_clear(g)[0]
        _, fi = _iprimitive(fi)
        if fi[-1] < 0:
            fi = [-c for c in fi]
        for part in _zassenhaus(fi):
            mono = UniPoly([Fraction(c) for c in part], f.var).monic()
            pairs.append((mono, mult))
    pairs.sort(key=lambda p: (p[0].degree, p[0].coeffs))
    return Factorization(unit, tuple(pairs))


def is_irreducible_Q(f: UniPoly) -> bool:
    """True iff f is irreducible over Q (degree >= 1 required)."""
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    if f.degree == 1:
        return True
    # fast negative path: small rational roots (divisor scan kept cheap)
    fi = _int_clear(f)[0]
    _, fi = _iprimitive(fi)
    if fi[0] == 0:
        return False
    if abs(fi[0]) <= 10**6 and abs(fi[-1]) <= 10**6:
        for num in _divisors(abs(fi[0])):
            for den in _divisors(abs(fi[-1])):
                for r in (Fraction(num, den), Fraction(-num, den)):
                    if not f.eval(r):
                        return False
    return factor_over_Q(f).is_irreducible


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.one(f.var, f.field)
    g = poly_gcd(f, f.derivative())
    return poly_divrem(f, g)[0].monic()


def find_rational_factors_of_degree(f: UniPoly, target: int):
    """Monic irreducible degree-``target`` factors of a squarefree rational
    polynomial; complete.  Used for targeted norm-factor searches.  Raises
    ValueError when the prime search shows the input is not squarefree."""
    if f.field is not None:
        raise ValueError("expects rational coefficients")
    fi = _int_clear(f)[0]
    _, fi = _iprimitive(fi)
    if fi[-1] < 0:
        fi = [-c for c in fi]
    return _find_monic_factors_of_degree(fi, target)
