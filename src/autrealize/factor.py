"""Factorization and irreducibility over Q.

The engine is classical Zassenhaus: squarefree decomposition (Yun),
factorization modulo a prime (distinct-degree + equal-degree splitting with
a fixed-seed PRNG), multifactor Hensel lifting to a Mignotte-style bound,
and subset recombination with trial division.  The prime is chosen by the
factor degrees that the distinct-degree factorization gives (von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 14); equal-degree splitting
runs on the chosen prime only.  The same distinct-degree factorization
gives the Frobenius patterns that prove two fields distinct.  A field's
automorphism count is bounded by its first step alone: the degree of
gcd(X^p - X, f mod p) is the number of roots of f mod p
(``completeness_prime``, which a caller can screen with a polynomial of
smaller degree that must have a root wherever f does), and splitting
that gcd gives one root (``root_mod_p``).
``yun_squarefree_decomposition`` works over any exact field and is also
the squarefree decomposition used over number fields.

All integer polynomials below are dense ascending coefficient lists.
Chosen primes and lift exponents are recorded in the audit trail for
certificate metadata.
"""

from __future__ import annotations

import contextvars
import random
from fractions import Fraction
from itertools import combinations, count, islice
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

#: Fixed seed for equal-degree splitting; runs must be reproducible.
EDF_SEED = 0x5EED_CAFE

#: Largest integer-polynomial degree the recombination stage accepts.
DEGREE_CAP = 400

#: Usable primes the Zassenhaus prime choice ranks, at most.
ZASSENHAUS_PRIMES = 8

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
    """a**e mod (f, p), left to right, so that a = X costs one shift and
    one reduction step per set bit of e."""
    base = _gdivrem(a, f, p)[1]
    result = [1]
    for bit in bin(e)[2:]:
        result = _gdivrem(_gmul(result, result, p), f, p)[1]
        if bit == "1":
            result = _gdivrem(_gmul(result, base, p), f, p)[1]
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


def _ddf_degrees(ddf):
    """Sorted degrees of the irreducible factors that a distinct-degree
    factorization describes: each (g, k) holds deg(g)/k factors of degree k."""
    return tuple(sorted(k for g, k in ddf for _ in range(_ideg(g) // k)))


def _linear_part(fp, p):
    """gcd(X^p - X, fp): the product of the distinct linear factors of the
    monic fp mod p, whose degree is the number of roots of fp mod p.  This
    is the k = 1 step of ``_gddf``, without the steps after it."""
    return _ggcd(_gsub(_gpow_mod([0, 1], p, fp, p), [0, 1], p), fp, p)


def _int_form(f: UniPoly):
    """F, the primitive integer multiple of the rational polynomial f."""
    return _iprimitive(_int_clear(f)[0])[1]


def _reduce_mod_p(F, p):
    """F mod p made monic, or None when p divides lc(F) or F is not
    squarefree mod p."""
    if F[-1] % p == 0:
        return None
    fp = _gmonic([c % p for c in F], p)
    return fp if _gsqf_p(fp, p) else None


#: Consecutive unusable primes after which the input is checked for a
#: repeated factor (no prime can then ever be usable).
BAD_PRIME_RUN = 64


def _good_primes(Fs):
    """Yield (p, [F mod p made monic for F in Fs]) for the primes
    p = 5, 7, 11, ... at which every integer polynomial F in Fs is usable:
    p does not divide lc(F) and F stays squarefree mod p.

    A squarefree F has only finitely many unusable primes; after
    BAD_PRIME_RUN consecutive ones, each F is checked exactly and a
    ValueError is raised if one has a repeated factor.
    """
    bad = 0
    for p in count(5, 2):
        if not _is_prime(p):
            continue
        fps = [_reduce_mod_p(F, p) for F in Fs]
        if None not in fps:
            bad = 0
            yield p, fps
            continue
        bad += 1
        if bad == BAD_PRIME_RUN:
            for F in Fs:
                if not is_squarefree(UniPoly([Fraction(c) for c in F])):
                    raise ValueError("expects a squarefree polynomial")


def frobenius_pattern(f: UniPoly, p):
    """Sorted degrees of the irreducible factors of F mod p, with F the
    primitive integer multiple of the rational polynomial f, or None when
    p divides lc(F) or F is not squarefree mod p.

    For irreducible f and a prime p where the pattern exists, these are
    the residue degrees of the primes above p in Q[X]/(F) (Dedekind-Kummer),
    so two fields whose patterns differ at one p are not isomorphic.
    """
    fp = _reduce_mod_p(_int_form(f), p)
    return None if fp is None else _ddf_degrees(_gddf(fp, p))


def linear_part_mod_p(f: UniPoly, p):
    """gcd(X^p - X, F mod p), the monic product of the distinct linear
    factors of F mod p, or None when p divides lc(F) or F is not
    squarefree mod p (F as in ``frobenius_pattern``).  Its degree is the
    number of ones in the Frobenius pattern of f at p."""
    fp = _reduce_mod_p(_int_form(f), p)
    return None if fp is None else _linear_part(fp, p)


def root_mod_p(f: UniPoly, p):
    """One root mod p of f, for an odd prime p at which the Frobenius
    pattern of f exists, or None when f has no root mod p: a linear
    factor split (with the fixed seed) from ``linear_part_mod_p(f, p)``."""
    linear = linear_part_mod_p(f, p)
    if linear is None or _ideg(linear) == 0:
        return None
    return -_gedf(linear, 1, p, random.Random(EDF_SEED))[0][0] % p


def usable_patterns(fs, limit):
    """(p, the Frobenius patterns of the polynomials fs at p) for the
    first ``limit`` primes p >= 5 at which all of those patterns exist;
    a ValueError if one of fs has a repeated factor."""
    for p, fps in islice(_good_primes([_int_form(f) for f in fs]), limit):
        yield p, [_ddf_degrees(_gddf(fp, p)) for fp in fps]


#: Usable primes tried before a field is given up as having no
#: completeness prime.  By Chebotarev the primes with exactly |G| roots
#: have density 1/12 for S3 and 1/36 for C3 on the S_n route, so for C3
#: all 1,000 miss with probability (35/36)^1000 < 1e-12.  Each try costs
#: one X^p mod F and one gcd, not a factorization.
COMPLETENESS_PRIMES = 1000


def completeness_prime(f: UniPoly, k, screen=None):
    """The first prime p >= 5 at which f is usable (p does not divide the
    leading coefficient of its primitive integer multiple F, and F is
    squarefree mod p) and F has exactly k roots mod p, or None once
    COMPLETENESS_PRIMES usable primes have failed.  The roots are counted
    as deg gcd(X^p - X, F mod p), the number of ones in the Frobenius
    pattern, without factoring further; a ValueError if f has a repeated
    factor.

    Such a p proves that E = Q[X]/(f), f irreducible, has at most k
    automorphisms: each sends the generator to a root of f in E, reduction
    modulo a degree-1 prime above p sends these roots to roots of f mod p,
    and distinct roots stay distinct because f is squarefree mod p.

    ``screen``, if given, is a pair (g, D) of a monic rational polynomial
    g and an integer D such that at each usable p not dividing D, where g
    is p-integral, a root of f mod p gives one of g mod p.  For k >= 1 a
    usable p where g then has no root is passed over after
    gcd(X^p - X, g mod p) alone, which is cheaper when g has the smaller
    degree; the primes tried, and the prime found, stay the same.
    """
    screened = screen is not None and k >= 1
    if screened:
        G, D = _int_form(screen[0]), screen[1]
    for p, (fp,) in islice(_good_primes([_int_form(f)]), COMPLETENESS_PRIMES):
        if screened and D % p and G[-1] % p:
            if not _ideg(_linear_part(_gmonic([c % p for c in G], p), p)):
                continue  # g, hence f, has no root mod p
        if _ideg(_linear_part(fp, p)) == k:
            return p
    return None


def _gfactor_sqf(ddf, p):
    """Monic irreducible factors mod p of a monic squarefree polynomial,
    split from its distinct-degree factorization ``ddf`` (from _gddf)
    with the fixed seed."""
    rng = random.Random(EDF_SEED)
    out = []
    for g, k in ddf:
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


def _choose_prime(f):
    """Pick a usable prime p (see _good_primes) for f and factor f mod p.

    Among the first few usable primes, the one with the fewest modular
    factors is chosen (ties broken towards smaller p); at desk scale this
    keeps subset recombination tractable.  The search stops after
    ZASSENHAUS_PRIMES primes or at the first with at most 6 factors.
    Candidates are ranked by their distinct-degree factorization alone,
    which gives the factor degrees; only the chosen prime is split into
    irreducibles.  Returns (p, the monic factors of f mod p).
    """
    candidates = []
    for p, (fp,) in _good_primes([f]):
        ddf = _gddf(fp, p)
        degrees = _ddf_degrees(ddf)
        candidates.append((len(degrees), p, ddf))
        if len(degrees) <= 6 or len(candidates) >= ZASSENHAUS_PRIMES:
            break
    _, p, ddf = min(candidates, key=lambda c: c[:2])
    _record("prime", p)
    return p, _gfactor_sqf(ddf, p)


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
    p, modular = _choose_prime(f)
    l = int(ceil(log(2 * _mignotte_bound(f) + 1, p)))
    _record("lift_exponent", l)
    lifted, pl = _hensel_lift(p, f, modular, l), p**l

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


# -- public API over Q ------------------------------------------------------


class Factorization:
    """unit * prod(factor_i ** mult_i) == input, factors monic irreducible."""

    def __init__(self, unit: Fraction, factors: tuple):
        self.unit = unit
        self.factors = factors  # of (UniPoly, int)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.unit, self.factors) == (other.unit, other.factors)

    def __hash__(self):
        return hash((self.unit, self.factors))

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
        fi = _int_form(g)
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
    return factor_over_Q(f).is_irreducible


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.one(f.var, f.field)
    g = poly_gcd(f, f.derivative())
    return poly_divrem(f, g)[0].monic()
