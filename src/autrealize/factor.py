"""Factorization and irreducibility over Q.

The engine is classical Zassenhaus on a squarefree input: factorization
modulo a prime (distinct-degree + equal-degree splitting with a
fixed-seed PRNG), multifactor Hensel lifting to a Mignotte-style bound,
and subset recombination with trial division.  Every polynomial the
tool factors is squarefree, so none is decomposed first: a repeated
factor makes lc(F) * disc(F) zero, and the record refuses it.  That
is the package's one squarefree test: every caller that decides
squarefreeness reads ``Reductions.lc_disc``.  The prime is chosen by
the factor degrees that the distinct-degree
factorization gives (von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 14); equal-degree splitting runs on the chosen prime only.  A
polynomial is read modulo primes through one record, ``Reductions``,
which derives lc(F) * disc(F) once and keeps, per prime, the
distinct-degree factorization that gives the Zassenhaus prime and the
Frobenius patterns proving two fields distinct, and the root product
gcd(X^p - X, F mod p), whose degree bounds a field's automorphism count
and from which one root is split (``Reductions.root``), computed once
per prime.  The record holds the one criterion for a completeness prime
(``Reductions.completeness_failure``, which ``completeness_prime``
searches with) and for a separating prime (``Reductions.separates``);
the validator calls the same two.

Polynomials below are dense ascending lists of integers; the GF(p)
helpers here are the package's only polynomial arithmetic mod p.  Hensel
lifting and recombination compute mod p^k with the modular helpers
``_gmul``, ``_gsub`` and ``_gdivrem``, which take any modulus (every
divisor there is monic); a symmetric lift (``_itrunc``) returns each
lifted factor and each candidate factor to Z.  The lift exponent is
the least l with p^l > 2B, for B the coefficient bound, found in
integers with no floating point; each quadratic step goes from p^a to
p^min(2a, l), so none computes modulo more than p^l.
Chosen primes and lift exponents are recorded in the audit trail for
certificate metadata.
"""

from __future__ import annotations

import contextvars
import random
from functools import cached_property
from itertools import combinations, count, islice
from math import isqrt

from .errors import CapExceededError, VerificationError
from .exact import (
    QQ,
    UniPoly,
    _gtrim,
    _ideg,
    _int_clear,
    _iprimitive,
    discriminant,
)

#: Fixed seed for equal-degree splitting; runs must be reproducible.
EDF_SEED = 0x5EED_CAFE

#: Largest integer-polynomial degree a ``Reductions`` record accepts.
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


def _idivides(b, a):
    """Quotient a / b of integer polynomials (ascending lists) when b
    divides a over Z, else None.  For primitive b this is divisibility
    over Q (Gauss's lemma)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - db - 1, -1, -1):
        c = r[k + db]
        if c:
            qc, rem = divmod(c, lb)
            if rem:
                return None
            q[k] = qc
            for j in range(db + 1):
                r[k + j] -= qc * b[j]
    if any(r[:db]):
        return None
    return q


# -- GF(p) polynomial helpers (ascending lists of ints in [0, p)) -----------


def _gdivrem(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] % p
        if c:
            qc = (c * inv) % p
            q[k] = qc
            for j in range(db + 1):
                a[k + j] = (a[k + j] - qc * b[j]) % p
    return _gtrim(q), _gtrim(a[: db])


def _gmonic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _ggcd(a, b, p):
    while b:
        a, b = b, _gdivrem(a, b, p)[1]
    return _gmonic(a, p)


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
    return [c * inv % p for c in s0], [c * inv % p for c in t0], _gmonic(r0, p)


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


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: The fixed Miller-Rabin bases of ``_is_prime`` prove primality below this.
_PRIME_PROOF_BOUND = 2**64


def _proved_prime(p):
    """True iff p is an integer prime with 5 <= p < _PRIME_PROOF_BOUND."""
    return isinstance(p, int) and 5 <= p < _PRIME_PROOF_BOUND and _is_prime(p)


class Reductions:
    """A polynomial read modulo primes, what is read again derived once.

    F is the primitive integer multiple of the rational f, with lc(F) > 0.
    The usable primes are the p >= 5 not dividing ``lc_disc`` =
    lc(F) * disc(F), for F is squarefree mod p exactly when p does not
    divide disc(F).  Per prime the record keeps what later readers ask for
    again: the product of the roots of F mod p, which gives the root
    counts of every t0's completeness search and screen and the root the
    automorphism table is read at, and the distinct-degree factorization,
    which gives the Frobenius pattern of every distinctness pair.  It
    also states the one criterion for each claim a certificate makes at
    a prime, which the producer's search and the validator both call:
    ``completeness_failure`` (the listed automorphisms are all of them)
    and ``separates`` (two fields are not isomorphic).  It lives on the
    object that owns the polynomial (a number field keeps its modulus's
    as ``NumberField.reductions``); no module-level cache keeps it.
    """

    def __init__(self, f: UniPoly):
        if f.field is not QQ:
            raise ValueError("expects rational coefficients")
        if f.is_zero:
            raise ValueError("the zero polynomial has no reductions")
        F = _iprimitive(_int_clear(f)[0])[1]
        self.F = F if F[-1] > 0 else [-c for c in F]
        self._roots, self._ddf = {}, {}

    @cached_property
    def lc_disc(self):
        """lc(F) * disc(F); past DEGREE_CAP a CapExceededError instead,
        before any resultant is taken."""
        F = self.F
        if _ideg(F) > DEGREE_CAP:
            raise CapExceededError(
                f"degree {_ideg(F)} exceeds the factorization cap {DEGREE_CAP}"
            )
        # F is integral, so disc(F) is an integer (den 1)
        return F[-1] * (discriminant(UniPoly(F)).num[0] if len(F) > 1 else 1)

    def usable(self, p):
        """True iff the prime p >= 5 does not divide lc(F) * disc(F)."""
        return self.lc_disc % p != 0

    def primes(self, *others):
        """The primes p = 5, 7, 11, ... usable for this record and for
        each of ``others``, in increasing order; a ValueError at once if
        one of their polynomials has a repeated factor (lc_disc = 0)."""
        Ds = [r.lc_disc for r in (self, *others)]
        if 0 in Ds:
            raise ValueError("expects a squarefree polynomial")
        return (p for p in count(5, 2) if _is_prime(p) and all(D % p for D in Ds))

    def roots(self, p):
        """gcd(X^p - X, F mod p), for a prime p not dividing lc(F): the
        monic product of the distinct linear factors of F mod p, whose
        degree is the number of roots of F mod p, kept per prime.  This is
        the k = 1 step of ``_gddf``, without the steps after it."""
        if p not in self._roots:
            fp = _gmonic([c % p for c in self.F], p)
            xp = _gpow_mod([0, 1], p, fp, p)
            self._roots[p] = _ggcd(_gsub(xp, [0, 1], p), fp, p)
        return self._roots[p]

    def nroots(self, p):
        """The number of roots of F mod p, deg ``roots(p)``."""
        return _ideg(self.roots(p))

    def root(self, p):
        """One root of F mod p, split with the fixed seed from the kept
        ``roots(p)``, or None when p divides lc(F) or F has no root mod p."""
        if self.F[-1] % p == 0 or not _ideg(linear := self.roots(p)):
            return None
        return -_gedf(linear, 1, p, random.Random(EDF_SEED))[0][0] % p

    def ddf(self, p):
        """The distinct-degree factorization of F mod p (see ``_gddf``),
        for a usable prime p."""
        if p not in self._ddf:
            self._ddf[p] = _gddf(_gmonic([c % p for c in self.F], p), p)
        return self._ddf[p]

    def pattern(self, p):
        """Sorted degrees of the irreducible factors of F mod p, or None
        when p is not usable.  For irreducible f these are the residue
        degrees of the primes above p in Q[X]/(F) (Dedekind-Kummer), so
        two fields whose patterns differ at one p are not isomorphic."""
        if not self.usable(p):
            return None
        return tuple(sorted(k for g, k in self.ddf(p) for _ in range(_ideg(g) // k)))

    def completeness_failure(self, p, k):
        """None when p is a completeness prime for k automorphisms of
        Q[X]/(F), else why it is not: p must be a proved prime, usable,
        and F must have exactly k >= 1 roots mod p (see
        ``completeness_prime``; the bound reduces modulo a degree-1 prime
        above p, which needs a root mod p, so k = 0 proves nothing)."""
        if not _proved_prime(p):
            return "not an integer prime with 5 <= p < 2**64"
        if not self.usable(p):
            return "p divides the leading coefficient or q0 is not squarefree mod p"
        if not k:
            return "no images, and the bound needs a root mod p"
        if (n := self.nroots(p)) != k:
            return f"{n} roots mod p for {k} images"
        return None

    def separates(self, other, p):
        """True iff p is a proved prime at which the Frobenius patterns of
        this record and the record ``other`` both exist and differ, which
        proves their fields non-isomorphic."""
        if not _proved_prime(p):
            return False
        a, b = self.pattern(p), other.pattern(p)
        return a is not None and b is not None and a != b


#: Usable primes tried before a field is given up as having no
#: completeness prime.  By Chebotarev the primes with exactly |G| roots
#: have density 1/12 for S3 and 1/36 for C3 on the S_n route, so for C3
#: all 1,000 miss with probability (35/36)^1000 < 1e-12.  Each try costs
#: one X^p mod F and one gcd, not a factorization.
COMPLETENESS_PRIMES = 1000


def completeness_prime(f: Reductions, k, screen=None):
    """The first usable prime p of the record f that passes
    ``f.completeness_failure(p, k)``, the validator's criterion: F has
    exactly k >= 1 roots mod p.  None once COMPLETENESS_PRIMES usable
    primes have failed, and so always for k = 0.  The roots are counted
    as deg gcd(X^p - X, F mod p), the number of ones in the Frobenius
    pattern, without factoring further; a ValueError if F has a repeated
    factor.

    Such a p proves that E = Q[X]/(F), F irreducible, has at most k
    automorphisms: each sends the generator to a root of F in E, reduction
    modulo a degree-1 prime above p sends these roots to roots of F mod p,
    and distinct roots stay distinct because F is squarefree mod p.

    ``screen``, if given, is a pair (g, D) of the record g of a monic
    rational polynomial and an integer D such that at each usable p not
    dividing D, where g is p-integral, a root of F mod p gives one of g
    mod p.  A usable p where g then has no root is passed over after g's
    root count alone (cheaper when g has the smaller degree, and kept by
    g for every search it screens); the primes tried, and the prime
    found, stay the same.
    """
    if screen is not None:
        g, D = screen
    for p in islice(f.primes(), COMPLETENESS_PRIMES):
        if screen is not None and D % p and g.F[-1] % p and not g.nroots(p):
            continue  # g, hence F, has no root mod p
        if f.completeness_failure(p, k) is None:
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


def _hensel_step(M, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m), h monic, to modulus
    M, a divisor of m**2 (von zur Gathen-Gerhard, Alg. 15.10), computing
    mod M."""
    e = _gsub(_gmul(g, h, M), f, M)  # the error g*h - f, negated
    q, r = _gdivrem(_gmul(s, e, M), h, M)
    G = _gsub(_gsub(g, _gmul(t, e, M), M), _gmul(q, g, M), M)
    H = _gsub(h, r, M)
    b = _gsub(_gmul(s, G, M), _gsub([1], _gmul(t, H, M), M), M)
    c, d = _gdivrem(_gmul(s, b, M), H, M)
    S = _gsub(s, d, M)
    T = _gsub(_gsub(t, _gmul(t, b, M), M), _gmul(c, G, M), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Lift monic pairwise-coprime factors of f mod p to mod p**l.

    f = lc(f) * prod(factors) (mod p); the returned factors are monic and
    satisfy the same identity mod p**l.  They are unique, so any correct
    lifting gives the same ones.
    """
    lc = f[-1]
    if len(factors) == 1:
        pl = p**l
        inv = pow(lc, -1, pl)
        return [_itrunc([c * inv for c in f], pl)]
    k = len(factors) // 2
    g, h = [lc % p], [1]
    for fi in factors[:k]:
        g = _gmul(g, fi, p)
    for fi in factors[k:]:
        h = _gmul(h, fi, p)
    s, t, one = _ggcdex(g, h, p)
    if one != [1]:
        raise VerificationError(f"modular factors are not coprime mod {p}")
    a = 1
    while a < l:  # p**a to p**min(2a, l): no step works mod more than p**l
        a = min(2 * a, l)
        g, h, s, t = _hensel_step(p**a, f, g, h, s, t)
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


# -- Zassenhaus -------------------------------------------------------------


def _mignotte_bound(f):
    n = _ideg(f)
    return (isqrt(n + 1) + 1) * 2**n * max(map(abs, f)) * abs(f[-1])


def _choose_prime(f: Reductions):
    """Pick a usable prime p of the record f and factor F mod p.

    Among the first few usable primes, the one with the fewest modular
    factors is chosen (ties broken towards smaller p); at desk scale this
    keeps subset recombination tractable.  The search stops after
    ZASSENHAUS_PRIMES primes or at the first with at most 6 factors.
    Candidates are ranked by their Frobenius patterns alone, which give
    the factor degrees; only the chosen prime is split into irreducibles.
    Returns (p, the monic factors of F mod p).
    """
    candidates = []
    for p in f.primes():
        candidates.append((len(f.pattern(p)), p))
        if candidates[-1][0] <= 6 or len(candidates) >= ZASSENHAUS_PRIMES:
            break
    _, p = min(candidates)
    _record("prime", p)
    return p, _gfactor_sqf(f.ddf(p), p)


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
        G = _gmul(G, lifted[i], pl)
    _, G = _iprimitive(_itrunc(G, pl))
    if not G:
        return None
    quot = _idivides(G, f)
    if quot is None:
        return None
    return G, quot


def _zassenhaus(red: Reductions):
    """Factor the squarefree F of a record (primitive, lc > 0)."""
    f = red.F
    n = _ideg(f)
    if n <= 0:
        return []
    if n == 1:
        return [list(f)]
    p, modular = _choose_prime(red)
    bound = _mignotte_bound(f)
    l, pl = 1, p
    while pl <= 2 * bound:  # the least l with p**l > 2B, in integers
        l, pl = l + 1, pl * p
    _record("lift_exponent", l)
    lifted = _hensel_lift(p, f, modular, l)

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


def factor_over_Q(f: UniPoly, *, reductions: Reductions | None = None) -> tuple:
    """The monic irreducible factors of a nonzero squarefree rational
    polynomial, sorted by (degree, coefficients); a ValueError if f has a
    repeated factor, from its record (``reductions`` if given), where
    lc(F) * disc(F) = 0."""
    red = reductions or Reductions(f)
    factors = (UniPoly(g).monic() for g in _zassenhaus(red))
    return tuple(sorted(factors, key=lambda g: (g.degree, g.coeffs)))


def is_irreducible_Q(f: UniPoly, *, reductions: Reductions | None = None) -> bool:
    """True iff f is irreducible over Q (degree >= 1 required): f is
    squarefree (lc(F) * disc(F) != 0 on its record, ``reductions`` if
    given) and Zassenhaus finds one factor of F."""
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    red = reductions or Reductions(f)
    return bool(red.lc_disc) and len(_zassenhaus(red)) == 1
