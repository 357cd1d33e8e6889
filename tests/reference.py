"""Reference implementations the tests compare the package against.

Each is the plain textbook version of something the package computes
another way, kept here because only tests use it: the extended Euclidean
algorithm (and the number-field inverse it gives), the Sylvester-matrix
resultant, Newton interpolation over Fractions, a field norm of a
polynomial by element resultants and interpolation, the Zassenhaus prime
choice by complete factorization mod every candidate, the completeness
prime and a root mod p by a complete distinct-degree factorization, a field's
automorphisms as the roots of its modulus in it, the image of an element
under one of them, their composition table by exact composition in the
field, a generator's image in
a larger field by a gcd over that field, the inverse of a permutation,
normalizers, normality and quotient groups by direct scan, a
permutation group's composition table, and the product of a
factorization.
"""

import random
from fractions import Fraction
from itertools import count

from autrealize import factor
from autrealize.errors import VerificationError
from autrealize.exact import (
    UniPoly,
    _is_prime,
    interpolate,
    poly_divrem,
    poly_gcd,
    resultant_std,
)
from autrealize.factor import completeness_prime, frobenius_pattern
from autrealize.numfield import AutomorphismTable, roots_in_field
from autrealize.perm import AbstractGroup, PermGroup, Permutation


def _zero(field):
    return Fraction(0) if field is None else field.zero()


def _one(field):
    return Fraction(1) if field is None else field.one()


def _inv(c, field):
    return (1 / c) if field is None else c.inverse()


def poly_gcdex(f: UniPoly, g: UniPoly):
    """Extended gcd: returns (s, t, h) with s*f + t*g = h, h monic gcd."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials")
    var, field = f.var, f.field
    one = UniPoly.one(var, field)
    zero = UniPoly.zero(var, field)
    a, b = f, g
    sa, sb = one, zero
    ta, tb = zero, one
    while not b.is_zero:
        q, r = poly_divrem(a, b)
        a, b = b, r
        sa, sb = sb, sa - q * sb
        ta, tb = tb, ta - q * tb
    inv = _inv(a.lc(), field)
    return sa * inv, ta * inv, a * inv


def euclid_inverse(a):
    """1 / a in a's number field from the Bezout relation s*a + t*g = 1
    with the modulus g, computed over Fractions."""
    K = a.owner
    s, _, h = poly_gcdex(a.to_poly(), K.modulus)
    if h.degree != 0:
        raise VerificationError("modulus is not irreducible")
    return K.element(s.coeffs)


def sylvester_resultant(f: UniPoly, g: UniPoly):
    """Sylvester-determinant resultant lc(g)^deg f * prod of f over the
    roots of g, i.e. ``exact.resultant_std(g, f)``; works over any field."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    f._check_compat(g)
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    field = f.field
    size = m + n
    fa = list(reversed(f.coeffs))
    ga = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        row = [_zero(field)] * size
        for j, c in enumerate(ga):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [_zero(field)] * size
        for j, c in enumerate(fa):
            row[i + j] = c
        rows.append(row)
    # Gaussian elimination; the determinant of the Sylvester matrix of
    # (g, f) is resultant_std(g, f)
    det = _one(field)
    sign = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return _zero(field)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pv = rows[col][col]
        det = det * pv
        inv = _inv(pv, field)
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [rows[r][k] - factor * rows[col][k] for k in range(size)]
    return det if sign == 1 else -det


def newton_interpolate(points, values, var="X"):
    """Newton's divided differences over Fractions through
    (points[i], values[i]), for any distinct rational points."""
    n = len(points)
    table = [Fraction(v) for v in values]
    pts = [Fraction(p) for p in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (pts[i] - pts[i - j])
    acc = UniPoly.zero(var)
    for i in range(n - 1, -1, -1):
        acc = acc * UniPoly([-pts[i], 1], var) + UniPoly.constant(table[i], var)
    return acc


def shifted_norm_by_resultants(f, K, s):
    """Norm_{K/Q}(f(X - s*theta)) for f over K or Q: the norms of
    g = f(X - s*theta) at X = 0, 1, ..., [K:Q] deg f, each the resultant
    of K's modulus with the coordinate polynomial of g(x), interpolated
    over Q."""
    if f.field is None:
        f = f.to_field(K)
    g = f.compose(UniPoly([K.gen() * (-s), K.one()], f.var, K)) if s else f
    points = [Fraction(x) for x in range(K.degree * f.degree + 1)]
    values = []
    for x in points:
        h = g.eval(K.from_rational(x)).to_poly()
        values.append(Fraction(0) if h.is_zero else resultant_std(K.modulus, h))
    return interpolate(points, values, f.var)


def choose_prime_by_factoring(f):
    """The Zassenhaus prime choice with every candidate prime factored
    completely: the fewest modular factors win, ties towards smaller p,
    with the same stopping rule and audit events as
    ``factor._choose_prime``."""
    candidates = []
    for p, (fp,) in factor._good_primes([f]):
        factors = factor._gfactor_sqf(factor._gddf(fp, p), p)
        candidates.append((len(factors), p, factors))
        if len(factors) <= 6 or len(candidates) >= factor.ZASSENHAUS_PRIMES:
            break
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, p, factors = candidates[0]
    factor._record("prime", p)
    return p, factors


def completeness_prime_by_pattern(f, k):
    """The first prime p >= 5 whose Frobenius pattern of f exists and has
    exactly k ones, or None once ``factor.COMPLETENESS_PRIMES`` primes with
    a pattern have failed: the completeness search by a complete
    distinct-degree factorization at every prime."""
    usable = 0
    for p in count(5, 2):
        if usable == factor.COMPLETENESS_PRIMES:
            return None
        if _is_prime(p):
            pattern = frobenius_pattern(f, p)
            if pattern is not None:
                usable += 1
                if pattern.count(1) == k:
                    return p


def root_mod_p_by_ddf(f, p):
    """``factor.root_mod_p`` with the linear part taken from a complete
    distinct-degree factorization of F mod p."""
    fp = factor._reduce_mod_p(factor._int_form(f), p)
    linear = next((g for g, k in factor._gddf(fp, p) if k == 1), None) if fp else None
    if linear is None:
        return None
    return -factor._gedf(linear, 1, p, random.Random(factor.EDF_SEED))[0][0] % p


def automorphisms(K) -> AutomorphismTable:
    """Automorphism table of K/Q; one map per root of the modulus in K,
    found by a Trager factorization over K itself, with the table read at
    the first prime where the modulus has as many roots as K has maps."""
    maps = roots_in_field(K.modulus, K)
    return AutomorphismTable(K, maps, prime=completeness_prime(K.modulus, len(maps)))


def apply(m, e):
    """Image of e under the automorphism sending the generator to m."""
    return e.to_poly().eval(m)


def composition_table(maps):
    """table[a][b] = index in maps of the composite sigma_a . sigma_b, or
    None where it is not listed; maps are generator images.

    (sigma_a . sigma_b)(Z) = sigma_a(b(Z)) = coords_b evaluated at a.
    """
    index = {(m.num, m.den): i for i, m in enumerate(maps)}
    rows = ([b.to_poly().eval(a) for b in maps] for a in maps)
    return [[index.get((m.num, m.den)) for m in row] for row in rows]


def embed_generator_by_gcd(K, h, K2, c):
    """Image in K2 of K's generator theta, where K2's generator z is
    beta + c*theta for a root beta of h (a polynomial over K): the unique
    common root in K2 of K's modulus and of
    H(W) = sum_i coords(h_i)(W) * (z - c*W)^i, read off their linear gcd."""
    gK2 = K.modulus.with_var("W").to_field(K2)
    acc = UniPoly.zero("W", K2)
    lin = UniPoly([K2.gen(), K2.from_rational(-c)], "W", K2)  # z - c*W
    power = UniPoly.one("W", K2)
    for hi in h.coeffs:
        acc = acc + hi.to_poly().with_var("W").to_field(K2) * power
        power = power * lin
    g = poly_gcd(gK2, acc)
    if g.degree != 1:
        raise VerificationError("generator embedding gcd is not linear")
    return -g.coeffs[0] / g.coeffs[1]


def inverse(g: Permutation) -> Permutation:
    """The permutation undoing g."""
    inv = [0] * g.degree
    for i, b in enumerate(g.images):
        inv[b - 1] = i + 1
    return Permutation(inv)


def normalizer(ambient, sub):
    """N_ambient(sub) by direct scan."""
    if not sub.elements <= ambient.elements:
        raise ValueError("sub must be contained in ambient")
    keep = [
        g
        for g in ambient.elements
        if all(
            g * h * inverse(g) in sub.elements
            for h in sub.generators or [Permutation.identity(sub.degree)]
        )
        and all(g * h * inverse(g) in sub.elements for h in sub.elements)
    ]
    return PermGroup.from_elements(keep, ambient.degree)


def to_abstract(group) -> AbstractGroup:
    """The composition table of a PermGroup over its lexicographically
    sorted elements (the order a witness indexes G in); index 0 is the
    identity."""
    elems = sorted(group.elements)
    idx = {g: i for i, g in enumerate(elems)}
    return AbstractGroup([[idx[a * b] for b in elems] for a in elems])


def quotient(group, normal):
    """Quotient group as an AbstractGroup plus lex-minimal coset
    representatives.  Raises unless ``normal`` is normal in ``group``."""
    if not normal.elements <= group.elements:
        raise ValueError("normal must be contained in group")
    if not all(
        g * h * inverse(g) in normal.elements
        for g in group.elements
        for h in normal.elements
    ):
        raise VerificationError("subgroup is not normal; quotient undefined")
    cosets = {}
    for g in sorted(group.elements):
        key = frozenset(g * h for h in normal.elements)
        if key not in cosets:
            cosets[key] = g  # first in lex order is the minimal representative
    reps = sorted(cosets.values())
    rep_of = {}
    for key, rep in cosets.items():
        for member in key:
            rep_of[member] = rep
    idx = {rep: i for i, rep in enumerate(reps)}
    table = [[idx[rep_of[a * b]] for b in reps] for a in reps]
    return AbstractGroup(table), reps


def aut_group_via_quotient(ambient, sub):
    """N_ambient(sub) / sub as an abstract group with coset reps: the
    group side of the identity Aut(E) = N(H)/H that the tests check
    against the field side."""
    return quotient(normalizer(ambient, sub), sub)


def expand(fac) -> UniPoly:
    """unit * prod(factor ** mult) of a Factorization."""
    acc = UniPoly.constant(fac.unit)
    for g, k in fac.factors:
        acc = acc * g**k
    return acc
