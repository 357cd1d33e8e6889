"""Reference implementations the tests compare the package against.

Each is the plain textbook version of something the package computes
another way, kept here because only tests use it: the extended Euclidean
algorithm (with the number-field inverse and the squarefreeness test,
gcd(f, f') = 1, that it gives), the derivative, the rational resultant
over the package's integer subresultant and the Sylvester-matrix
resultant, Newton interpolation over Fractions, a field norm of a
polynomial by element resultants and interpolation (with an element's
minimal polynomial as the squarefree part of one), the pipeline's
q(T, X) as one polynomial in T, the X-discriminant of a bivariate
polynomial by interpolation, the "pipeline" block that format 4 wrote,
the per-prime definition of a usable prime (a squarefree gcd mod p),
with the Frobenius patterns and root products it gives, the Zassenhaus
prime choice by complete factorization mod every candidate, the
completeness prime and a root mod p by a complete distinct-degree
factorization, Hensel lifting with its products and sums taken over Z
and reduced afterwards, a field's automorphisms as the roots of its modulus in
it, the image of an element under one of them, their composition table
by exact composition in the field, a generator's image in a larger
field by a gcd over that field, the inverse of a permutation,
normalizers, normality and quotient groups by direct scan, a
permutation group's composition table, the product of a factorization,
and a squarefree product of distinct random parts, the input factoring
takes.  Beside them are the test helpers several modules share: a named
group built from its generator text, a run's accepted records, and the
image theta0 of L's generator in an accepted field.
"""

import random
from fractions import Fraction
from itertools import count
from math import gcd

from autrealize import factor
from autrealize.errors import VerificationError
from autrealize.exact import (
    BiPoly,
    UniPoly,
    _gtrim,
    _ideg,
    QQ,
    _int_clear,
    _int_res_std,
    _rational,
    discriminant,
    interpolate,
    poly_divrem,
    poly_gcd,
    render_rational,
    render_unipoly,
)
from autrealize.factor import Reductions, _ggcd, _gmonic, _is_prime, completeness_prime
from autrealize.family import bad_set, cubic
from autrealize.numfield import (
    AutomorphismTable,
    embed_generator,
    roots_in_field,
    shift_sequence,
    shifted_norms,
)
from autrealize.perm import (
    PermGroup,
    Permutation,
    named_group,
    parse_generators,
)


def derivative(f: UniPoly) -> UniPoly:
    """f' over f's field."""
    return UniPoly([i * c for i, c in enumerate(f.coeffs)][1:], f.field)


def resultant_std(f: UniPoly, g: UniPoly):
    """lc(f)^deg(g) * prod of g over the roots of f, for rational f, g:
    ``exact._int_res_std`` of their integer multiples, scaled back."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    f._check_compat(g)
    if f.field is not QQ:
        raise ValueError("resultants are defined over Q")
    (A, da), (B, db) = _int_clear(f), _int_clear(g)
    return _rational(_int_res_std(A, B), da**g.degree * db**f.degree)


def poly_gcdex(f: UniPoly, g: UniPoly):
    """Extended gcd: returns (s, t, h) with s*f + t*g = h, h monic gcd."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials")
    field = f.field
    one = UniPoly.one(field)
    zero = UniPoly.zero(field)
    a, b = f, g
    sa, sb = one, zero
    ta, tb = zero, one
    while not b.is_zero:
        q, r = poly_divrem(a, b)
        a, b = b, r
        sa, sb = sb, sa - q * sb
        ta, tb = tb, ta - q * tb
    inv = a.lc().inverse()
    return sa * inv, ta * inv, a * inv


def squarefree_by_euclid(f: UniPoly) -> bool:
    """True iff the nonzero f, over Q or a number field, is coprime to its
    derivative: the gcd of the extended Euclidean algorithm is 1."""
    return poly_gcdex(f, derivative(f))[2].degree == 0


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
    roots of g, i.e. ``resultant_std(g, f)``; works over any field."""
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
        row = [field.zero()] * size
        for j, c in enumerate(ga):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [field.zero()] * size
        for j, c in enumerate(fa):
            row[i + j] = c
        rows.append(row)
    # Gaussian elimination; the determinant of the Sylvester matrix of
    # (g, f) is resultant_std(g, f)
    det = field.one()
    sign = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return field.zero()
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pv = rows[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [rows[r][k] - factor * rows[col][k] for k in range(size)]
    return det if sign == 1 else -det


def newton_interpolate(points, values):
    """Newton's divided differences over Fractions through
    (points[i], values[i]), for any distinct rational points."""
    n = len(points)
    table = [Fraction(v) for v in values]
    pts = [Fraction(p) for p in points]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (pts[i] - pts[i - j])
    acc = UniPoly.zero()
    for i in range(n - 1, -1, -1):
        acc = acc * UniPoly([-pts[i], 1]) + UniPoly.constant(table[i])
    return acc


def shifted_norm_by_resultants(f, K, s):
    """Norm_{K/Q}(f(X - s*theta)) for f over K or Q: the norms of
    g = f(X - s*theta) at X = 0, 1, ..., [K:Q] deg f, each the resultant
    of K's modulus with the coordinate polynomial of g(x), interpolated
    over Q."""
    f = UniPoly(f.coeffs, K)
    g = f.compose(UniPoly([K.gen() * (-s), K.one()], K)) if s else f
    points = [Fraction(x) for x in range(K.degree * f.degree + 1)]
    values = []
    for x in points:
        h = g.eval(K.from_rational(x)).to_poly()
        values.append(Fraction(0) if h.is_zero else resultant_std(K.modulus, h))
    return interpolate(points, values)


def minpoly(a) -> UniPoly:
    """Monic minimal polynomial over Q of an element a of a number field
    K: its characteristic polynomial Norm_{K/Q}(X - a), by element
    resultants, is a power of it, so the squarefree part f / gcd(f, f')
    is exactly the minimal polynomial."""
    K = a.owner
    f = shifted_norm_by_resultants(UniPoly([-a, K.one()], K), K, 0)
    return poly_divrem(f, poly_gcd(f, derivative(f)))[0].monic()


def interpolated_q(L, y):
    """(c, q) with q(T, X) the minimal polynomial over Q(T) of x + c*theta
    for x a root of cubic(T - y) over L(T), built as one polynomial in T:
    the norms of cubic(t - y) shifted by c*theta at t = 0, 1, ..., [L:Q]
    interpolated coefficient by coefficient, for the first shift c at which
    some q(t, X), t = 0, 1, ..., 6 deg_X(q)^2 + 1, is squarefree."""
    K = L.field
    N = K.degree
    if N == 1:
        y0 = y.coords[0]
        return 0, BiPoly([[-y0, -y0, 0, 1], [1, 1, 0, 0]])
    points = range(N + 1)
    norms = [shifted_norms(cubic(K.from_rational(t) - y), K) for t in points]
    for c in shift_sequence():
        by_t = [norm(c) for norm in norms]
        columns = [
            interpolate(points, [f[j] for f in by_t]) for j in range(3 * N + 1)
        ]
        q = BiPoly([[col[i] for col in columns] for i in range(N + 1)])
        if any(not bad_set(q, t) for t in range(6 * (3 * N) ** 2 + 2)):
            return c, q


def discriminant_in_X(f: BiPoly) -> UniPoly:
    """The X-discriminant of f as a polynomial in T, for f with a constant
    X-leading coefficient (so no specialization drops its X-degree): the
    discriminants of f(t, X) at t = 0, 1, ..., (2d - 1) deg_T(f),
    interpolated, for each of the 2d - 1 rows of the Sylvester matrix of
    f and its X-derivative has T-degree <= deg_T(f)."""
    d = f.deg_X
    if d < 1:
        raise ValueError("discriminant needs X-degree >= 1")
    if any(row[d] for row in f.rows[1:]):
        raise ValueError("discriminant_in_X expects a constant X-leading coefficient")
    if d == 1:
        return UniPoly.one()
    points = range((2 * d - 1) * (len(f.rows) - 1) + 1)
    return interpolate(points, [discriminant(f.specialize(t)) for t in points])


def v4_pipeline(state):
    """The "pipeline" block that format 4 wrote for a PipelineState: how
    the search found its t0, which no validator check read, with the
    family's irreducibility transcript as format 4 spelled it."""
    return {
        "n": state.G.degree,
        "splitting_polynomial": render_unipoly(state.L.poly),
        "field_modulus": render_unipoly(state.L.field.modulus),
        "galois_order": state.L.galois.order,
        "g_prime_order": state.G.order,
        "y": [render_rational(c) for c in state.y.coords],
        "y_minpoly": render_unipoly(minpoly(state.y)),
        "primitive_shift": state.c,
        "family": {
            "square_class_degree": 1,
            "irreducibility_transcript": [
                [
                    "constant-root",
                    "c^3 + (T-y)(c+1) = 0 needs c+1 = 0 and c^3 = 0; "
                    "c = -1 and c = 0 are contradictory",
                ],
                [
                    "linear-root",
                    "c^3(T-y)^3 has T-degree 3 but (T-y)(c(T-y)+1) has "
                    "T-degree 2; leading coefficients cannot cancel for "
                    "c != 0, and c = 0 reduces to the constant case",
                ],
            ],
        },
    }


def reduce_mod_p(f, p):
    """F mod p made monic, with F the primitive integer multiple of the
    rational polynomial f, or None when p divides lc(F) or F is not
    squarefree mod p, which one gcd of F mod p with its derivative
    decides: the per-prime definition of a usable prime."""
    num = _int_clear(f)[0]
    content = gcd(*num)
    F = [c // content for c in num]
    if F[-1] % p == 0:
        return None
    fp = _gmonic([c % p for c in F], p)
    deriv = _gtrim([(i * c) % p for i, c in enumerate(fp)][1:])
    return fp if _ideg(_ggcd(fp, deriv, p)) == 0 else None


def usable_primes(f):
    """The primes p >= 5 at which ``reduce_mod_p(f, p)`` exists, in order."""
    return (p for p in count(5, 2) if _is_prime(p) and reduce_mod_p(f, p))


def ddf_by_gcd(f, p):
    """The distinct-degree factorization of ``reduce_mod_p(f, p)``, or
    None where that does not exist."""
    fp = reduce_mod_p(f, p)
    return None if fp is None else factor._gddf(fp, p)


def ddf_degrees(ddf):
    """Sorted degrees of the irreducible factors that a distinct-degree
    factorization describes: each (g, k) holds deg(g)/k factors of degree k."""
    return tuple(sorted(k for g, k in ddf for _ in range((len(g) - 1) // k)))


def pattern_by_gcd(f, p):
    """The Frobenius pattern of f at p from ``reduce_mod_p``: the sorted
    factor degrees of a distinct-degree factorization, or None."""
    ddf = ddf_by_gcd(f, p)
    return None if ddf is None else ddf_degrees(ddf)


def root_product_by_ddf(ddf):
    """gcd(X^p - X, F mod p) read off a distinct-degree factorization of
    F mod p: its degree-1 part, or 1."""
    return next((g for g, k in ddf if k == 1), [1])


def choose_prime_by_factoring(f):
    """The Zassenhaus prime choice for a squarefree rational f with every
    candidate prime factored completely: the fewest modular factors win,
    ties towards smaller p, with the same stopping rule and audit events
    as ``factor._choose_prime``."""
    candidates = []
    for p in usable_primes(f):
        factors = factor._gfactor_sqf(factor._gddf(reduce_mod_p(f, p), p), p)
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
    for i, p in enumerate(usable_primes(f)):
        if i == factor.COMPLETENESS_PRIMES:
            return None
        if pattern_by_gcd(f, p).count(1) == k:
            return p


def root_mod_p_by_ddf(f, p):
    """``Reductions.root`` with the linear part taken from a complete
    distinct-degree factorization of F mod p."""
    ddf = ddf_by_gcd(f, p)
    linear = [1] if ddf is None else root_product_by_ddf(ddf)
    if len(linear) == 1:
        return None
    return -factor._gedf(linear, 1, p, random.Random(factor.EDF_SEED))[0][0] % p


def _imul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _iadd(a, b):
    n = max(len(a), len(b))
    return _gtrim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _isub(a, b):
    return _iadd(a, [-c for c in b])


def _idivrem_monic(a, b):
    """Division by a monic divisor, exact over Z."""
    a = list(a)
    db = _ideg(b)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    return _gtrim(q), _gtrim(a[:db])


def hensel_step_over_Z(m, f, g, h, s, t):
    """``factor._hensel_step`` over Z: each product and sum is taken over
    Z, and the result reduced into the symmetric range mod m**2."""
    M = m * m
    trunc = factor._itrunc
    e = trunc(_isub(f, _imul(g, h)), M)
    q, r = _idivrem_monic(_imul(s, e), h)
    q, r = trunc(q, M), trunc(r, M)
    G = trunc(_iadd(g, _iadd(_imul(t, e), _imul(q, g))), M)
    H = trunc(_iadd(h, r), M)
    b = trunc(_isub(_iadd(_imul(s, G), _imul(t, H)), [1]), M)
    c, d = _idivrem_monic(_imul(s, b), H)
    c, d = trunc(c, M), trunc(d, M)
    S = trunc(_isub(s, d), M)
    T = trunc(_isub(t, _iadd(_imul(t, b), _imul(c, G))), M)
    return G, H, S, T


def hensel_lift_over_Z(p, f, factors, l):
    """``factor._hensel_lift`` with the steps of ``hensel_step_over_Z``:
    the monic lifts mod p**l of the monic factors mod p of f."""
    lc = f[-1]
    if len(factors) == 1:
        inv = pow(lc, -1, p**l)
        return [factor._itrunc([c * inv for c in f], p**l)]
    k = len(factors) // 2
    g = [lc % p]
    for fi in factors[:k]:
        g = factor._gmul(g, fi, p)
    h = [1]
    for fi in factors[k:]:
        h = factor._gmul(h, fi, p)
    s, t, one = factor._ggcdex(g, h, p)
    if one != [1]:
        raise VerificationError(f"modular factors are not coprime mod {p}")
    g, h, s, t = (factor._itrunc(a, p) for a in (g, h, s, t))
    m = p
    for _ in range(max(1, (l - 1).bit_length())):
        g, h, s, t = hensel_step_over_Z(m, f, g, h, s, t)
        m = m * m
    return hensel_lift_over_Z(p, g, factors[:k], l) + hensel_lift_over_Z(
        p, h, factors[k:], l
    )


def automorphisms(K) -> AutomorphismTable:
    """Automorphism table of K/Q; one map per root of the modulus in K,
    found by a Trager factorization over K itself, the identity first,
    with the table read at the first prime where the modulus has as many
    roots as K has maps."""
    gen = K.gen()
    maps = [gen, *(m for m in roots_in_field(K.modulus, K) if m != gen)]
    p = completeness_prime(Reductions(K.modulus), len(maps))
    return AutomorphismTable(K, maps, prime=p)


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
    gK2 = UniPoly(K.modulus.coeffs, K2)
    acc = UniPoly.zero(K2)
    lin = UniPoly([K2.gen(), K2.from_rational(-c)], K2)  # z - c*W
    power = UniPoly.one(K2)
    for hi in h.coeffs:
        acc = acc + UniPoly(hi.qcoords, K2) * power
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
    return PermGroup(keep, degree=ambient.degree)


def to_abstract(group):
    """The composition table of a PermGroup over its lexicographically
    sorted elements (the order a certificate lists Aut(E) in); index 0 is
    the identity."""
    elems = sorted(group.elements)
    idx = {g: i for i, g in enumerate(elems)}
    return [[idx[a * b] for b in elems] for a in elems]


def quotient(group, normal):
    """Quotient group as a composition table over its lex-minimal coset
    representatives, plus those representatives.  Raises unless
    ``normal`` is normal in ``group``."""
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
    return table, reps


def aut_group_via_quotient(ambient, sub):
    """N_ambient(sub) / sub as a composition table with coset reps: the
    group side of the identity Aut(E) = N(H)/H that the tests check
    against the field side."""
    return quotient(normalizer(ambient, sub), sub)


def expand(factors) -> UniPoly:
    """The product of a nonempty tuple of factors."""
    acc = factors[0]
    for g in factors[1:]:
        acc = acc * g
    return acc


def distinct_parts(draw, count):
    """(parts, product): count parts from ``draw()``, skipping each draw
    that would make the product not squarefree (one equal to, or sharing
    a factor with, a part already drawn)."""
    parts, prod = [], None
    while len(parts) < count:
        g = draw()
        candidate = g if prod is None else prod * g
        if squarefree_by_euclid(candidate):
            parts.append(g)
            prod = candidate
    return parts, prod


def named_perm_group(name) -> PermGroup:
    """The group ``perm.named_group`` names, built from its generator
    text as ``realize --named`` builds it."""
    _, n, gens = named_group(name)
    return parse_generators(gens, n)[0]


def accepted_records(cert):
    """The accepted records of a run, in search order."""
    return [rec for rec in cert.transcript if rec.status == "accepted"]


def theta0_image(state, rec):
    """The image in an accepted record's field E of L's generator, as
    ``specialize_and_verify`` embeds it."""
    return embed_generator(state.L.field, state.cubic_at(rec.t0), rec.field, state.c).base
