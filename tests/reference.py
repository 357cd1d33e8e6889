"""Reference implementations the tests compare the package against.

Each is the plain textbook version of something the package computes
another way, kept here because only tests use it: the extended Euclidean
algorithm (and the number-field inverse it gives), the Sylvester-matrix
resultant, normalizers, normality and quotient groups by direct scan, and the
product of a factorization.
"""

from fractions import Fraction

from autrealize.errors import VerificationError
from autrealize.exact import UniPoly, poly_divrem
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
    """Sylvester-determinant resultant, in the convention of
    ``exact.resultant``: lc(g)^deg f * prod of f over the roots of g."""
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
    # (g, f) is resultant(f, g) in this convention
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


def normalizer(ambient, sub):
    """N_ambient(sub) by direct scan."""
    if not sub.elements <= ambient.elements:
        raise ValueError("sub must be contained in ambient")
    keep = [
        g
        for g in ambient.elements
        if all(
            g * h * g.inverse() in sub.elements
            for h in sub.generators or [Permutation.identity(sub.degree)]
        )
        and all(g * h * g.inverse() in sub.elements for h in sub.elements)
    ]
    return PermGroup.from_elements(keep, ambient.degree)


def quotient(group, normal):
    """Quotient group as an AbstractGroup plus lex-minimal coset
    representatives.  Raises unless ``normal`` is normal in ``group``."""
    if not normal.elements <= group.elements:
        raise ValueError("normal must be contained in group")
    if not all(
        g * h * g.inverse() in normal.elements
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
