"""Number fields as explicit Q-algebras.

A field is Q[Z]/(g) for a monic irreducible g with rational
coefficients; an element is a residue polynomial stored as an integer
coordinate vector over one positive denominator, in lowest terms.  The
field keeps the reductions of Z^d, ..., Z^(2d-2) mod g as integer rows
over one common denominator, so a product is an integer convolution, a
row reduction and one gcd normalisation.  An inverse solves the integer
linear system of multiplication by the element fraction-free (Bareiss)
and is checked by one exact product.  Everything downstream needs only
this single flattened shape: towers are collapsed to one primitive
element as soon as they appear.

Factoring over a field uses Trager's method: shift by a multiple of the
generator until the resultant norm is squarefree, factor the norm over Q,
pull factors back by gcd.  Every norm -- Trager norms, characteristic
polynomials, primitive elements of extensions, and the pipeline's q(T, X)
-- comes from the one helper :func:`shifted_norm`, which evaluates element
norms at rational sample points and interpolates, keeping all resultant
work univariate over Z.  Squarefree decomposition is
``factor.yun_squarefree_decomposition`` (it works over any field), and
images of a generator in a larger field come from :func:`embed_generator`.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import CapExceededError, VerificationError
from .exact import (
    UniPoly,
    interpolate,
    is_squarefree,
    poly_divrem,
    poly_gcd,
    resultant_std,
)
from .factor import (
    Factorization,
    factor_over_Q,
    find_rational_factors_of_degree,
    is_irreducible_Q,
    squarefree_part,
    yun_squarefree_decomposition,
)
from .perm import AbstractGroup, PermGroup, Permutation

logger = logging.getLogger(__name__)

SPLITTING_DEGREE_CAP = 24

#: deterministic shift sequence 1, -1, 2, -2, ...
def shift_sequence():
    k = 1
    while True:
        yield k
        yield -k
        k += 1


class NumberField:
    """Q[Z]/(g) for monic irreducible g; degree 1 models Q itself."""

    def __init__(self, modulus: UniPoly, trusted=False):
        if modulus.field is not None:
            raise ValueError("modulus must have rational coefficients")
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not trusted and modulus.degree > 1 and not is_irreducible_Q(modulus):
            raise ValueError(f"modulus is reducible: {modulus!r}")
        self.modulus = modulus.with_var("Z")
        self.modulus_coeffs = self.modulus.coeffs
        self._hash = hash(self.modulus_coeffs)
        self.degree = d = modulus.degree
        # Z**(d+k) = rows[k] / row_den mod g, as integer rows over one
        # common denominator (1 when g is integral)
        rows = [[-c for c in self.modulus_coeffs[:-1]]]
        for _ in range(d - 2):
            prev = rows[-1]
            rows.append([prev[-1] * r + s for r, s in zip(rows[0], [0] + prev[:-1])])
        den = lcm(*(c.denominator for row in rows for c in row))
        self._rows = [[int(c * den) for c in row] for row in rows]
        self._row_den = den

    @classmethod
    def rationals(cls):
        """Degree-1 field Q[Z]/(Z), generator 0; stands in for Q."""
        return cls(UniPoly.gen("Z"), trusted=True)

    def __repr__(self):
        return f"NumberField({self.modulus!r})"

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.modulus_coeffs == other.modulus_coeffs
        )

    def __hash__(self):
        return self._hash

    # -- element constructors -------------------------------------------

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            rem = poly_divrem(UniPoly(coords, "Z"), self.modulus)[1]
            coords = list(rem.coeffs)
        den = lcm(*(c.denominator for c in coords))
        num = [c.numerator * (den // c.denominator) for c in coords]
        return self._make(num + [0] * (self.degree - len(num)), den)

    def zero(self):
        return NfElement(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        return self.element((0, 1))

    def from_rational(self, c):
        c = Fraction(c)
        return NfElement(
            self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator
        )

    def _make(self, num, den):
        """The element num/den in lowest terms (den > 0 on input)."""
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return NfElement(self, tuple(num), den)

    def _mul(self, a, b):
        """Integer vector p with a * b = p / row_den, for integer
        coordinate vectors a and b: schoolbook product, then each Z**(d+k)
        replaced by its reduction row."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                prod[i : i + d] = [p + x * y for p, y in zip(prod[i : i + d], b)]
        out = prod[:d]
        if self._row_den != 1:
            out = [self._row_den * c for c in out]
        for c, row in zip(prod[d:], self._rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def norm(self, e: "NfElement") -> Fraction:
        """Product of e over all embeddings; the resultant of the modulus
        with e's coordinate polynomial."""
        if e.owner is not self and e.owner.modulus_coeffs != self.modulus_coeffs:
            raise ValueError("element of a different field")
        h = e.to_poly()
        if h.is_zero:
            return Fraction(0)
        return resultant_std(self.modulus, h)


class NfElement:
    """An element num/den of a NumberField, in the basis 1, Z, Z^2, ...

    ``num`` is a tuple of integers and ``den`` a positive integer sharing
    no factor with all of them, so each element has one representation
    (zero has den 1) and ``==``/``hash`` compare it directly.  ``coords``
    gives the same element as a tuple of Fractions.  Arithmetic is on
    integers with one gcd normalisation per result; the inverse solves
    the integer linear system of multiplication by the element
    fraction-free (Bareiss) and is checked by one exact product.
    """

    __slots__ = ("owner", "num", "den")

    def __init__(self, owner, num, den):
        self.owner = owner
        self.num = num
        self.den = den

    @property
    def coords(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def to_poly(self) -> UniPoly:
        return UniPoly(self.coords, "Z")

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, NfElement):
            return (
                self.num == other.num
                and self.den == other.den
                and (
                    self.owner is other.owner
                    or self.owner.modulus_coeffs == other.owner.modulus_coeffs
                )
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.owner._hash, self.num, self.den))

    def sort_key(self):
        return self.coords

    def __repr__(self):
        return f"NfElement({self.to_poly()!r})"

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return self.owner.from_rational(other)
        if isinstance(other, NfElement):
            if (
                other.owner is not self.owner
                and other.owner.modulus_coeffs != self.owner.modulus_coeffs
            ):
                raise ValueError("elements of different fields")
            return other
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            num = [x * db + y * da for x, y in zip(self.num, other.num)]
            da *= db
        return self.owner._make(num, da)

    __radd__ = __add__

    def __neg__(self):
        return NfElement(self.owner, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return self.owner._make(
                [x * other.numerator for x in self.num],
                self.den * other.denominator,
            )
        other = self._lift(other)
        if other is None:
            return NotImplemented
        K = self.owner
        den = self.den * other.den * K._row_den
        return K._make(K._mul(self.num, other.num), den)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self: x with M x = e_0, where column j of the integer
        matrix M is num * Z^j times row_den^j, solved fraction-free;
        raises VerificationError when M is singular (a zero divisor, so
        the modulus is reducible) or the exact check fails."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        K = self.owner
        d = K.degree
        cols = [list(self.num)]
        for _ in range(d - 1):
            cols.append(K._mul((0, 1), cols[-1]))  # times Z
        solved = _solve_fraction_free(
            [list(row) for row in zip(*cols)], [1] + [0] * (d - 1)
        )
        if solved is None:
            raise VerificationError("modulus is not irreducible")
        det, y = solved
        if det < 0:
            det, y = -det, [-c for c in y]
        q = K._row_den
        inv = K._make([self.den * q**j * c for j, c in enumerate(y)], det)
        if self * inv != K.one():
            raise VerificationError("inverse fails its exact check")
        return inv

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.owner.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


def _solve_fraction_free(A, b):
    """(D, Y) with A (Y / D) = b for a nonsingular square integer matrix
    A, or None when A is singular.

    Bareiss elimination (Math. Comp. 22, 1968) keeps every entry an
    integer minor, so each division is exact; D = +-det A, and Y = D * x
    is integral by Cramer's rule, so back substitution divides exactly too.
    """
    n = len(A)
    M = [row + [c] for row, c in zip(A, b)]
    prev = 1
    for k in range(n):
        if not M[k][k]:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return None
            M[k], M[swap] = M[swap], M[k]
        rowk = M[k]
        pk = rowk[k]
        for i in range(k + 1, n):
            rowi = M[i]
            f = rowi[k]
            M[i] = [0] * (k + 1) + [
                (pk * rowi[j] - f * rowk[j]) // prev for j in range(k + 1, n + 1)
            ]
        prev = pk
    D = prev
    Y = [0] * n
    for i in range(n - 1, -1, -1):
        row = M[i]
        acc = D * row[n] - sum(row[j] * Y[j] for j in range(i + 1, n))
        Y[i] = acc // row[i]
    return D, Y


# -- minimal polynomials ----------------------------------------------------


def charpoly(a: NfElement, var="X") -> UniPoly:
    """Characteristic polynomial of a over Q: prod over embeddings of
    (X - sigma(a)), degree = field degree; the norm of X - a."""
    K = a.owner
    return shifted_norm(UniPoly([-a, K.one()], var, K), K, 0)[1]


def minpoly(a: NfElement, var="X") -> UniPoly:
    """Monic minimal polynomial of a over Q.

    The characteristic polynomial is a power of it, so its squarefree
    part is exactly the minimal polynomial.
    """
    if a.is_rational:
        return UniPoly([-a.coords[0], 1], var)
    return squarefree_part(charpoly(a, var)).with_var(var)


# -- norms and Trager factorization ----------------------------------------


def shifted_norm(f: UniPoly, K: NumberField, s):
    """(g, N) with g = f(X - s*theta) over K and N = Norm_{K/Q}(g) over Q.

    N has degree [K:Q] * deg f; it is interpolated through the element
    norms of g at X = 0, 1, ..., deg N.
    """
    g = f.compose(UniPoly([K.gen() * (-s), K.one()], f.var, K)) if s else f
    points = [Fraction(x) for x in range(K.degree * f.degree + 1)]
    values = [K.norm(g.eval(K.from_rational(x))) for x in points]
    return g, interpolate(points, values, f.var)


def _sqf_norm(f: UniPoly, K: NumberField):
    """Find shift s with N(X) = Norm(f(X - s*theta)) squarefree.

    Returns (s, shifted f over K, N over Q).  f must be monic squarefree
    over K.  s = 0 is tried first only when some coefficient of f is
    irrational: for rational f the norm at s = 0 is f^[K:Q], never
    squarefree when [K:Q] >= 2.
    """
    shifts = shift_sequence()
    if not all(c.is_rational for c in f.coeffs):
        shifts = chain((0,), shifts)
    for s in shifts:
        g, N = shifted_norm(f, K, s)
        if is_squarefree(N):
            return s, g, N
    raise VerificationError("unreachable: no squarefree-norm shift found")


def factor_over_nf(f: UniPoly, K: NumberField) -> Factorization:
    """Complete factorization over K into monic irreducibles (Trager)."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.field is None:
        f = f.map_coeffs(K.from_rational, field=K)
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit, ())
    pairs = []
    for g, mult in yun_squarefree_decomposition(f):
        if g.degree == 1:
            pairs.append((g, mult))
            continue
        s, shifted, N = _sqf_norm(g, K)
        theta = K.gen()
        rem = shifted
        for Ni, _ in factor_over_Q(N).factors:
            if rem.degree <= 0:
                break
            Gi = poly_gcd(rem, Ni.to_field(K).with_var(rem.var))
            if Gi.degree >= 1:
                back = (
                    Gi.compose(UniPoly([theta * s, K.one()], g.var, K))
                    if s
                    else Gi.with_var(g.var)
                )
                pairs.append((back.monic(), mult))
                rem = poly_divrem(rem, Gi)[0]
        if rem.degree > 0:
            raise VerificationError("Trager pullback did not exhaust the input")
    pairs.sort(key=lambda p: (p[0].degree, tuple(c.sort_key() for c in p[0].coeffs)))
    return Factorization(unit, tuple(pairs))


def roots_in_field(f: UniPoly, K: NumberField):
    """All roots of f lying in K, sorted by coordinates.

    Implemented as a targeted search: a root of f in K corresponds to an
    irreducible degree-[K:Q] factor of the squarefree Trager norm whose
    gcd with f over K is linear, so only norm factors of that one degree
    are ever assembled.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has every element as a root")
    if f.field is None:
        f = f.map_coeffs(K.from_rational, field=K)
    if f.degree < 1:
        return []
    d = K.degree
    part = squarefree_part(f)
    if part.degree == 1:
        return [-part.coeffs[0]]
    s, shifted, N = _sqf_norm(part, K)
    theta = K.gen()
    roots = []
    for Ni in find_rational_factors_of_degree(N, d):
        Gi = poly_gcd(shifted, Ni.to_field(K).with_var(shifted.var))
        if Gi.degree == 1:
            rho = -Gi.coeffs[0] / Gi.coeffs[1] - theta * s
            if part.eval(rho):
                raise VerificationError("pullback root fails to annihilate")
            roots.append(rho)
    return sorted(set(roots), key=NfElement.sort_key)


# -- automorphisms ----------------------------------------------------------


class AutomorphismTable:
    """All automorphisms of K/Q: generator images plus a composition table.

    maps[0] is the identity (generator fixed); table is an AbstractGroup
    with matching indices.
    """

    def __init__(self, K: NumberField, maps):
        self.field = K
        gen = K.gen()
        maps = sorted(maps, key=NfElement.sort_key)
        ident = maps.index(gen)
        maps[0], maps[ident] = maps[ident], maps[0]
        # keep the non-identity block deterministic after the swap
        maps = [maps[0]] + sorted(maps[1:], key=NfElement.sort_key)
        self.maps = tuple(maps)
        for m in self.maps:
            if K.modulus.eval(m):
                raise VerificationError("automorphism image is not a root")
        table = composition_table(self.maps)
        if any(None in row for row in table):
            raise VerificationError("composite of two automorphisms is not listed")
        self.group = AbstractGroup(table)

    @property
    def order(self):
        return len(self.maps)

    def apply(self, i, e: NfElement) -> NfElement:
        """Image of e under the i-th automorphism."""
        return e.to_poly().eval(self.maps[i])


def composition_table(maps):
    """table[a][b] = index in maps of the composite sigma_a . sigma_b, or
    None where it is not listed; maps are generator images.

    (sigma_a . sigma_b)(Z) = sigma_a(b(Z)) = coords_b evaluated at a.
    """
    index = {(m.num, m.den): i for i, m in enumerate(maps)}
    rows = ([b.to_poly().eval(a) for b in maps] for a in maps)
    return [[index.get((m.num, m.den)) for m in row] for row in rows]


def automorphisms(K: NumberField) -> AutomorphismTable:
    """Automorphism table of K/Q; one map per root of the modulus in K."""
    return AutomorphismTable(K, roots_in_field(K.modulus, K))


# -- field extension / primitive elements -----------------------------------


def extend_field(K: NumberField, h: UniPoly):
    """Adjoin a root of h (monic irreducible over K); flatten to one
    primitive element.

    Returns (K2, theta_image, beta) where theta_image is the image of
    K's generator inside K2 and beta is a root of (the coefficient-mapped)
    h in K2.  The new generator is beta + c*theta for the shift c that
    :func:`_sqf_norm` finds.
    """
    if h.field is None:
        h = h.map_coeffs(K.from_rational, field=K)
    if not h.is_monic():
        h = h.monic()
    if h.degree == 1:
        return K, K.gen(), -h.coeffs[0]
    # z = beta + c*theta; minimal polynomial = Norm(h(X - c*theta)),
    # irreducible whenever squarefree (norm of an irreducible is a power
    # of an irreducible)
    c, _, N = _sqf_norm(h, K)
    K2 = NumberField(N.with_var("Z"), trusted=True)
    theta2 = embed_generator(K, h, K2, c)
    return K2, theta2, K2.gen() - theta2 * c


def embed_generator(K, h, K2, c):
    """Image of K's generator theta in K2, where K2's generator z is
    beta + c*theta for a root beta of h (a polynomial over K).

    theta2 is the unique common root in K2 of K's modulus and of
    H(W) = sum_i coords(h_i)(W) * (z - c*W)^i: the gcd of the two is
    linear.
    """
    gK2 = K.modulus.with_var("W").to_field(K2)
    acc = UniPoly.zero("W", K2)
    lin = UniPoly([K2.gen(), K2.from_rational(-c)], "W", K2)  # z - c*W
    power = UniPoly.one("W", K2)
    for hi in h.coeffs:
        ci = hi.to_poly().with_var("W").to_field(K2)
        acc = acc + ci * power
        power = power * lin
    g = poly_gcd(gK2, acc)
    if g.degree != 1:
        raise VerificationError("generator embedding gcd is not linear")
    theta2 = -g.coeffs[0] / g.coeffs[1]
    if K.modulus.eval(theta2):
        raise VerificationError("embedded generator is not a root of the modulus")
    return theta2


# -- splitting fields -------------------------------------------------------


class SplittingField:
    """A splitting field with explicit roots and Galois action.

    ``roots`` are sorted by coordinates; ``galois`` acts on the 1-based
    root indices; automorphism i sends the generator to ``autos.maps[i]``
    and corresponds to ``perms[i]``.
    """

    def __init__(self, field, poly, roots, autos, perms):
        self.field = field
        self.poly = poly
        self.roots = tuple(roots)
        self.autos = autos
        self.perms = tuple(perms)
        self.galois = PermGroup.from_elements(perms, len(roots))
        self._aut_of_perm = {p: i for i, p in enumerate(perms)}

    @property
    def degree(self):
        return self.field.degree

    def aut_index_for_perm(self, perm: Permutation) -> int:
        return self._aut_of_perm[perm]


def splitting_field(f: UniPoly, max_degree=SPLITTING_DEGREE_CAP) -> SplittingField:
    """Splitting field of a squarefree rational polynomial, with the
    Galois group as permutations of the sorted root list."""
    if f.field is not None:
        raise ValueError("expects a rational polynomial")
    if f.degree < 1:
        raise ValueError("needs degree >= 1")
    if not is_squarefree(f):
        raise ValueError("expects a squarefree polynomial")
    K = NumberField.rationals()
    work = f.monic().map_coeffs(K.from_rational, field=K)
    roots: list = []
    while True:
        nonlinear = None
        fresh_roots = []
        for g, _ in factor_over_nf(work, K).factors:
            if g.degree == 1:
                fresh_roots.append(-g.coeffs[0] / g.coeffs[1])
            elif nonlinear is None or g.degree < nonlinear.degree:
                nonlinear = g
        if nonlinear is None:
            roots = fresh_roots
            break
        new_deg = K.degree * nonlinear.degree
        if new_deg > max_degree:
            raise CapExceededError(
                f"splitting field degree would reach {new_deg}, "
                f"exceeding the cap {max_degree}"
            )
        K2, theta2, beta = extend_field(K, nonlinear)
        remap = lambda e: e.to_poly().eval(theta2)  # noqa: E731
        work = work.map_coeffs(remap, field=K2)
        K = K2
    roots.sort(key=NfElement.sort_key)
    # reconstruct f from the roots as a sanity check
    acc = UniPoly.one(f.var, K)
    for r in roots:
        acc = acc * UniPoly([-r, K.one()], f.var, K)
    target = f.monic().map_coeffs(K.from_rational, field=K)
    if acc != target:
        raise VerificationError("root product does not reconstruct the input")
    autos = automorphisms(K)
    if autos.order != K.degree:
        raise VerificationError(
            "splitting field is not Galois: automorphism count "
            f"{autos.order} != degree {K.degree}"
        )
    index_of = {r.coords: i + 1 for i, r in enumerate(roots)}
    perms = []
    for i in range(autos.order):
        images = [index_of[autos.apply(i, r).coords] for r in roots]
        perms.append(Permutation(images))
    return SplittingField(K, f.monic(), roots, autos, perms)


# -- fixed fields -----------------------------------------------------------


def fixed_field(Lsp: SplittingField, H: PermGroup):
    """A generator y of the subfield of L fixed by H, with its minimal
    polynomial over Q.

    Deterministic search: orbit sums of theta^j for j = 1, 2, ...; if
    none reaches the target degree, orbit sums of theta^j + j*theta.
    """
    if not H.elements <= Lsp.galois.elements:
        raise ValueError("H must be a subgroup of the Galois group")
    K = Lsp.field
    d = K.degree
    target = d // H.order
    theta = K.gen()
    aut_ids = [Lsp.aut_index_for_perm(p) for p in sorted(H.elements)]

    def orbit_sum(e):
        acc = K.zero()
        for i in aut_ids:
            acc = acc + Lsp.autos.apply(i, e)
        return acc

    candidates = [theta**j for j in range(1, d + 1)]
    candidates += [theta**j + theta * j for j in range(2, d + 1)]
    for cand in candidates:
        y = orbit_sum(cand)
        p = minpoly(y)
        if p.degree == target:
            for i in aut_ids:
                if Lsp.autos.apply(i, y) != y:
                    raise VerificationError("orbit sum not fixed by H")
            return y, p
    raise VerificationError("no fixed-field generator found in the search family")
