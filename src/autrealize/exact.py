"""Exact arithmetic: number fields, with Q as the degree-1 one, and
polynomials over them.

A field is Q[Z]/(g) for a monic irreducible g with rational
coefficients; an element is a residue polynomial stored as an integer
coordinate vector over one positive denominator, in lowest terms.  Q
itself is ``QQ`` = Q[Z]/(Z), and every rational the package computes
with is an element of it: one integer over one positive denominator,
compared, hashed and normalised like any other element.  Rationals from
outside (ints, and values with integer ``numerator`` and
``denominator``, such as those of the standard ``fractions`` module) are
accepted wherever an element is, and read by those two attributes; the
package never imports ``fractions``.  A rational multiplies an element
coordinate by coordinate; other products are an integer convolution, a
row reduction and one gcd normalisation, for the field keeps the
reductions of Z^d, ..., Z^(2d-2) mod g as integer rows over one common
denominator, built at its first product.  An inverse solves the integer
linear system of multiplication by the element fraction-free (Bareiss)
and is checked by one exact product.  Everything downstream needs only
this single flattened shape: towers are collapsed to one primitive
element as soon as they appear (``numfield``).  A field reads its
modulus modulo primes through one record, ``NumberField.reductions`` (a
``factor.Reductions``), which every reader shares.

Polynomials are dense.  ``UniPoly`` is univariate with an ascending
coefficient list and carries the ring arithmetic; it is its coefficients,
elements of one field (QQ or a number field), and names no variable.
The gcd is Euclid's over either.  Discriminants, interpolation and
``BiPoly`` are over Q only.  A discriminant reads its polynomial as
integers over one denominator (``_int_clear``) and is one subresultant
over Z; resultants are not public.  Interpolation takes its values at
0, 1, ..., n and runs over Z, dividing once at the end.
``BiPoly`` is bivariate in (T, X) with a coefficient matrix indexed by
(power of T, power of X); it holds the cubic family X^3 + TX + T for
the family's bad set, and is only built, compared and specialized at
rational T = t0.

Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .errors import SpecParseError, VerificationError


def _ratio(c):
    """(numerator, denominator) of a rational: an element of a degree-1
    field, or an int or foreign rational, read by its ``numerator`` and
    ``denominator``; None for anything else."""
    if isinstance(c, NfElement):
        return (c.num[0], c.den) if c.owner.degree == 1 else None
    try:
        return c.numerator, c.denominator
    except AttributeError:
        return None


class NumberField:
    """Q[Z]/(g) for monic g that the caller has proved irreducible (by a
    squarefree norm or ``is_irreducible_Q``); degree 1 models Q itself,
    and ``QQ`` is the one field the package uses for it."""

    def __init__(self, modulus: UniPoly):
        if modulus.field is not QQ:
            raise ValueError("modulus must have rational coefficients")
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        self.modulus = modulus
        self.modulus_coeffs = modulus.coeffs
        self.degree = modulus.degree
        self._hash = hash(tuple(_int_clear(self.modulus)[0]))
        self._tau = [self.degree]  # power sums of mu^d g(X / mu), see power_traces

    # Everything below that costs more than O(d) is built at its first
    # use, so a field that is only read modulo primes (one past the
    # factorization cap, say) is built in linear time.

    @cached_property
    def _scaled(self):
        """(mu, h): g = G / mu over the integers, and h the coefficients
        below the leading one of mu^d g(X / mu), integral: d powers of mu,
        O(d^2 log mu) bits."""
        G, mu = _int_clear(self.modulus)
        return mu, [c * mu ** (self.degree - 1 - k) for k, c in enumerate(G[:-1])]

    @cached_property
    def _reduction(self):
        """(rows, den) with Z**(d+k) = rows[k] / den mod g: integer rows
        over their least common denominator (1 when g is integral), d^2
        entries built at the first product."""
        # g = G / mu over integers; Z**(d+k) = rows[k] / mu**(k+1) mod g
        G, mu = _int_clear(self.modulus)
        rows = [[-c for c in G[:-1]]]
        for _ in range(self.degree - 2):
            prev = rows[-1]
            shifted = [0] + prev[:-1]
            rows.append([prev[-1] * r + mu * s for r, s in zip(rows[0], shifted)])
        dens = [mu ** (k + 1) // gcd(mu ** (k + 1), *row) for k, row in enumerate(rows)]
        den = lcm(*dens)
        return [
            [c * den // mu ** (k + 1) for c in row] for k, row in enumerate(rows)
        ], den

    @cached_property
    def reductions(self):
        """The modulus read modulo primes (``factor.Reductions``): every
        reader of the field's primes -- irreducibility, the completeness
        search and check, the table's root, distinctness -- shares it."""
        from .factor import Reductions  # factor computes with this module

        return Reductions(self.modulus)

    def __repr__(self):
        return f"NumberField({self.modulus!r})"

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.modulus_coeffs == other.modulus_coeffs
        )

    # -- element constructors -------------------------------------------

    def element(self, coords):
        """The element with these rational coordinates, reduced modulo g
        when there are more than [K:Q] of them."""
        f = UniPoly(coords)
        if f.degree >= self.degree:
            f = poly_divrem(f, self.modulus)[1]
        num, den = _int_clear(f)
        return self._make(num + [0] * (self.degree - len(num)), den)

    def zero(self):
        return NfElement(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        return self.element((0, 1))

    def from_rational(self, c):
        """The rational c (see ``_ratio``) as an element; a TypeError for
        anything else."""
        r = _ratio(c)
        if r is None:
            raise TypeError(f"cannot coerce {c!r} into {self!r}")
        return NfElement(self, (r[0],) + (0,) * (self.degree - 1), r[1])

    def coerce(self, c):
        """c itself if it is an element of this field, else the rational c
        as one; a ValueError for an element of another field of degree
        above 1."""
        if isinstance(c, NfElement):
            if c.owner is self or c.owner.modulus_coeffs == self.modulus_coeffs:
                return c
            if c.owner.degree > 1:
                raise ValueError("coefficient belongs to a different number field")
        return self.from_rational(c)

    def _make(self, num, den):
        """The element num/den in lowest terms (den > 0 on input)."""
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return NfElement(self, tuple(num), den)

    def _mul(self, a, b):
        """Integer vector p with a * b = p / den, for integer
        coordinate vectors a and b and the reduction rows' den: schoolbook
        product, then each Z**(d+k) replaced by its reduction row."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                prod[i : i + d] = [p + x * y for p, y in zip(prod[i : i + d], b)]
        out = prod[:d]
        rows, den = self._reduction
        if den != 1:
            out = [den * c for c in out]
        for c, row in zip(prod[d:], rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def power_traces(self, count):
        """(mu, tau) with Tr(Z^i) = tau[i] / mu^i for i < count, where mu
        is the common denominator of the modulus g, so that mu*Z is a root
        of the monic integer polynomial mu^d g(X / mu) and each tau[i] is
        the integer power sum of its roots (Newton's identities)."""
        (mu, h), tau, d = self._scaled, self._tau, self.degree
        for i in range(len(tau), count):
            acc = i * h[d - i] if i <= d else 0
            for j in range(1, min(i - 1, d) + 1):
                acc += h[d - j] * tau[i - j]
            tau.append(-acc)
        return mu, tau


class NfElement:
    """An element num/den of a NumberField, in the basis 1, Z, Z^2, ...

    ``num`` is a tuple of integers and ``den`` a positive integer sharing
    no factor with all of them, so each element has one representation
    (zero has den 1) and ``==``/``hash`` compare it directly.  A rational
    (an element of QQ, an int or a foreign rational) is lifted into the
    field wherever it meets an element, and elements of degree-1 fields
    are ordered as rationals.  ``qcoords`` gives the coordinates as
    elements of QQ; ``coords`` gives them as values of the standard
    ``fractions`` module, for callers outside the package.  Arithmetic
    is on integers with one gcd normalisation per result; the inverse
    solves the integer linear system of multiplication by the element
    fraction-free (Bareiss) and is checked by one exact product.
    """

    __slots__ = ("owner", "num", "den")

    def __init__(self, owner, num, den):
        self.owner = owner
        self.num = num
        self.den = den

    @property
    def coords(self):
        """The coordinates as ``fractions.Fraction``s, for callers outside
        the package: no package code path reads them, so none loads
        ``fractions``."""
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def qcoords(self):
        """The coordinates as elements of QQ."""
        return tuple(_rational(c, self.den) for c in self.num)

    def to_poly(self) -> UniPoly:
        return UniPoly(self.qcoords)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def _same_field(self, other):
        return isinstance(other, NfElement) and (
            other.owner is self.owner
            or other.owner.modulus_coeffs == self.owner.modulus_coeffs
        )

    def __eq__(self, other):
        if self._same_field(other):
            return self.num == other.num and self.den == other.den
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self.is_rational and self.num[0] * r[1] == r[0] * self.den

    def __hash__(self):
        return hash((self.owner._hash, self.num, self.den))

    def __lt__(self, other):
        """The order of Q, between rationals (``>`` is this, reflected)."""
        a, b = _ratio(self), _ratio(other)
        if a is None or b is None:
            return NotImplemented
        return a[0] * b[1] < b[0] * a[1]

    def sort_key(self):
        """The coordinates as rationals: elements sort as the tuples of
        their ``coords`` would."""
        return self.qcoords

    def __str__(self):
        return render_rational(self) if self.owner.degree == 1 else repr(self)

    def __repr__(self):
        return f"NfElement({self.to_poly()!r})"

    def _pair(self, other):
        """(self, other) as elements of one field, a rational lifted into
        the other's field; None (the operation is not ours) for anything
        that is neither an element nor a rational."""
        if self._same_field(other):
            return self, other
        if _ratio(other) is not None:
            return self, self.owner.from_rational(other)
        if not isinstance(other, NfElement):
            return None
        if self.owner.degree > 1:
            raise ValueError("elements of different fields")
        return other.owner.from_rational(self), other

    def __add__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        a, b = pair
        da, db = a.den, b.den
        if da == db:
            num = [x + y for x, y in zip(a.num, b.num)]
        else:
            num = [x * db + y * da for x, y in zip(a.num, b.num)]
            da *= db
        return a.owner._make(num, da)

    __radd__ = __add__

    def __neg__(self):
        return NfElement(self.owner, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        a, b = pair
        if not any(a.num[1:]):
            a, b = b, a  # the rational, if either is one, second
        K = a.owner
        if not any(b.num[1:]):  # a rational scales the coordinates
            c = b.num[0]
            return K._make([x * c for x in a.num], a.den * b.den)
        den = a.den * b.den * K._reduction[1]
        return K._make(K._mul(a.num, b.num), den)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self: x with M x = e_0, where column j of the integer
        matrix M is num * Z^j times den^j, for the reduction rows' den,
        solved fraction-free;
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
        q = K._reduction[1]
        inv = K._make([self.den * q**j * c for j, c in enumerate(y)], det)
        if self * inv != K.one():
            raise VerificationError("inverse fails its exact check")
        return inv

    def __truediv__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        return pair[0] * pair[1].inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
    integer minor, so each division is exact; D = |det A|, and Y = D * x
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
    if D < 0:
        D, Y = -D, [-y for y in Y]
    return D, Y


def _rational(n, d=1):
    """The rational n / d, for integers n and d > 0, as an element of QQ."""
    return QQ._make((n,), d)


def render_rational(q) -> str:
    """Canonical text form "p/q" of a rational, with "/q" omitted when
    q == 1."""
    n, d = _ratio(q)
    return str(n) if d == 1 else f"{n}/{d}"


def parse_rational(s: str) -> NfElement:
    """The rational s, an element of QQ, if s is its canonical text;
    anything else ("2/2", " 1 ", a JSON number) raises SpecParseError."""
    num, _, den = s.partition("/") if isinstance(s, str) else ("", "", "")
    try:
        n, d = int(num), int(den or "1")
    except ValueError:
        d = 0
    if d <= 0 or render_rational(q := _rational(n, d)) != s:
        raise SpecParseError(f"not a canonical rational: {s!r}")
    return q


class UniPoly:
    """Dense univariate polynomial over an exact field.

    ``coeffs`` is ascending: coeffs[i] is the coefficient of X**i.
    The leading coefficient is nonzero unless the polynomial is zero
    (empty coefficient list).  ``field`` is the NumberField the
    coefficients are elements of; the default None means QQ.  No
    variable is named: a polynomial is its coefficients, and it is
    printed in X.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=None):
        K = self.field = field or QQ
        cs = [K.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field=None):
        return cls((), field)

    @classmethod
    def one(cls, field=None):
        return cls((1,), field)

    @classmethod
    def constant(cls, c, field=None):
        return cls((c,), field)

    @classmethod
    def gen(cls, field=None):
        return cls((0, 1), field)

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*X")
            else:
                parts.append(f"({c})*X^{i}")
        return " + ".join(parts)

    def _check_compat(self, other):
        if (self.field is QQ) != (other.field is QQ):
            raise ValueError("coefficient field mismatch")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other, self.field)
        self._check_compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)], self.field)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.field)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other, self.field)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = self.field.coerce(other)
            return UniPoly([a * c for a in self.coeffs], self.field)
        self._check_compat(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.field)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.lc()
        if lc == 1:
            return self
        return self * lc.inverse()

    def eval(self, x):
        """Evaluate by Horner; ``x`` may live in an extension of the
        coefficient field (e.g. a rational polynomial at an NfElement)."""
        if self.is_zero:
            return x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Substitute ``inner`` for the variable (result over inner's field)."""
        acc = UniPoly.zero(inner.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c, inner.field)
        return acc

    def map_coeffs(self, fn, field=None):
        return UniPoly([fn(c) for c in self.coeffs], field)


def poly_divrem(f: UniPoly, g: UniPoly):
    """Exact division with remainder: f = q*g + r, deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_compat(g)
    field = f.field
    if f.degree < g.degree:
        return UniPoly.zero(field), f
    lc_inv = g.lc().inverse()
    rem = list(f.coeffs)
    dg = g.degree
    quot = [field.zero()] * (len(rem) - dg)
    gcs = g.coeffs
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if not c:
            continue
        q = c * lc_inv
        quot[k] = q
        for j in range(dg + 1):
            rem[k + j] = rem[k + j] - q * gcs[j]
    return UniPoly(quot, field), UniPoly(rem[:dg], field)


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm, over Q or a number field.
    Each remainder is made monic, so no leading coefficient is inverted
    twice."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials")
    f._check_compat(g)
    a, b = f, g
    while not b.is_zero:
        b = b.monic()
        a, b = b, poly_divrem(a, b)[1]
    return a.monic()


# -- discriminants --------------------------------------------------------
#
# Over Q only, on integers: a rational f of degree d is den * f = F with
# integer coefficients (``_int_clear``), and
#
#   disc(f) = (-1)^(d(d-1)/2) * Res(F, F') / lc(F) / den^(2d-2),
#
# with Res(F, F') = lc(F)^(d-1) * prod_{F(a)=0} F'(a) taken by the
# subresultant PRS over Z (``_int_res_std``), which lc(F) divides.  Field
# norms come from power sums (``numfield.shifted_norms``), with no
# resultant.


def _int_clear(f: UniPoly):
    """Write a rational poly as (int coeff list, least common denominator)."""
    den = lcm(*(c.den for c in f.coeffs))
    return [c.num[0] * (den // c.den) for c in f.coeffs], den


def _ideg(a):
    return len(a) - 1


def _gtrim(a):
    """Drop trailing zeros of an integer polynomial in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _iprimitive(a):
    """(content, primitive part) of an integer polynomial; (0, []) for 0."""
    c = gcd(*a)
    return (c, [x // c for x in a]) if c else (0, [])


def _int_prem(A, B):
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B (ascending)."""
    da, db = _ideg(A), _ideg(B)
    lb = B[-1]
    R = list(A)
    steps = da - db + 1
    while len(R) - 1 >= db and any(R):
        _gtrim(R)
        if len(R) - 1 < db:
            break
        d = len(R) - 1
        lr = R[-1]
        R = [lb * c for c in R]
        for j in range(db + 1):
            R[d - db + j] -= lr * B[j]
        R.pop()
        _gtrim(R)
        steps -= 1
    if steps > 0:
        m = lb**steps
        R = [c * m for c in R]
    return R


def _int_res_std(A, B):
    """Standard resultant of nonzero integer polys (ascending lists):
    lc(A)^deg(B) * prod_{A(a)=0} B(a).  Subresultant PRS (Cohen 3.3.7)."""
    A, B = _gtrim(list(A)), _gtrim(list(B))
    if not A or not B:
        raise ValueError("resultant of the zero polynomial")
    s = 1
    if _ideg(A) < _ideg(B):
        if _ideg(A) % 2 == 1 and _ideg(B) % 2 == 1:
            s = -s
        A, B = B, A
    if _ideg(B) == 0:
        return s * B[0] ** _ideg(A)
    (ca, A), (cb, B) = _iprimitive(A), _iprimitive(B)
    t = ca ** _ideg(B) * cb ** _ideg(A)
    g = h = 1
    while True:
        da, db = _ideg(A), _ideg(B)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        R = _int_prem(A, B)
        if not R:
            return 0
        A, B = B, [c // (g * h**delta) for c in R]
        g = A[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
        if _ideg(B) <= 0:
            break
    da = _ideg(A)
    res = B[0] ** da // h ** (da - 1) if da > 0 else 1
    return s * t * res


def discriminant(f: UniPoly) -> NfElement:
    """The discriminant of a rational f of degree >= 1, as one integer
    subresultant (see above)."""
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if f.field is not QQ:
        raise ValueError("discriminants are defined over Q")
    F, den = _int_clear(f)
    disc = _int_res_std(F, [i * c for i, c in enumerate(F)][1:]) // F[-1]
    return _rational(-disc if d * (d - 1) // 2 % 2 else disc, den ** (2 * d - 2))


def interpolate(points, values):
    """The polynomial of degree <= n over Q through (i, values[i]) for the
    points i = 0, 1, ..., n, which must be given in that order.

    Over Z: with D a common denominator of the values, the forward
    differences of D*values[i] are integers, and Newton's forward formula
    sum_k Delta^k(0) * x(x-1)...(x-k+1) / k! times n! has the integer
    coefficients n!/k! * Delta^k(0).  Horner in that falling-factorial
    basis gives n! * D times the answer, and one division ends.
    """
    n = len(points) - 1
    if len(values) != n + 1:
        raise ValueError("points/values length mismatch")
    if list(points) != list(range(n + 1)):
        raise ValueError("interpolation points must be 0, 1, ..., n")
    values = [QQ.coerce(v) for v in values]
    den = lcm(*(v.den for v in values))
    diffs = [v.num[0] * (den // v.den) for v in values]
    for k in range(1, n + 1):  # diffs[k] becomes Delta^k(0)
        for i in range(n, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc, scale = [], 1
    for k in range(n, -1, -1):
        # acc <- acc * (x - k) + n!/k! * Delta^k(0)
        acc = [0] + acc
        for i in range(n - k):
            acc[i] -= k * acc[i + 1]
        acc[0] += scale * diffs[k]
        scale *= max(k, 1)
    return UniPoly([_rational(c, scale * den) for c in acc])


class BiPoly:
    """Dense bivariate polynomial in (T, X) over Q: rows[i][j] = coeff of
    T^i X^j."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        mat = [[QQ.coerce(c) for c in row] for row in rows]
        # trim trailing zero columns, then trailing zero rows
        width = 0
        for row in mat:
            w = len(row)
            while w and not row[w - 1]:
                w -= 1
            width = max(width, w)
        mat = [row[:width] + [QQ.zero()] * (width - len(row[:width])) for row in mat]
        while mat and all(not c for c in mat[-1]):
            mat.pop()
        self.rows = tuple(tuple(r) for r in mat)

    @classmethod
    def from_terms(cls, terms):
        """terms: iterable of (i, j, coeff) for T^i X^j."""
        terms = list(terms)
        if not terms:
            return cls(())
        nr = max(t[0] for t in terms) + 1
        nc = max(t[1] for t in terms) + 1
        rows = [[QQ.zero()] * nc for _ in range(nr)]
        for i, j, c in terms:
            rows[i][j] = rows[i][j] + QQ.coerce(c)
        return cls(rows)

    @property
    def deg_X(self):
        if not self.rows:
            return -1
        d = -1
        for row in self.rows:
            for j in range(len(row) - 1, -1, -1):
                if row[j]:
                    d = max(d, j)
                    break
        return d

    def coeff(self, i, j):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return QQ.zero()

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    terms.append(f"({c})*T^{i}*X^{j}")
        return " + ".join(terms) if terms else "0"

    def specialize(self, t0):
        """Substitute T -> t0 (rational); returns a UniPoly in X."""
        nc = max((len(r) for r in self.rows), default=0)
        t0 = QQ.coerce(t0)
        out = []
        for j in range(nc):
            col = [self.coeff(i, j) for i in range(len(self.rows))]
            # Horner in t0 over the column (ascending T powers)
            acc = col[-1]
            for c in reversed(col[:-1]):
                acc = acc * t0 + c
            out.append(acc)
        return UniPoly(out)


def render_unipoly(f: UniPoly):
    """Ascending coefficient array of "p/q" strings (rational coeffs only)."""
    if f.field is not QQ:
        raise ValueError("text rendering is defined over Q")
    return [render_rational(c) for c in f.coeffs]


def parse_unipoly(arr) -> UniPoly:
    """The polynomial whose canonical array (``render_unipoly``) is arr;
    an array ending in "0" is not canonical and raises SpecParseError."""
    f = UniPoly([parse_rational(s) for s in arr])
    if len(f.coeffs) != len(arr):
        raise SpecParseError(f"coefficient array ends in \"0\": {arr!r}")
    return f


#: Q as the degree-1 field Q[Z]/(Z).  Its modulus Z is a polynomial over
#: it, so it is built in two steps: the degree first, which is all that
#: the coefficients 0 and 1 of Z need, then the field.
QQ = NumberField.__new__(NumberField)
QQ.degree = 1
QQ.__init__(UniPoly.gen())
