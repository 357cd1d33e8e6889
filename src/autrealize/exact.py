"""Exact rational and polynomial arithmetic.

Polynomials are dense.  ``UniPoly`` is univariate with an ascending
coefficient list and carries the ring arithmetic; its coefficients live
in an exact field: the rationals (represented by ``fractions.Fraction``)
or a number field (``autrealize.numfield.NumberField``, whose elements
implement the same arithmetic protocol).  Resultants, discriminants,
interpolation and ``BiPoly`` are over Q only; interpolation takes its
values at 0, 1, ..., n and runs over Z, dividing once at the end.
``BiPoly`` is bivariate in (T, X) with a coefficient matrix indexed by
(power of T, power of X); it holds the cubic family X^3 + TX + T for
the family's bad set, and is only built, compared and specialized at
rational T = t0.

Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .errors import SpecParseError

_QZERO = Fraction(0)
_QONE = Fraction(1)


def _fzero(field):
    return _QZERO if field is None else field.zero()


def _fone(field):
    return _QONE if field is None else field.one()


def _coerce(field, c):
    """Coerce ``c`` into the coefficient field."""
    if field is None:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"cannot coerce {c!r} into Q")
    if isinstance(c, (int, Fraction)):
        return field.from_rational(c)
    if getattr(c, "owner", None) is not None:
        if c.owner is field or c.owner.modulus_coeffs == field.modulus_coeffs:
            return c
        raise ValueError("coefficient belongs to a different number field")
    raise TypeError(f"cannot coerce {c!r} into {field!r}")


def render_rational(q: Fraction) -> str:
    """Canonical text form "p/q", with "/q" omitted when q == 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """The rational s if s is its canonical text; anything else ("2/2",
    " 1 ", a JSON number) raises SpecParseError."""
    try:
        q = Fraction(s) if isinstance(s, str) else None
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or render_rational(q) != s:
        raise SpecParseError(f"not a canonical rational: {s!r}")
    return q


class UniPoly:
    """Dense univariate polynomial over an exact field.

    ``coeffs`` is ascending: coeffs[i] is the coefficient of var**i.
    The leading coefficient is nonzero unless the polynomial is zero
    (empty coefficient list).  ``field`` is None for Q, or a NumberField.
    """

    __slots__ = ("coeffs", "var", "field")

    def __init__(self, coeffs, var="X", field=None):
        cs = [_coerce(field, c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var
        self.field = field

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, var="X", field=None):
        return cls((), var, field)

    @classmethod
    def one(cls, var="X", field=None):
        return cls((_fone(field),), var, field)

    @classmethod
    def constant(cls, c, var="X", field=None):
        return cls((c,), var, field)

    @classmethod
    def gen(cls, var="X", field=None):
        return cls((0, 1), var, field)

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
        return _fzero(self.field)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == _fone(self.field)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

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
                parts.append(f"({c})*{self.var}")
            else:
                parts.append(f"({c})*{self.var}^{i}")
        return " + ".join(parts)

    def _check_compat(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        if (self.field is None) != (other.field is None):
            raise ValueError("coefficient field mismatch")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(
                _coerce(self.field, other), self.var, self.field
            )
        self._check_compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self[i] + other[i] for i in range(n)], self.var, self.field
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var, self.field)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(
                _coerce(self.field, other), self.var, self.field
            )
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _coerce(self.field, other)
            return UniPoly([a * c for a in self.coeffs], self.var, self.field)
        self._check_compat(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var, self.field)
        zero = _fzero(self.field)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.var, self.field)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.var, self.field)
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
        if lc == _fone(self.field):
            return self
        if self.field is None:
            inv = 1 / lc
        else:
            inv = lc.inverse()
        return self * inv

    def derivative(self):
        return UniPoly(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.var, self.field
        )

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
        """Substitute ``inner`` for the variable (result in inner's variable)."""
        acc = UniPoly.zero(inner.var, inner.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c, inner.var, inner.field)
        return acc

    def with_var(self, var):
        return UniPoly(self.coeffs, var, self.field)

    def to_field(self, field):
        """Coerce a rational polynomial into K[var]."""
        if self.field is not None:
            raise ValueError("already over a number field")
        return UniPoly(self.coeffs, self.var, field)

    def map_coeffs(self, fn, field=None, var=None):
        return UniPoly(
            [fn(c) for c in self.coeffs],
            self.var if var is None else var,
            field,
        )


def poly_divrem(f: UniPoly, g: UniPoly):
    """Exact division with remainder: f = q*g + r, deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_compat(g)
    field = f.field
    if f.degree < g.degree:
        return UniPoly.zero(f.var, field), f
    if field is None:
        lc_inv = 1 / g.lc()
    else:
        lc_inv = g.lc().inverse()
    rem = list(f.coeffs)
    dg = g.degree
    quot = [_fzero(field)] * (len(rem) - dg)
    gcs = g.coeffs
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if not c:
            continue
        q = c * lc_inv
        quot[k] = q
        for j in range(dg + 1):
            rem[k + j] = rem[k + j] - q * gcs[j]
    return (
        UniPoly(quot, f.var, field),
        UniPoly(rem[:dg], f.var, field),
    )


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd: Brown's modular algorithm over Q (see ``_gcd_q``), the
    Euclidean algorithm over a number field.  Euclid makes each remainder
    monic, so no leading coefficient is inverted twice."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials")
    f._check_compat(g)
    if f.field is None and not f.is_zero and not g.is_zero:
        return _gcd_q(f, g)
    a, b = f, g
    while not b.is_zero:
        b = b.monic()
        a, b = b, poly_divrem(a, b)[1]
    return a.monic()


def is_squarefree(f: UniPoly) -> bool:
    """True iff the nonzero polynomial f has no repeated factor."""
    return poly_gcd(f, f.derivative()).degree == 0


# -- GF(p) polynomial helpers (ascending lists of ints in [0, p)) -----------


def _gtrim(a):
    """Drop trailing zeros in place; also used on integer polynomials."""
    while a and a[-1] == 0:
        a.pop()
    return a


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


# -- gcd over Q by Brown's dense modular algorithm ---------------------------


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


def _gcd_primes():
    """The fixed sequence of primes below 2**30, largest first."""
    p = (1 << 30) - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _gcd_q(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd of two nonzero rational polynomials (Brown, J. ACM 18,
    1971).

    With A, B the primitive integer multiples of f, g and
    gamma = gcd(lc A, lc B), every prime p not dividing lc(A) * lc(B) gives
    gcd(A mod p, B mod p) of degree at least deg gcd(A, B); images of
    larger than the least degree seen are dropped, the rest are scaled to
    leading coefficient gamma and combined by CRT.  The primitive part C
    of the symmetric lift is accepted once it divides both A and B over Z:
    then C divides gcd(A, B) and has at least its degree, so the two agree
    up to a unit.
    """
    A, B = _int_clear(f)[0], _int_clear(g)[0]
    if len(A) == 1 or len(B) == 1:
        return UniPoly.one(f.var)
    A, B = _iprimitive(A)[1], _iprimitive(B)[1]
    la, lb = A[-1], B[-1]
    gamma = _igcd(la, lb)
    size = min(len(A), len(B)) + 1  # coefficient count of the kept images
    H, m = None, 1
    for p in _gcd_primes():
        if la % p == 0 or lb % p == 0:
            continue
        gp = _ggcd([c % p for c in A], [c % p for c in B], p)
        if len(gp) == 1:
            return UniPoly.one(f.var)
        if len(gp) > size:
            continue
        gp = [c * gamma % p for c in gp]
        if len(gp) < size:
            size, H, m = len(gp), gp, p
        else:
            inv = pow(m, -1, p)
            H = [h + m * ((c - h) * inv % p) for h, c in zip(H, gp)]
            m *= p
        half = m // 2
        C = _iprimitive([h - m if h > half else h for h in H])[1]
        if _idivides(C, B) is not None and _idivides(C, A) is not None:
            lc = C[-1]
            return UniPoly([Fraction(c, lc) for c in C], f.var)


# -- resultants -----------------------------------------------------------
#
# One convention, over Q only: for nonzero f, g of degrees m, n,
#
#   resultant_std(f, g) = lc(f)^n * prod_{f(a)=0} g(a)
#                       = (-1)^(m*n) * lc(g)^m * prod_{g(b)=0} f(b).
#
# The package uses it for discriminants; field norms come from power sums
# (``numfield.shifted_norms``), with no resultant.


def _int_clear(f: UniPoly):
    """Write a rational poly as (int coeff list, denominator)."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // _igcd(den, c.denominator)
    return [int(c * den) for c in f.coeffs], den


def _ideg(a):
    return len(a) - 1


def _iprimitive(a):
    """(content, primitive part) of an integer polynomial; (0, []) for 0."""
    c = _igcd(*a)
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


def _res_std_q(f: UniPoly, g: UniPoly) -> Fraction:
    A, da = _int_clear(f)
    B, db = _int_clear(g)
    r = _int_res_std(A, B)
    return Fraction(r, da**g.degree * db**f.degree)


def resultant_std(f: UniPoly, g: UniPoly) -> Fraction:
    """lc(f)^deg(g) * prod of g over the roots of f, for rational f, g."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    f._check_compat(g)
    if f.field is not None:
        raise ValueError("resultants are defined over Q")
    return _res_std_q(f, g)


def discriminant(f: UniPoly) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f) for rational f."""
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    val = resultant_std(f, f.derivative()) / f.lc()
    return -val if (d * (d - 1) // 2) % 2 == 1 else val


def interpolate(points, values, var="X"):
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
    values = [_coerce(None, v) for v in values]
    den = 1
    for v in values:
        den = den * v.denominator // _igcd(den, v.denominator)
    diffs = [v.numerator * (den // v.denominator) for v in values]
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
    return UniPoly([Fraction(c, scale * den) for c in acc], var)


class BiPoly:
    """Dense bivariate polynomial in (T, X) over Q: rows[i][j] = coeff of
    T^i X^j."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        mat = [[_coerce(None, c) for c in row] for row in rows]
        # trim trailing zero columns, then trailing zero rows
        width = 0
        for row in mat:
            w = len(row)
            while w and not row[w - 1]:
                w -= 1
            width = max(width, w)
        mat = [row[:width] + [_QZERO] * (width - len(row[:width])) for row in mat]
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
        rows = [[_QZERO] * nc for _ in range(nr)]
        for i, j, c in terms:
            rows[i][j] = rows[i][j] + _coerce(None, c)
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
        return _QZERO

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
        t0 = Fraction(t0)
        out = []
        for j in range(nc):
            col = [self.coeff(i, j) for i in range(len(self.rows))]
            # Horner in t0 over the column (ascending T powers)
            acc = col[-1]
            for c in reversed(col[:-1]):
                acc = acc * t0 + c
            out.append(acc)
        return UniPoly(out, "X")


def render_unipoly(f: UniPoly):
    """Ascending coefficient array of "p/q" strings (rational coeffs only)."""
    if f.field is not None:
        raise ValueError("text rendering is defined over Q")
    return [render_rational(c) for c in f.coeffs]


def parse_unipoly(arr, var="X") -> UniPoly:
    """The polynomial whose canonical array (``render_unipoly``) is arr;
    an array ending in "0" is not canonical and raises SpecParseError."""
    f = UniPoly([parse_rational(s) for s in arr], var)
    if len(f.coeffs) != len(arr):
        raise SpecParseError(f"coefficient array ends in \"0\": {arr!r}")
    return f
