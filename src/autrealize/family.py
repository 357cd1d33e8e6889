"""The parametric cubic X^3 + (T - y)X + (T - y) over a number field K.

For every y this cubic is irreducible over K(T) with Galois group S3,
and members with different y generate different cubic extensions of
K(T).  Both facts are certified here by finite, replayable transcripts:
a candidate-root refutation plus a discriminant parity argument for the
S3 claim, and a divisor-shape refutation in the polynomial ring K[x1]
for distinctness.  The bad set of a specialization (parameter values t0
where q(t0, X) picks up a multiple root) is decided exactly, one t0 at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecParseError, VerificationError
from .exact import BiPoly, UniPoly, discriminant, discriminant_in_X, poly_gcd
from .numfield import NfElement, NumberField, factor_over_nf, roots_in_field


@dataclass(frozen=True)
class FamilyMember:
    """One member of the family: base field, parameter y, and the cubic."""

    base: NumberField
    y: NfElement
    poly: BiPoly

    def __post_init__(self):
        expected = _family_poly(self.base, self.y)
        if self.poly != expected:
            raise ValueError("polynomial is not X^3 + (T - y)X + (T - y)")


def _family_poly(K, y):
    one = K.one()
    return BiPoly.from_terms(
        [(0, 3, one), (1, 1, one), (0, 1, -y), (1, 0, one), (0, 0, -y)],
        K,
    )


def build_member(K: NumberField, y) -> FamilyMember:
    if isinstance(y, (int, Fraction)):
        y = K.from_rational(y)
    return FamilyMember(K, y, _family_poly(K, y))


@dataclass(frozen=True)
class S3Certificate:
    """Evidence that a member is irreducible over K(T) with group S3."""

    member: FamilyMember
    irreducibility: tuple  # transcript lines (label, detail)
    disc: UniPoly  # discriminant in T over K
    square_class: UniPoly  # disc with the square factor removed
    square_class_degree: int


def certify_s3(m: FamilyMember) -> S3Certificate:
    """Certify irreducibility over K(T) and Galois group S3.

    A failure here is an implementation bug, not an input condition, so
    any mismatch aborts with VerificationError.
    """
    K, y = m.base, m.y
    transcript = []
    # Irreducibility: the cubic is monic in X over K[T], so a root in
    # K(T) would lie in K[T] and divide the constant term (T - y).  Two
    # shapes: a constant c, or c*(T - y).
    #
    # Constant c: c^3 + (T - y)(c + 1) = [c^3 - y(c + 1)] + T*(c + 1)
    # vanishes iff c + 1 = 0 and c^3 = y(c + 1) = 0, forcing both c = -1
    # and c = 0.
    transcript.append(
        (
            "constant-root",
            "c^3 + (T-y)(c+1) = 0 needs c+1 = 0 and c^3 = 0; "
            "c = -1 and c = 0 are contradictory",
        )
    )
    # Shape c*(T - y): the X^3 term contributes degree 3 in T while the
    # rest of the evaluation has degree at most 2.
    transcript.append(
        (
            "linear-root",
            "c^3(T-y)^3 has T-degree 3 but (T-y)(c(T-y)+1) has T-degree 2; "
            "leading coefficients cannot cancel for c != 0, and c = 0 "
            "reduces to the constant case",
        )
    )
    # Discriminant: must equal -(T-y)^2 (4(T-y) + 27) identically.
    disc = discriminant_in_X(m.poly)
    s = UniPoly([-y, K.one()], "T", K)  # T - y
    expected = -(s * s) * (s * 4 + 27)
    if disc != expected:
        raise VerificationError("discriminant identity failed for the family")
    # Square class: -(4(T-y) + 27), odd degree 1 in T, hence a nonsquare
    # in K(T); the Galois group is S3 rather than A3.
    square_class = -(s * 4 + 27)
    if square_class.degree % 2 != 1:
        raise VerificationError("square class unexpectedly has even degree")
    return S3Certificate(
        m, tuple(transcript), disc, square_class, square_class.degree
    )


def replay_s3(cert: S3Certificate) -> bool:
    """Re-check an S3 certificate from its stored data."""
    K, y = cert.member.base, cert.member.y
    s = UniPoly([-y, K.one()], "T", K)
    if cert.disc != -(s * s) * (s * 4 + 27):
        return False
    if cert.square_class != -(s * 4 + 27):
        return False
    if cert.square_class_degree != cert.square_class.degree:
        return False
    if cert.square_class_degree % 2 != 1:
        return False
    if discriminant_in_X(cert.member.poly) != cert.disc:
        return False
    return len(cert.irreducibility) >= 2


@dataclass(frozen=True)
class DistinctnessCertificate:
    """Evidence that members y1 != y2 generate different extensions of K(T)."""

    y1: NfElement
    y2: NfElement
    delta: NfElement
    g_poly: UniPoly  # G(Y) = Y^3 + delta*Y + delta over K
    g_factors: tuple
    shapes: tuple  # refutation transcript, one entry per divisor shape


def certify_distinct(K: NumberField, y1, y2) -> DistinctnessCertificate:
    """Certify K(T)(x1) != K(T)(x2) for members y1 != y2.

    Model K(T)(x1) as the rational function field K(x1) via the identity
    T = y1 - x1^3/(1 + x1).  x2 satisfies the cubic
        F(X) = (x1+1) X^3 - G(x1) (X + 1),   G(Y) = Y^3 + delta*Y + delta,
    so the fields coincide iff F has a root in K(x1).  Any such root is
    lam * D(x1) / V(x1) with D a monic divisor of G, V in {1, x1+1}, and
    lam a scalar; each shape is refuted by showing the coefficientwise
    conditions on lam have no common nonzero solution in K.
    """
    if isinstance(y1, (int, Fraction)):
        y1 = K.from_rational(y1)
    if isinstance(y2, (int, Fraction)):
        y2 = K.from_rational(y2)
    delta = y2 - y1
    if not delta:
        raise SpecParseError("members coincide: y1 = y2")
    one = K.one()
    G = UniPoly([delta, delta, K.zero(), one], "x", K)  # x^3 + delta*x + delta
    g_factors = factor_over_nf(G, K).factors
    x_plus_1 = UniPoly([one, one], "x", K)

    # all monic divisors of G (including 1 and G itself)
    divisors = [UniPoly.one("x", K)]
    for p, mult in g_factors:
        grown = []
        for d in divisors:
            cur = d
            for _ in range(mult + 1):
                grown.append(cur)
                cur = cur * p
        divisors = grown
    divisors.sort(key=lambda d: (d.degree, tuple(c.sort_key() for c in d.coeffs)))

    shapes = []
    for D in divisors:
        for V in (UniPoly.one("x", K), x_plus_1):
            # residual E(x, lam) = (x+1) lam^3 D^3 - G (lam D + V) V^2
            # must vanish identically in x; collect the coefficient of
            # each power of x as a polynomial in lam and intersect roots.
            E = _shape_residual(K, G, D, V, x_plus_1)
            lam_polys = [
                UniPoly(row, "lam", K) for row in E.rows if any(row)
            ]
            if not lam_polys:
                raise VerificationError("shape residual vanished identically")
            common = lam_polys[0]
            for p in lam_polys[1:]:
                if common.degree == 0:
                    break
                common = poly_gcd(common, p)
            candidate_lams = (
                [r for r in roots_in_field(common, K) if r]
                if common.degree >= 1
                else []
            )
            if candidate_lams:
                raise VerificationError(
                    "distinctness refutation failed: shape admits a root"
                )
            shapes.append(
                (
                    tuple(D.coeffs),
                    V.degree,
                    "no nonzero scalar satisfies the coefficient system "
                    f"(gcd degree {common.degree})",
                )
            )
    return DistinctnessCertificate(y1, y2, delta, G, tuple(g_factors), tuple(shapes))


def _shape_residual(K, G, D, V, x_plus_1):
    """(x+1) lam^3 D^3 - G (lam D + V) V^2 as a BiPoly (T=x, X=lam)."""

    def in_x(p):  # embed a UniPoly in x as a BiPoly constant in lam
        return BiPoly([[c] for c in p.coeffs], K)

    lam = BiPoly.from_terms([(0, 1, K.one())], K)
    term1 = in_x(x_plus_1) * lam * lam * lam * in_x(D) * in_x(D) * in_x(D)
    term2 = in_x(G) * (lam * in_x(D) + in_x(V)) * in_x(V) * in_x(V)
    return term1 - term2


def replay_distinct(cert: DistinctnessCertificate, K: NumberField) -> bool:
    """Re-check a distinctness certificate from its stored data."""
    if not cert.delta or cert.delta != cert.y2 - cert.y1:
        return False
    G = UniPoly([cert.delta, cert.delta, K.zero(), K.one()], "x", K)
    if cert.g_poly != G:
        return False
    acc = UniPoly.one("x", K)
    for p, m in cert.g_factors:
        acc = acc * p**m
    if acc != G:
        return False
    # the full search space has (prod (mult_i + 1)) divisors, two V choices
    n_div = 1
    for _, m in cert.g_factors:
        n_div *= m + 1
    return len(cert.shapes) == 2 * n_div


def t_identity_residual(K: NumberField, y1) -> UniPoly:
    """Residual of the function-field identity T = y1 - x1^3/(1 + x1).

    Substituting that T into x1^3 + (T - y1)(x1 + 1) and clearing the
    denominator must give the zero polynomial; returned for tests.
    """
    if isinstance(y1, (int, Fraction)):
        y1 = K.from_rational(y1)
    one = K.one()
    x = UniPoly.gen("x", K)
    x_plus_1 = x + one
    # (T - y1)*(1 + x1) = -x1^3 by the identity, so the cleared residual is
    # x1^3*(1 + x1) + (T_num - y1*(1 + x1))*(1 + x1) with T_num = y1*(1+x1) - x1^3
    t_num = y1 * x_plus_1 - x**3
    return x**3 * x_plus_1 + (t_num - y1 * x_plus_1) * x_plus_1


def bad_set(q: BiPoly, t0) -> bool:
    """Whether t0 lies in the bad specialization set of q, i.e. q(t0, X)
    has a multiple root.

    q must be monic in X, so that q(t0, X) keeps its X-degree and its
    discriminant is the X-discriminant of q evaluated at t0.
    """
    return discriminant(q.specialize(Fraction(t0))) == 0
