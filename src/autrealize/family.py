"""The parametric cubic X^3 + (T - y)X + (T - y) over a number field K.

For every y this cubic is irreducible over K(T) with Galois group S3.
``certify_s3`` checks this for the pipeline's member: a candidate-root
refutation for irreducibility, recorded as a transcript in the
certificate, plus the discriminant identity and a parity argument for
the group.  The bad set of a specialization (parameter values t0 where
q(t0, X) picks up a multiple root) is decided exactly, one t0 at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError
from .exact import BiPoly, UniPoly, discriminant_in_X, is_squarefree
from .numfield import NfElement, NumberField


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

    irreducibility: tuple  # transcript lines (label, detail)
    square_class_degree: int  # T-degree of disc with its square factor removed


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
    return S3Certificate(tuple(transcript), square_class.degree)


def bad_set(q: BiPoly, t0) -> bool:
    """Whether t0 lies in the bad specialization set of q, i.e. q(t0, X)
    has a multiple root.

    q must be monic in X, so that q(t0, X) keeps its X-degree; over Q
    the answer is the same as whether the X-discriminant of q vanishes
    at t0.
    """
    return not is_squarefree(q.specialize(Fraction(t0)))
