"""The cubic family X^3 + aX + a and its S3 certificate.

The pipeline's cubic over K(T), for K the fixed field of G' and y in K,
is X^3 + (T - y)X + (T - y), i.e. ``cubic(T - y)``.  Its S3 property is a
fact about X^3 + aX + a over K(a): the substitution a -> T - y is a ring
isomorphism K[a, X] -> K[T, X] fixing X, so it carries irreducibility,
the discriminant and its square class to every y.  Neither depends on K:
the candidate-root refutation never uses the coefficients, and the
discriminant -a^2 (4a + 27) has rational coefficients.  So
``certify_s3`` checks the family once, over Q[a] (``FAMILY``, with a
written as T): a candidate-root refutation for irreducibility, recorded
as a transcript in the certificate, plus the discriminant identity and a
parity argument for the group.  The bad set of a specialization
(parameter values t0 where q(t0, X) picks up a multiple root) is decided
exactly, one t0 at a time.
"""

from __future__ import annotations

from .errors import VerificationError
from .exact import BiPoly, UniPoly, discriminant_in_X, is_squarefree


def cubic(a) -> UniPoly:
    """X^3 + aX + a over a's field (Q for a rational a)."""
    return UniPoly([a, a, 0, 1], "X", getattr(a, "owner", None))


#: X^3 + TX + T over Q: the family with the parameter a written as T.
FAMILY = BiPoly.from_terms([(0, 3, 1), (1, 1, 1), (1, 0, 1)])


class S3Certificate:
    """Evidence that the family is irreducible over K(T) with group S3."""

    def __init__(self, irreducibility: tuple, square_class_degree: int):
        self.irreducibility = irreducibility  # transcript lines (label, detail)
        # T-degree of disc with its square factor removed
        self.square_class_degree = square_class_degree


def certify_s3() -> S3Certificate:
    """Certify irreducibility over K(T) and Galois group S3 for every y
    and K (see the module docstring for the substitution argument).

    A failure here is an implementation bug, not an input condition, so
    any mismatch aborts with VerificationError.
    """
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
    # Discriminant: must equal -a^2 (4a + 27) identically.
    a = UniPoly.gen("T")
    if discriminant_in_X(FAMILY) != -(a * a) * (a * 4 + 27):
        raise VerificationError("discriminant identity failed for the family")
    # Square class: -(4a + 27), odd degree 1 in a, hence a nonsquare in
    # K(a); the Galois group is S3 rather than A3.
    square_class = -(a * 4 + 27)
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
    return not is_squarefree(q.specialize(t0))
