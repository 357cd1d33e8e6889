"""The cubic family X^3 + aX + a and its S3 check.

The pipeline's cubic over K(T), for K the fixed field of G' and y in K,
is X^3 + (T - y)X + (T - y), i.e. ``cubic(T - y)``.  Its S3 property is a
fact about X^3 + aX + a over K(a): the substitution a -> T - y is a ring
isomorphism K[a, X] -> K[T, X] fixing X, so it carries irreducibility,
the discriminant and its square class to every y.  Neither depends on K:
the candidate-root refutation never uses the coefficients, and the
discriminant -a^2 (4a + 27) has rational coefficients.  So
``certify_s3`` checks the family once, over Q[a] (``FAMILY``, with a
written as T, held as the rows of a ``BiPoly``): the discriminant
identity, with a candidate-root refutation for irreducibility and a
parity argument for the group.  The certificate carries none of this:
each specialized field is proved on its own.  The bad set of a
specialization (parameter values t0 where q(t0, X) picks up a multiple
root) is decided exactly, one t0 at a time.
"""

from __future__ import annotations

from .errors import VerificationError
from .exact import BiPoly, UniPoly, discriminant
from .factor import Reductions


def cubic(a) -> UniPoly:
    """X^3 + aX + a over a's field (Q for a rational a)."""
    return UniPoly([a, a, 0, 1], getattr(a, "owner", None))


#: X^3 + TX + T over Q: the family with the parameter a written as T,
#: as rows of coefficients (row i holds T^i; row 0 is X^3, row 1 is TX + T).
FAMILY = BiPoly([[0, 0, 0, 1], [1, 1, 0, 0]])


def certify_s3():
    """Check that the family is irreducible over K(T) with Galois group
    S3 for every y and K (see the module docstring for the substitution
    argument).

    A failure here is an implementation bug, not an input condition, so
    any mismatch aborts with VerificationError.
    """
    # Irreducibility: the cubic is monic in X over K[T], so a root in
    # K(T) would lie in K[T] and divide the constant term (T - y).  Two
    # shapes: a constant c, or c*(T - y).
    #
    # Constant c: c^3 + (T - y)(c + 1) = [c^3 - y(c + 1)] + T*(c + 1)
    # vanishes iff c + 1 = 0 and c^3 = y(c + 1) = 0, forcing both c = -1
    # and c = 0.
    #
    # Shape c*(T - y): c^3 (T - y)^3 has T-degree 3 but
    # (T - y)(c(T - y) + 1) has T-degree 2, so the leading coefficients
    # cannot cancel for c != 0, and c = 0 is the constant case.
    #
    # Discriminant: disc_X(X^3 + TX + T) = -T^2 (4T + 27).  Both sides
    # have T-degree <= 5 (the Sylvester matrix of f and f' has 2*3 - 1
    # rows, each of T-degree <= 1), so they agree at T = 0, ..., 5 only
    # if they are equal.
    for t in range(6):
        if discriminant(cubic(t)) != -t * t * (4 * t + 27):
            raise VerificationError("discriminant identity failed for the family")
    # Square class: -(4T + 27) has odd T-degree, hence is a nonsquare in
    # K(T); the Galois group is S3 rather than A3.


def bad_set(q: BiPoly, t0) -> bool:
    """Whether t0 lies in the bad specialization set of q, i.e. q(t0, X)
    has a multiple root.

    q must be monic in X (its last column the constant 1), so that
    q(t0, X) keeps its X-degree; over Q the answer is the same as
    whether the X-discriminant of q vanishes at t0, and it is read as
    lc * disc = 0 on the record of q(t0, X).
    """
    return not Reductions(q.specialize(t0)).lc_disc
