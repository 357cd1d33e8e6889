"""End-to-end realization of a finite group as an automorphism group.

Given G as a subgroup of S_n, n its degree, the pipeline:

1. builds the splitting field L of X^n - X - 1 (Galois group S_n),
2. computes a generator y of the fixed field of G, an orbit sum with
   [L:Q] / |G| distinct conjugates: ``realize_sn`` proves that Gal(L/Q)
   is all of S_n, so G is its own preimage there,
3. takes the cubic X^3 + (T - y)X + (T - y) over L(T), whose group S3
   ``family.certify_s3`` proves once for X^3 + aX + a over Q(a), and
   fixes the shift c that makes z = x + c*theta (x a root of the cubic,
   theta the generator of L) a primitive element: its minimal polynomial
   q(T, X) over Q(T) is the norm from L of the shifted cubic, and is
   never built as a polynomial in T,
4. specializes T to rational t0: q(t0, X) is the norm from L of the
   shifted cubic(t0 - y), which comes from power sums with no resultant;
   reads q(t0, X) modulo primes through the one record its field
   E = Q[X]/(q(t0, X)) carries (``NumberField.reductions``), whose one
   discriminant rejects t0 in the bad set (q(t0, X) has a multiple
   root), and verifies, exactly, that E has automorphism group
   isomorphic to G: ``numfield.AutomorphismTable``, the validator's
   proof too, checks the images are roots and a completeness prime, and
   the automorphisms are listed in G's order, so that their table is G's,
5. repeats until the requested number of verified fields is collected,
   keeping a field only if, against each field kept before it, some prime
   p >= 5 has different Frobenius patterns in the two (which proves them
   non-isomorphic: ``Reductions.separates``, the validator's check too;
   each field's record keeps its patterns for every pair), and assembles
   a certificate recording one such prime per pair.

Verification at each t0 searches for no automorphism: they come from G.
E = L(x) for a root x of the cubic, and L/Q is normal, so every
automorphism of E restricts to one of L; each sigma in G fixes y, hence
the cubic, and extends to E by x -> x.  A completeness prime p (at which
q(t0, X) is squarefree with exactly |G| roots mod p) proves there are no
others, and the composition table is read modulo p.  The search for p
is screened through L: theta0, the image of L's generator in E, is
embedded first, and since L's modulus m has m(theta0(Z)) = q(t0, Z) * H,
a root r of q(t0, X) mod p gives the root theta0(r) of m mod p wherever
theta0 and m are p-integral.  A prime at which m has no root is then
passed over after a gcd of degree [L:Q], kept for every t0 on the
record L's field carries, not one of degree [E:Q]; the primes tried and
the prime found are the same.  Nor is the isomorphism
searched for: the automorphisms are listed in the order of
sorted(G.elements), the i-th extending the i-th sigma, and a table equal
to G's own (``perm.group_table``) makes that labelling one.  Root checks
and the images sigma(theta0) take few products in E: the first by
Paterson-Stockmeyer, the second as combinations of the powers of
theta0 that its embedding built for its own check.
"""

from __future__ import annotations

from itertools import islice
from math import factorial

from .errors import BudgetExhaustedError, SpecParseError, VerificationError
from .exact import QQ, UniPoly, _rational
from .factor import (
    COMPLETENESS_PRIMES,
    _record,
    audit_trail,
    completeness_prime,
    is_irreducible_Q,
)
from .family import FAMILY, bad_set, certify_s3, cubic
from .numfield import (
    AutomorphismTable,
    NfElement,
    NumberField,
    SplittingField,
    embed_generator,
    fixed_field,
    shift_sequence,
    shifted_norms,
    splitting_field,
)
from .perm import PermGroup, check_sn_cap, group_table


def realize_sn(n: int) -> SplittingField:
    """Splitting field of X^n - X - 1 with full Galois group S_n.

    For n = 1 the polynomial degenerates, so X - 1 stands in: L = Q with
    the trivial group acting on the single root.
    """
    check_sn_cap(n)
    if n == 1:
        f = UniPoly([-1, 1])
    else:
        f = UniPoly([-1, -1] + [0] * (n - 2) + [1])
    L = splitting_field(f)
    if L.galois.order != factorial(n):
        raise VerificationError(
            f"Galois group of X^{n} - X - 1 has order {L.galois.order}, "
            f"expected {factorial(n)}"
        )
    return L


def compute_y(L: SplittingField, G: PermGroup) -> NfElement:
    """Generator y of the fixed field of G, of degree [L:Q] / |G|, which
    ``fixed_field`` checks by counting y's distinct conjugates under
    Gal(L).

    When G is the full Galois group the fixed field is Q and y = 0 is
    the canonical choice (smallest certificate).
    """
    if G.order == L.galois.order:
        return L.field.zero()
    return fixed_field(L, G)


class PipelineState:
    """The search state: G, L, y, the shift c, and ``accepted``, the pair
    (t, E) of ``build_E_minpoly``'s accepted norm as a field."""

    def __init__(
        self,
        G: PermGroup,
        L: SplittingField,
        y: NfElement,
        c: int,
        accepted: tuple,
    ):
        self.G = G
        self.L = L
        self.y = y
        self.c = c
        self.accepted = accepted

    def cubic_at(self, t0) -> UniPoly:
        """The cubic X^3 + (t0 - y)(X + 1) over L."""
        return cubic(self.L.field.from_rational(t0) - self.y)

    def specialize(self, t0) -> UniPoly:
        """q(t0, X), the norm from L of the cubic at t0 shifted by c*theta.

        Each X-coefficient of q(T, X) has T-degree <= [L:Q], and the norm
        commutes with T -> t0, so this is q specialized at t0 exactly."""
        return shifted_norms(self.cubic_at(t0), self.L.field)(self.c)

    def field_at(self, t0) -> NumberField:
        """E = Q[X]/(q(t0, X)).  At the t whose norm ``build_E_minpoly``
        accepted c on, that norm's field, whose record has its
        discriminant already."""
        t, E = self.accepted
        return E if t0 == t else NumberField(self.specialize(t0))


def build_E_minpoly(L: SplittingField, y: NfElement) -> tuple:
    """(c, t, E): the shift c making z = x + c*theta primitive, for x a
    root of the cubic X^3 + (T - y)(X + 1) over L(T), and the field E of
    the norm q(t, X) that c was accepted on, whose record
    (``NumberField.reductions``) keeps that norm's discriminant.

    The minimal polynomial q(T, X) of z over Q(T) is the norm from L(T)
    down to Q(T) of the cubic shifted by c*theta: monic of X-degree
    d = 3N, N = [L:Q], with X-coefficients of T-degree <= N, and at each
    rational t it is the norm of ``cubic(t - y)``.  It is never built as
    a polynomial in T.  The first c in ``shift_sequence`` making q
    squarefree over Q(T) wins; squarefreeness makes q irreducible (the
    norm of an irreducible polynomial is a power of an irreducible one).
    The X-discriminant of q is a polynomial in T of degree <= (2d - 1)N,
    so q is squarefree over Q(T) iff q(t, X) is squarefree (lc * disc
    != 0 on its record) at some t = 0, 1, ..., (2d - 1)N.  The norms at
    those t are taken lazily, in that order, and reused across shifts.
    For L = Q the norm is the cubic itself, and (0, None, None) is
    returned.
    """
    K = L.field
    N = K.degree
    if N == 1:
        return 0, None, None
    norms = []
    for c in shift_sequence():
        for t in range((6 * N - 1) * N + 1):
            if t == len(norms):
                norms.append(shifted_norms(cubic(K.from_rational(t) - y), K))
            if (E := NumberField(norms[t](c))).reductions.lc_disc:
                _record("primitive_shift", c)
                return c, t, E


class SpecializationRecord:
    """One t0 of the search: accepted with its field E (whose modulus is
    q(t0, X)), theta0 and automorphism table, or rejected with a reason."""

    def __init__(
        self,
        t0: NfElement,
        status: str,  # "accepted" or "rejected"
        reason: str | None = None,
        field: NumberField | None = None,
        theta0: NfElement | None = None,
        aut: AutomorphismTable | None = None,
    ):
        self.t0 = t0
        self.status = status
        self.reason = reason
        self.field = field
        self.theta0 = theta0
        self.aut = aut


def build_state(G: PermGroup) -> PipelineState:
    """The search state for G: the splitting field of X^n - X - 1 for n
    the degree of G, y, the shift c and the norm it was accepted on."""
    L = realize_sn(G.degree)
    y = compute_y(L, G)
    certify_s3()
    c, t, E = build_E_minpoly(L, y)
    return PipelineState(G=G, L=L, y=y, c=c, accepted=(t, E))


def specialize_and_verify(state: PipelineState, t0) -> SpecializationRecord:
    """Verify one candidate specialization exactly; never trusts the
    existence theorem for any individual t0."""
    t0 = QQ.coerce(t0)
    # with y = 0 (G = S_n) the cubic is FAMILY at T = t0, and where it has
    # a multiple root so has q(t0, X): its norm need not be taken
    if (not state.y and bad_set(FAMILY, t0)) or not (
        red := (E := state.field_at(t0)).reductions
    ).lc_disc:
        return SpecializationRecord(t0, "rejected", "bad set: multiple root")
    q0 = E.modulus
    if not is_irreducible_Q(q0, reductions=red):
        return SpecializationRecord(t0, "rejected", "q(t0, X) reducible over Q")
    L, c = state.L, state.c
    powers = embed_generator(L.field, state.cubic_at(t0), E, c)
    theta0 = powers.base
    # L's modulus m has m(theta0(Z)) = q0 * H, so where theta0 and m are
    # p-integral (H is then too), each root r of q0 mod p gives the root
    # theta0(r) of m mod p
    p = completeness_prime(red, state.G.order, screen=(L.field.reductions, theta0.den))
    if p is None:
        reason = f"no completeness prime in the first {COMPLETENESS_PRIMES} usable primes"
        return SpecializationRecord(t0, "rejected", reason)
    # E's generator is x + c*theta0; sigma in G sends it to x + c*sigma(theta0),
    # listed in G's order, so the identity's image, first, is E's generator
    x = E.gen() - theta0 * c
    images = [x + powers.image(L.images[g]) * c for g in sorted(state.G.elements)]
    aut = AutomorphismTable(E, images, prime=p)
    if aut.table != group_table(state.G):  # None unless every check passed
        raise VerificationError(f"the images of G do not form a copy of G: {aut.checks}")
    return SpecializationRecord(t0, "accepted", None, E, theta0, aut)


# -- field distinctness -----------------------------------------------------


#: Primes usable for both fields that are tried before a pair is given up
#: as inseparable (arithmetically equivalent fields share every pattern).
DISTINCTNESS_PRIMES = 100


def fields_distinct_exact(a: SpecializationRecord, b: SpecializationRecord):
    """A prime p >= 5 at which the Frobenius patterns of the two fields'
    moduli exist and differ, proving the two fields non-isomorphic; None once
    DISTINCTNESS_PRIMES primes usable for both have failed.  The records
    the two carry keep each pattern for the field's other pairs."""
    A, B = a.field.reductions, b.field.reductions
    for p in islice(A.primes(B), DISTINCTNESS_PRIMES):
        if A.separates(B, p):
            return p
    return None


class RealizationCertificate:
    def __init__(
        self,
        group_generators: tuple,  # cycle-notation strings
        group_name: str | None,
        state: PipelineState,
        accepted: tuple,  # of SpecializationRecord
        transcript: tuple,  # of SpecializationRecord, in search order
        distinctness: tuple,  # of (i, j, separating prime)
        audit: tuple,  # of (event, value)
    ):
        self.group_generators = group_generators
        self.group_name = group_name
        self.state = state
        self.accepted = accepted
        self.transcript = transcript
        self.distinctness = distinctness
        self.audit = audit


def t0_sequence(t_max: int):
    """0, 1, -1, 2, -2, ..., then half-integers, bounded by height."""
    yield _rational(0)
    for k in range(1, t_max + 1):
        yield _rational(k)
        yield _rational(-k)
    k = 1
    while k <= 2 * t_max:
        yield _rational(k, 2)
        yield _rational(-k, 2)
        k += 2


def run(
    G: PermGroup,
    count: int = 2,
    t_max: int = 200,
    group_generators=(),
    group_name=None,
) -> RealizationCertificate:
    if count < 1:
        raise SpecParseError(f"count must be >= 1, got {count}")
    if t_max < 0:
        raise SpecParseError(f"t-max must be >= 0, got {t_max}")
    with audit_trail() as audit:
        state = build_state(G)
        accepted = []
        transcript = []
        distinctness = []
        for t0 in t0_sequence(t_max):
            rec = specialize_and_verify(state, t0)
            if rec.status == "accepted":
                primes = []
                for prev in accepted:
                    p = fields_distinct_exact(prev, rec)
                    if p is None:
                        rec = SpecializationRecord(
                            t0,
                            "rejected",
                            f"no prime separates it from the field at t0 = {prev.t0}",
                        )
                        break
                    primes.append(p)
                else:
                    j = len(accepted)
                    distinctness += [(i, j, p) for i, p in enumerate(primes)]
            transcript.append(rec)
            if rec.status == "accepted":
                accepted.append(rec)
                if len(accepted) == count:
                    break
        if len(accepted) < count:
            raise BudgetExhaustedError(
                f"only {len(accepted)} of {count} fields found within "
                f"height {t_max}",
                transcript=transcript,
            )
    return RealizationCertificate(
        group_generators=tuple(group_generators),
        group_name=group_name,
        state=state,
        accepted=tuple(accepted),
        transcript=tuple(transcript),
        distinctness=tuple(sorted(distinctness)),
        audit=tuple(audit),
    )
