"""End-to-end realization of a finite group as an automorphism group.

Given G as a subgroup of S_n, the pipeline:

1. builds the splitting field L of X^n - X - 1 (Galois group S_n),
2. pulls G back to G' inside Gal(L/Q) and computes a generator y of the
   fixed field of G',
3. takes the cubic X^3 + (T - y)X + (T - y) over L(T), whose group S3
   ``family.certify_s3`` proves once for X^3 + aX + a over Q(a), and
   forms the minimal polynomial q(T, X) over Q(T) of z = x + c*theta
   (x a root of the cubic, theta the generator of L), computed as a
   resultant norm by interpolation,
4. specializes T to rational t0, rejects t0 in the bad set (q(t0, X)
   has a multiple root, decided per t0 by ``family.bad_set``), and
   verifies, exactly, that the field Q[X]/(q(t0, X)) has automorphism
   group isomorphic to G, with an explicit isomorphism witness,
5. repeats until the requested number of verified fields is collected,
   keeping a field only if, against each field kept before it, some prime
   p >= 5 has different Frobenius patterns in the two (which proves them
   non-isomorphic), and assembles a certificate recording one such prime
   per pair.

Verification at each t0 walks the tower instead of factoring q(t0, X)
over the big field: automorphisms are enumerated as pairs (sigma, root)
with sigma an automorphism of L and the root drawn from a cubic, so the
largest norms that ever reach the factorization engine have degree
3 * [E_t0 : Q].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    SpecParseError,
    VerificationError,
)
from .exact import BiPoly, UniPoly, _is_prime, interpolate
from .factor import _record, frobenius_pattern, is_irreducible_Q
from .family import S3Certificate, bad_set, certify_s3, cubic
from .numfield import (
    AutomorphismTable,
    NfElement,
    NumberField,
    SplittingField,
    embed_generator,
    fixed_field,
    roots_in_field,
    shift_sequence,
    shifted_norm,
    splitting_field,
)
from .perm import AbstractGroup, PermGroup, are_isomorphic

logger = logging.getLogger(__name__)

SN_CAP = 3


def check_sn_cap(n: int):
    """Refuse a degree above SN_CAP before any work is done for it."""
    if n > SN_CAP:
        raise CapExceededError(
            f"n = {n} is not supported yet: the S_n route stops at n = {SN_CAP}"
        )


def realize_sn(n: int) -> SplittingField:
    """Splitting field of X^n - X - 1 with full Galois group S_n.

    For n = 1 the polynomial degenerates, so X - 1 stands in: L = Q with
    the trivial group acting on the single root.
    """
    if n < 1:
        raise SpecParseError(f"n must be >= 1, got {n}")
    check_sn_cap(n)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    if n == 1:
        f = UniPoly([Fraction(-1), Fraction(1)], "X")
    else:
        coeffs = [Fraction(-1), Fraction(-1)] + [Fraction(0)] * (n - 2) + [Fraction(1)]
        f = UniPoly(coeffs, "X")
    L = splitting_field(f)
    if L.galois.order != fact:
        raise VerificationError(
            f"Galois group of X^{n} - X - 1 has order {L.galois.order}, "
            f"expected {fact}"
        )
    return L


def subgroup_preimage(L: SplittingField, G: PermGroup) -> PermGroup:
    """G' inside Gal(L/Q): the Galois elements whose root permutation
    lies in G."""
    if G.degree != len(L.roots):
        raise SpecParseError(
            f"group degree {G.degree} does not match the {len(L.roots)} roots"
        )
    members = [p for p in L.galois.elements if p in G.elements]
    Gp = PermGroup.from_elements(members, G.degree)
    if Gp.order != G.order:
        raise VerificationError("preimage order mismatch: Galois group not full")
    return Gp


def compute_y(L: SplittingField, Gp: PermGroup):
    """Generator y of the fixed field of G' and its minimal polynomial.

    When G' is the full Galois group the fixed field is Q and y = 0 is
    the canonical choice (smallest certificate).
    """
    if Gp.order == L.galois.order:
        y = L.field.zero()
        return y, UniPoly.gen("X")
    return fixed_field(L, Gp)


@dataclass
class PipelineState:
    n: int
    G: PermGroup
    G_abstract: AbstractGroup
    L: SplittingField
    Gp: PermGroup
    y: NfElement
    y_minpoly: UniPoly
    s3_cert: S3Certificate
    c: int
    q: BiPoly


def build_E_minpoly(L: SplittingField, y: NfElement):
    """Minimal polynomial q(T, X) over Q(T) of z = x + c*theta.

    q is the norm from L(T) down to Q(T) of the cubic X^3 + (T-y)(X+1)
    shifted by c*theta: for each rational t its specialization is the
    norm of ``cubic(t - y)``, and each X-coefficient is interpolated
    across t.  The first shift c making q squarefree as a polynomial in X
    over Q(T) wins; squarefreeness makes q irreducible (the norm of an
    irreducible polynomial is a power of an irreducible one).  For L = Q
    the norm is the cubic itself, and c = 0.  Returns (c, q).
    """
    K = L.field
    N = K.degree
    if N == 1:
        y0 = y.coords[0]
        return 0, BiPoly.from_terms(
            [(0, 3, 1), (1, 1, 1), (0, 1, -y0), (1, 0, 1), (0, 0, -y0)]
        )
    deg_t, deg_x = N, 3 * N
    t_points = [Fraction(t) for t in range(deg_t + 1)]
    for c in shift_sequence():
        rows_by_t = [
            shifted_norm(cubic(K.from_rational(t) - y), K, c)[1] for t in t_points
        ]
        # interpolate each X-coefficient across t
        rows = []
        for j in range(deg_x + 1):
            vals = [p[j] for p in rows_by_t]
            rows.append(interpolate(t_points, vals, "T"))
        q = BiPoly(
            [
                [rows[j][i] for j in range(deg_x + 1)]
                for i in range(max(p.degree for p in rows) + 1)
            ]
        )
        if q.deg_X != deg_x or q.lc_X().degree != 0 or q.coeff(0, deg_x) != 1:
            raise VerificationError("norm is not monic of the expected degree")
        # squarefree over Q(T): some specialization has no multiple root
        if any(not bad_set(q, t) for t in range(6 * deg_x * deg_x + 2)):
            _record("primitive_shift", c)
            return c, q
        logger.debug("shift c=%d gives a non-squarefree norm; trying next", c)
    raise VerificationError("unreachable: no primitive shift found")


@dataclass
class SpecializationRecord:
    t0: Fraction
    status: str  # "accepted" or "rejected"
    reason: str | None = None
    q0: UniPoly | None = None
    field: NumberField | None = None
    theta0: NfElement | None = None
    aut: AutomorphismTable | None = None
    witness: tuple | None = None


def build_state(G: PermGroup, n: int) -> PipelineState:
    L = realize_sn(n)
    Gp = subgroup_preimage(L, G)
    y, y_min = compute_y(L, Gp)
    expected = L.degree // Gp.order
    if y_min.degree != expected:
        raise VerificationError(
            f"fixed-field generator degree {y_min.degree}, expected {expected}"
        )
    s3_cert = certify_s3()
    c, q = build_E_minpoly(L, y)
    if q.deg_X != 3 * L.degree:
        raise VerificationError("q has the wrong X-degree")
    return PipelineState(
        n=n,
        G=G,
        G_abstract=G.to_abstract()[0],
        L=L,
        Gp=Gp,
        y=y,
        y_minpoly=y_min,
        s3_cert=s3_cert,
        c=c,
        q=q,
    )


def specialize_and_verify(state: PipelineState, t0) -> SpecializationRecord:
    """Verify one candidate specialization exactly; never trusts the
    existence theorem for any individual t0."""
    t0 = Fraction(t0)
    if bad_set(state.q, t0):
        return SpecializationRecord(t0, "rejected", "bad set: multiple root")
    q0 = state.q.specialize(t0)
    if not is_irreducible_Q(q0):
        return SpecializationRecord(t0, "rejected", "q(t0, X) reducible over Q")
    E = NumberField(q0.with_var("Z"), trusted=True)
    L, c = state.L, state.c
    cubic0 = cubic(L.field.from_rational(t0) - state.y)
    theta0 = embed_generator(L.field, cubic0, E, c)
    # enumerate automorphisms through the tower: q(t0, X) factors over L
    # as the product of the conjugate cubics shifted by c*sigma(theta),
    # so its roots in E are exactly xi + c*sigma(theta)-image with xi a
    # root in E of the corresponding conjugate cubic.
    cubic_roots = {}
    images = []
    for j in range(L.autos.order):
        y_img = L.autos.apply(j, state.y).to_poly().eval(theta0)
        key = (y_img.num, y_img.den)
        if key not in cubic_roots:
            cubic_roots[key] = roots_in_field(cubic(E.from_rational(t0) - y_img), E)
        theta0_j = L.autos.maps[j].to_poly().eval(theta0)
        for xi in cubic_roots[key]:
            w = xi + theta0_j * c
            if q0.eval(w):
                raise VerificationError("candidate image is not a root of q(t0, X)")
            images.append(w)
    unique = sorted(set(images), key=NfElement.sort_key)
    if len(unique) != state.G.order:
        return SpecializationRecord(
            t0,
            "rejected",
            f"automorphism count {len(unique)} != |G| = {state.G.order}",
        )
    aut = AutomorphismTable(E, unique)
    ok, witness = are_isomorphic(aut.group, state.G_abstract)
    if not ok:
        return SpecializationRecord(
            t0, "rejected", "automorphism group not isomorphic to G"
        )
    return SpecializationRecord(
        t0, "accepted", None, q0, E, theta0, aut, witness
    )


# -- field distinctness -----------------------------------------------------


#: Primes usable for both fields that are tried before a pair is given up
#: as inseparable (arithmetically equivalent fields share every pattern).
DISTINCTNESS_PRIMES = 100


def fields_distinct_exact(a: SpecializationRecord, b: SpecializationRecord):
    """A prime p >= 5 at which the Frobenius patterns of a.q0 and b.q0
    exist and differ, proving the two fields non-isomorphic; None once
    DISTINCTNESS_PRIMES primes usable for both have failed."""
    usable, p = 0, 3
    while usable < DISTINCTNESS_PRIMES:
        p += 2
        if not _is_prime(p):
            continue
        pa, pb = frobenius_pattern(a.q0, p), frobenius_pattern(b.q0, p)
        if pa is None or pb is None:
            continue
        if pa != pb:
            return p
        usable += 1
    return None


@dataclass
class RealizationCertificate:
    group_n: int
    group_generators: tuple  # cycle-notation strings
    group_name: str | None
    group_order: int
    state: PipelineState
    accepted: tuple  # of SpecializationRecord
    transcript: tuple  # of (t0, status, reason)
    distinctness: tuple  # of (i, j, separating prime)
    audit: tuple  # of (event, value)


def t0_sequence(t_max: int):
    """0, 1, -1, 2, -2, ..., then half-integers, bounded by height."""
    yield Fraction(0)
    for k in range(1, t_max + 1):
        yield Fraction(k)
        yield Fraction(-k)
    k = 1
    while k <= 2 * t_max:
        yield Fraction(k, 2)
        yield Fraction(-k, 2)
        k += 2


def run(
    G: PermGroup,
    n: int,
    count: int = 2,
    t_max: int = 200,
    group_generators=(),
    group_name=None,
) -> RealizationCertificate:
    if count < 1:
        raise SpecParseError(f"count must be >= 1, got {count}")
    from .factor import audit_trail

    with audit_trail() as audit:
        state = build_state(G, n)
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
            transcript.append((rec.t0, rec.status, rec.reason))
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
        group_n=n,
        group_generators=tuple(group_generators),
        group_name=group_name,
        group_order=G.order,
        state=state,
        accepted=tuple(accepted),
        transcript=tuple(transcript),
        distinctness=tuple(sorted(distinctness)),
        audit=tuple(audit),
    )
