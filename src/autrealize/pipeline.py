"""End-to-end realization of a finite group as an automorphism group.

Given G as a subgroup of S_n, the pipeline:

1. builds the splitting field L of X^n - X - 1 (Galois group S_n),
2. computes a generator y of the fixed field of G: ``realize_sn`` proves
   that Gal(L/Q) is all of S_n, so G is its own preimage there,
3. takes the cubic X^3 + (T - y)X + (T - y) over L(T), whose group S3
   ``family.certify_s3`` proves once for X^3 + aX + a over Q(a), and
   forms the minimal polynomial q(T, X) over Q(T) of z = x + c*theta
   (x a root of the cubic, theta the generator of L): at each sample t
   it is the norm from L of the shifted cubic, which comes from power
   sums with no resultant, and its coefficients are interpolated in T,
4. specializes T to rational t0, rejects t0 in the bad set (q(t0, X)
   has a multiple root, decided per t0 by ``family.bad_set``), and
   verifies, exactly, that the field Q[X]/(q(t0, X)) has automorphism
   group isomorphic to G, with a completeness prime and an explicit
   isomorphism witness (G's own labelling of the automorphisms),
5. repeats until the requested number of verified fields is collected,
   keeping a field only if, against each field kept before it, some prime
   p >= 5 has different Frobenius patterns in the two (which proves them
   non-isomorphic), and assembles a certificate recording one such prime
   per pair.

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
passed over after a gcd of degree [L:Q], not one of degree [E:Q]; the
primes tried and the prime found are the same.  Nor is the isomorphism
searched for: the witness labels each automorphism by its sigma, and a
table that composes as G does makes that labelling one.  Root checks
and the labels sigma(theta0) take few products in E: the first by
Paterson-Stockmeyer, the second as combinations of theta0's powers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    SpecParseError,
    VerificationError,
)
from .exact import BiPoly, UniPoly, interpolate, is_squarefree
from .factor import (
    COMPLETENESS_PRIMES,
    _record,
    completeness_prime,
    is_irreducible_Q,
    usable_patterns,
)
from .family import S3Certificate, bad_set, certify_s3, cubic
from .numfield import (
    AutomorphismTable,
    NfElement,
    NumberField,
    Powers,
    SplittingField,
    embed_generator,
    fixed_field,
    shift_sequence,
    shifted_norms,
    splitting_field,
)
from .perm import PermGroup

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
    if n == 1:
        f = UniPoly([Fraction(-1), Fraction(1)], "X")
    else:
        coeffs = [Fraction(-1), Fraction(-1)] + [Fraction(0)] * (n - 2) + [Fraction(1)]
        f = UniPoly(coeffs, "X")
    L = splitting_field(f)
    if L.galois.order != factorial(n):
        raise VerificationError(
            f"Galois group of X^{n} - X - 1 has order {L.galois.order}, "
            f"expected {factorial(n)}"
        )
    return L


def compute_y(L: SplittingField, G: PermGroup):
    """Generator y of the fixed field of G and its minimal polynomial.

    When G is the full Galois group the fixed field is Q and y = 0 is
    the canonical choice (smallest certificate).
    """
    if G.order == L.galois.order:
        return L.field.zero(), UniPoly.gen("X")
    return fixed_field(L, G)


class PipelineState:
    def __init__(
        self,
        n: int,
        G: PermGroup,
        L: SplittingField,
        y: NfElement,
        y_minpoly: UniPoly,
        s3_cert: S3Certificate,
        c: int,
        q: BiPoly,
    ):
        self.n = n
        self.G = G
        self.L = L
        self.y = y
        self.y_minpoly = y_minpoly
        self.s3_cert = s3_cert
        self.c = c
        self.q = q


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
    norms = [shifted_norms(cubic(K.from_rational(t) - y), K) for t in t_points]
    for c in shift_sequence():
        rows_by_t = [norm(c) for norm in norms]
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
        # (the norms at the sample points are specializations already)
        if any(is_squarefree(row) for row in rows_by_t) or any(
            not bad_set(q, t) for t in range(6 * deg_x * deg_x + 2)
        ):
            _record("primitive_shift", c)
            return c, q
    raise VerificationError("unreachable: no primitive shift found")


class SpecializationRecord:
    def __init__(
        self,
        t0: Fraction,
        status: str,  # "accepted" or "rejected"
        reason: str | None = None,
        q0: UniPoly | None = None,
        field: NumberField | None = None,
        theta0: NfElement | None = None,
        aut: AutomorphismTable | None = None,
        witness: tuple | None = None,
    ):
        self.t0 = t0
        self.status = status
        self.reason = reason
        self.q0 = q0
        self.field = field
        self.theta0 = theta0
        self.aut = aut
        self.witness = witness


def build_state(G: PermGroup, n: int) -> PipelineState:
    if G.degree != n:
        raise SpecParseError(f"group degree {G.degree} does not match the {n} roots")
    L = realize_sn(n)
    y, y_min = compute_y(L, G)
    expected = L.degree // G.order
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
        L=L,
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
    E = NumberField(q0.with_var("Z"))
    L, c = state.L, state.c
    cubic0 = cubic(L.field.from_rational(t0) - state.y)
    theta0 = embed_generator(L.field, cubic0, E, c)
    # L's modulus m has m(theta0(Z)) = q0 * H, so where theta0 and m are
    # p-integral (H is then too), each root r of q0 mod p gives the root
    # theta0(r) of m mod p
    p = completeness_prime(q0, state.G.order, screen=(L.field.modulus, theta0.den))
    if p is None:
        reason = f"no completeness prime in the first {COMPLETENESS_PRIMES} usable primes"
        return SpecializationRecord(t0, "rejected", reason)
    # E's generator is x + c*theta0; sigma in G sends it to x + c*sigma(theta0)
    x = E.gen() - theta0 * c
    elems = sorted(state.G.elements)  # a witness indexes G in this order
    powers = Powers(theta0, L.degree - 1)
    label = {x + powers.image(L.images[g]) * c: i for i, g in enumerate(elems)}
    if len(label) != len(elems):
        raise VerificationError("two elements of G give the same automorphism")
    aut = AutomorphismTable(E, list(label), prime=p)
    witness = tuple(label[m] for m in aut.maps)
    if any(
        elems[witness[aut.table[a][b]]] != elems[wa] * elems[wb]
        for a, wa in enumerate(witness)
        for b, wb in enumerate(witness)
    ):
        raise VerificationError("the images of G do not form a copy of G")
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
    for p, (pa, pb) in usable_patterns([a.q0, b.q0], DISTINCTNESS_PRIMES):
        if pa != pb:
            return p
    return None


class RealizationCertificate:
    def __init__(
        self,
        group_n: int,
        group_generators: tuple,  # cycle-notation strings
        group_name: str | None,
        group_order: int,
        state: PipelineState,
        accepted: tuple,  # of SpecializationRecord
        transcript: tuple,  # of (t0, status, reason)
        distinctness: tuple,  # of (i, j, separating prime)
        audit: tuple,  # of (event, value)
    ):
        self.group_n = group_n
        self.group_generators = group_generators
        self.group_name = group_name
        self.group_order = group_order
        self.state = state
        self.accepted = accepted
        self.transcript = transcript
        self.distinctness = distinctness
        self.audit = audit


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
    if t_max < 0:
        raise SpecParseError(f"t-max must be >= 0, got {t_max}")
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
