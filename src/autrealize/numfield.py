"""Norms, factoring, automorphisms, splitting and fixed fields over
number fields.

``NumberField`` and ``NfElement`` live in ``exact``, beside the
polynomials whose coefficients they are (Q itself is the degree-1 field
``exact.QQ``), and are re-exported here.  Everything here needs only
their single flattened shape: towers are collapsed to one primitive
element as soon as they appear.

Factoring a squarefree polynomial over a field uses
Trager's method: shift by a multiple of the generator until the norm is
squarefree (lc * disc != 0 on the norm's ``Reductions`` record), factor
the norm over Q through that same record, pull factors back by gcd.
Trager's bound on the shifts that fail makes the search finite, and a
search that runs past it proves a repeated factor, which is refused.
Automorphisms are never searched for: their images are given, and
:class:`AutomorphismTable` is the one proof, for pipeline and validator
alike, that they are all of them (each image a root, and a completeness
prime) before their table is read modulo that prime
(:func:`table_mod_p`); the caller proves it a group law (the images are
listed in G's order, and the table must be G's own).
Every norm -- Trager norms, primitive elements of extensions, and the
pipeline's q(t0, X) at each t0 -- comes from the one helper
:func:`shifted_norms`,
which computes no resultant: the power sums of a norm's roots are traces
of the power sums of f's roots, and Newton's identities turn them into
coefficients, over integers; the part that does not depend on the shift
is shared by every shift tried.  A rational polynomial is evaluated at an
element by Paterson-Stockmeyer (:func:`evaluate`, about 2 sqrt(deg)
products), and an element is mapped through an embedding as one integer
combination of the image's powers (:class:`Powers`).  A splitting field
is a tower that keeps what it knows: the image of a generator in the
next field is one exact linear solve (:func:`embed_generator`, which
returns the image's powers, the map of the old field into the new), and
its automorphisms are its root permutations: permuting the roots in the
generator, an integer combination of them, gives [L:Q] roots of its
modulus, all of Aut(L), so each permutation keeps its generator image
and L needs no table.  Since L is normal, the degree of an element over
Q is the number of its distinct images under those automorphisms, which
is how :func:`fixed_field` measures its generator: no minimal or
characteristic polynomial is built.
"""

from __future__ import annotations

from itertools import chain, islice, permutations
from math import isqrt, lcm
from operator import mul as mul_int

from .errors import CapExceededError, VerificationError
from .exact import (
    QQ,
    NfElement,
    NumberField,
    UniPoly,
    _int_clear,
    _rational,
    _solve_fraction_free,
    poly_gcd,
)
from .factor import Reductions, factor_over_Q
from .perm import PermGroup, Permutation

SPLITTING_DEGREE_CAP = 24

#: deterministic shift sequence 1, -1, 2, -2, ...
def shift_sequence():
    k = 1
    while True:
        yield k
        yield -k
        k += 1


# -- evaluation at an element ----------------------------------------------


class Powers:
    """m^0, ..., m^k for an element m (``base``), as integer vectors over
    one common denominator: a rational combination of them is one integer
    combination and one normalisation, with no product in the field."""

    def __init__(self, m: NfElement, k):
        self.base = m
        K = self.field = m.owner
        powers = [K.one(), m][: k + 1]
        while len(powers) <= k:
            powers.append(powers[-1] * m)
        self.top = powers[-1]
        self._den = lcm(*(e.den for e in powers))
        self._vectors = [[x * (self._den // e.den) for x in e.num] for e in powers]

    def combine(self, nums, den=1):
        """sum nums[i] * m^i / den, for at most k + 1 integers nums."""
        acc = [0] * self.field.degree
        for c, vector in zip(nums, self._vectors):
            if c:
                acc = [a + c * x for a, x in zip(acc, vector)]
        return self.field._make(acc, den * self._den)

    def image(self, e: NfElement):
        """e(m): the image of e, an element of a field of degree at most
        k + 1, under the map sending its generator to m."""
        return self.combine(e.num, e.den)


def evaluate(f: UniPoly, m: NfElement) -> NfElement:
    """f(m) for a rational polynomial f, by Paterson-Stockmeyer (SIAM J.
    Comput. 2, 1973): with k about sqrt(deg f + 1), each block of k
    coefficients is a combination of m^0, ..., m^(k-1), and Horner runs
    in m^k over the blocks, so about 2k products replace deg f."""
    nums, den = _int_clear(f)
    if not nums:
        return m.owner.zero()
    k = isqrt(len(nums))
    powers = Powers(m, k)
    blocks = [nums[i : i + k] for i in range(0, len(nums), k)]
    acc = powers.combine(blocks[-1], den)
    for block in reversed(blocks[:-1]):
        # m^k first: a product skips the zero coordinates of its left side
        acc = powers.top * acc + powers.combine(block, den)
    return acc


# -- norms and Trager factorization ----------------------------------------


def shifted_norms(f: UniPoly, K: NumberField):
    """The function s -> Norm_{K/Q}(f(X - s*theta)), a monic rational
    polynomial of degree [K:Q] * deg f, for monic f over K or Q and any
    integer s.

    Its roots are sigma(b) + s*sigma(theta) over the embeddings sigma of K
    and the roots b of f, so its k-th power sum is
    sum_j C(k, j) s^(k-j) Tr(theta^(k-j) * p_j) with p_j the j-th power
    sum of f's roots (Bostan-Flajolet-Salvy-Schost, J. Symbolic Comput.
    41, 2006).  The p_j come from Newton's identities over K (over Q, with
    no product in K, when f is rational), the traces from the field's
    Tr(Z^m), and the coefficients from Newton's identities back; the part
    that does not depend on s is computed once.  Everything is an integer
    over a denominator that is a power of one integer per quantity, so
    moduli and coefficients need not be integral.
    """
    if not f.is_monic():
        raise ValueError("expects a monic polynomial")
    n = f.degree
    D = n * K.degree
    low = [(c.num, c.den) for c in f.coeffs[:-1]]
    A = lcm(*(den for _, den in low))
    if not any(any(num[1:]) for num, _ in low):  # rational f: power sums over Q
        width, R = 1, 1
        mul = lambda x, y: [x[0] * y[0]]  # noqa: E731
    else:
        width, R = K.degree, K._reduction[1]
        mul = K._mul
    a = [
        [x * (A // den) for x in num[:width]] + [0] * (width - len(num))
        for num, den in low
    ]
    AR = A * R
    # p_k = pi[k] / AR^k, from p_k + sum_{0<i<k} a_(n-i) p_(k-i) + k a_(n-k) = 0
    # (a_j = 0 for j < 0)
    pi = [[n] + [0] * (width - 1)]
    for k in range(1, D + 1):
        if k <= n:
            acc = [k * A ** (k - 1) * R**k * x for x in a[n - k]]
        else:
            acc = [0] * width
        for i in range(1, min(k - 1, n) + 1):
            term = mul(a[n - i], pi[k - i])
            scale = AR ** (i - 1)
            acc = [x + scale * y for x, y in zip(acc, term)]
        pi.append([-x for x in acc])
    # cols[m][l] = Tr(theta^(m+l)) * mu^(m+width-1), so that
    # Tr(theta^m p_j) = sum_l pi[j][l] cols[m][l] / (mu^(m+width-1) AR^j)
    #                 = nu[j][m] / (M B^(j+m)), M = mu^(width-1), B = A R mu
    mu, tau = K.power_traces(D + width)
    B, M = AR * mu, mu ** (width - 1)
    cols = [
        [tau[m + l] * mu ** (width - 1 - l) for l in range(width)]
        for m in range(D + 1)
    ]
    nu = [
        [mu**j * AR**m * sum(map(mul_int, p, cols[m])) for m in range(D + 1 - j)]
        for j, p in enumerate(pi)
    ]

    def norm(s):
        # power sums S_k = sigma[k] / (M^k B^k) of the norm's roots
        sigma = [0]
        for k in range(1, D + 1):
            acc, binom = 0, 1
            for j in range(k + 1):
                acc += binom * s ** (k - j) * nu[j][k - j]
                binom = binom * (k - j) // (j + 1)
            sigma.append(acc * M ** (k - 1))
        # e_k = u[k] / (k! (M B)^k), from k e_k = sum_i (-1)^(i-1) e_(k-i) S_i
        u = [1]
        for k in range(1, D + 1):
            acc, falling = 0, 1  # falling = (k-1)! / (k-i)!
            for i in range(1, k + 1):
                term = u[k - i] * sigma[i] * falling
                acc += -term if i % 2 == 0 else term
                falling *= k - i
            u.append(acc)
        coeffs = [0] * (D + 1)
        scale = 1
        for k in range(D + 1):
            coeffs[D - k] = _rational(-u[k] if k % 2 else u[k], scale)
            scale *= (k + 1) * M * B
        return UniPoly(coeffs)

    return norm


def _sqf_norm(f: UniPoly, K: NumberField):
    """Find shift s with N(X) = Norm(f(X - s*theta)) squarefree.

    Returns (s, shifted f over K, N over Q, N's ``Reductions`` record) for
    monic f over K; N is squarefree iff lc(N) * disc(N) != 0 on its
    record, which the factorization of N then reads.  The roots of N are
    b + s*sigma(theta) for the embeddings sigma of K and the roots b of
    sigma(f); for squarefree f two of them meet only across two
    embeddings, each such pair at one s at most, so at most
    m^2 d(d-1)/2 shifts fail, m = deg f and d = [K:Q] (Trager, SYMSAC
    '76).  The search tries one more shift than that and then refuses f
    with a ValueError: every shift fails exactly when f has a repeated
    factor.  s = 0 is tried first only when some coefficient of f is
    irrational: for rational f the norm at s = 0 is f^[K:Q], never
    squarefree when [K:Q] >= 2.
    """
    norm = shifted_norms(f, K)
    m, d = f.degree, K.degree
    shifts = shift_sequence()
    if not all(c.is_rational for c in f.coeffs):
        shifts = chain((0,), shifts)
    for s in islice(shifts, m * m * d * (d - 1) // 2 + 1):
        N = norm(s)
        if (red := Reductions(N)).lc_disc:
            g = f.compose(UniPoly([K.gen() * (-s), K.one()], K)) if s else f
            return s, g, N, red
    raise ValueError("expects a squarefree polynomial")


def factor_over_nf(f: UniPoly, K: NumberField) -> tuple:
    """The monic irreducible factors over K of a nonzero squarefree f, over
    K or Q, sorted by (degree, coordinates) (Trager): each rational factor
    N_i of the squarefree norm N of f(X - s*theta) gives the factor
    gcd(f(X - s*theta), N_i) shifted back by s*theta.  Over Q itself
    (degree 1) that norm is f and each gcd is N_i, so f is factored
    directly.  A ValueError if f has a repeated factor (see
    :func:`_sqf_norm` and :func:`factor.factor_over_Q`)."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    f = UniPoly(f.coeffs, K).monic()
    if f.degree <= 1:
        return (f,) if f.degree else ()
    if K is QQ:
        found = factor_over_Q(f)
    else:
        s, shifted, N, red = _sqf_norm(f, K)
        back = UniPoly([K.gen() * s, K.one()], K)
        found = []
        for Ni in factor_over_Q(N, reductions=red):
            Gi = poly_gcd(shifted, UniPoly(Ni.coeffs, K))
            found.append(Gi.compose(back) if s else Gi)
    if sum(G.degree for G in found) != f.degree:
        raise VerificationError("Trager pullback did not exhaust the input")
    return tuple(
        sorted(found, key=lambda G: (G.degree, tuple(c.sort_key() for c in G.coeffs)))
    )


def roots_in_field(f: UniPoly, K: NumberField):
    """All roots of a squarefree f lying in K, sorted by coordinates: the
    linear factors of its factorization over K."""
    return sorted(
        (-g.coeffs[0] for g in factor_over_nf(f, K) if g.degree == 1),
        key=NfElement.sort_key,
    )


# -- automorphisms ----------------------------------------------------------


class AutomorphismTable:
    """The proof that generator images are all the automorphisms of K/Q,
    and their composition table.

    Each step is kept in ``checks`` as (name, ok, detail), which the
    validator reports as they are and the pipeline raises on: every image
    other than K's generator (a root by definition) is a root of K's
    modulus, and ``prime`` is a completeness prime for len(maps), as K's
    record judges it (``Reductions.completeness_failure``, the criterion
    ``factor.completeness_prime`` searches with), so K has at most
    len(maps) automorphisms.
    Only then is ``table`` read by :func:`table_mod_p` at ``prime``, and
    None otherwise: table[a][b] is the index in maps of sigma_a . sigma_b.
    maps keep the order given; that the table is a group's, with the
    identity first, is the caller's check (``perm.group_table``).
    """

    def __init__(self, K: NumberField, maps, *, prime):
        self.field = K
        self.prime = prime
        self.maps = tuple(maps)
        gen = K.gen()
        roots = all(m == gen or not evaluate(K.modulus, m) for m in self.maps)
        why_not = K.reductions.completeness_failure(prime, len(self.maps))
        detail = f"p = {prime!r}" + (f": {why_not}" if why_not else "")
        self.checks = [
            ("images are roots", roots, ""),
            ("completeness prime", why_not is None, detail),
        ]
        self.table = table_mod_p(K, self.maps, prime) if roots and not why_not else None


def _residue(e: NfElement, r, p):
    """e modulo the degree-1 prime (p, Z - r) of its field."""
    if e.den % p == 0:
        raise VerificationError(f"{p} divides the denominator of an image")
    acc = 0
    for c in reversed(e.num):
        acc = (acc * r + c) % p
    return acc * pow(e.den, -1, p) % p


def table_mod_p(K: NumberField, maps, p):
    """table[a][b] = index in maps of the composite sigma_a . sigma_b, or
    None where it is not listed; maps are all the automorphisms, as
    generator images, and p a prime at which the modulus has len(maps)
    roots.  (sigma_a . sigma_b)(Z) = m_b(m_a(Z)) reduces to m_b(m_a(r))
    modulo the degree-1 prime (p, Z - r) at a root r of the modulus mod p,
    where the residues of the maps must be distinct and p-integral.
    """
    r = K.reductions.root(p)
    if r is None:
        raise VerificationError(f"the modulus has no usable root mod {p}")
    residues = [_residue(m, r, p) for m in maps]
    index = {v: i for i, v in enumerate(residues)}
    if len(index) != len(maps):
        raise VerificationError(f"two images agree mod {p}")
    return [[index.get(_residue(b, ra, p)) for b in maps] for ra in residues]


# -- field extension / primitive elements -----------------------------------


def extend_field(K: NumberField, h: UniPoly):
    """Adjoin a root of h (monic irreducible of degree >= 2 over K);
    flatten to one primitive element.

    Returns (K2, powers, beta, c): K2's generator is beta + c*theta for
    the shift c that :func:`_sqf_norm` finds, powers are those of the
    image of K's generator theta in K2 (see :func:`embed_generator`), and
    beta is a root of (the coefficient-mapped) h in K2.  Over K = Q,
    where theta = 0, h is its own norm and c = 0: no shift is searched.
    """
    h = UniPoly(h.coeffs, K)
    # z = beta + c*theta; minimal polynomial = Norm(h(X - c*theta)),
    # irreducible whenever squarefree (norm of an irreducible is a power
    # of an irreducible)
    if K.degree == 1:  # theta = 0, so h is its own norm
        c, N = 0, h
    else:
        c, _, N, _ = _sqf_norm(h, K)
    K2 = NumberField(N)
    powers = embed_generator(K, h, K2, c)
    return K2, powers, K2.gen() - powers.base * c, c


def embed_generator(K, h, K2, c):
    """The powers theta2^0, ..., theta2^[K:Q] (a :class:`Powers`, whose
    ``image`` maps K into K2) of the image theta2 in K2 of K's generator
    theta, where K2's generator z is beta + c*theta for a root beta of h
    (monic over K).

    In the tower K(beta), with basis theta^i beta^j, the powers z^0, ...,
    z^(D-1) are a basis too, so theta = sum a_k z^k for one rational
    vector a, found by one fraction-free D x D solve; theta2 is then
    sum a_k Z^k.  Checked exactly: theta2 is a root of K's modulus, and h,
    with its coefficients mapped through theta2, vanishes at Z - c*theta2.
    """
    D = K2.degree
    low = [-e for e in h.coeffs[:-1]]  # beta^m = sum_j low[j] beta^j
    step = K.gen() * c
    power = [K.one()] + [K.zero()] * (h.degree - 1)  # z^k over the beta^j
    cols, dens = [], []
    for _ in range(D):
        den = lcm(*(e.den for e in power))
        cols.append([x * (den // e.den) for e in power for x in e.num])
        dens.append(den)
        top = power[-1]
        power = [
            step * e + prev + top * l
            for e, prev, l in zip(power, [K.zero()] + power[:-1], low)
        ]
    theta = list(K.gen().num) + [0] * (D - K.degree)
    solved = _solve_fraction_free([list(row) for row in zip(*cols)], theta)
    if solved is None:
        raise VerificationError("powers of the new generator are not a basis")
    det, y = solved
    theta2 = K2._make([d * v for d, v in zip(dens, y)], det)
    powers = Powers(theta2, K.degree)
    if powers.combine(*_int_clear(K.modulus)):
        raise VerificationError("embedded generator is not a root of the modulus")
    h2 = h.map_coeffs(powers.image, field=K2)
    if h2.eval(K2.gen() - theta2 * c):
        raise VerificationError("embedded root does not annihilate h")
    return powers


# -- splitting fields -------------------------------------------------------


class SplittingField:
    """A splitting field with explicit roots and Galois action.

    ``roots`` are sorted by coordinates; ``images`` maps each permutation
    of the 1-based root indices to the generator's image under the
    automorphism that moves the roots so, and ``galois`` is the group
    those permutations generate, closed like any other.
    """

    def __init__(self, field, poly, roots, images):
        self.field = field
        self.poly = poly
        self.roots = tuple(roots)
        self.images = images
        self.galois = PermGroup(images, len(roots))

    @property
    def degree(self):
        return self.field.degree


def splitting_field(f: UniPoly) -> SplittingField:
    """Splitting field of a squarefree rational polynomial, with the
    Galois group as permutations of the sorted root list.

    Each step of the tower adjoins a root beta of the smallest nonlinear
    factor left, with generator beta + c*z for the old generator z, so the
    generator is an integer combination sum k_i r_i of roots; its images
    are the values sum k_i r_pi(i), over all permutations pi of the roots,
    at which the modulus vanishes, and an image given by one pi alone
    says where its automorphism sends the adjoined roots.  Once all roots
    but one are known, the last is minus the X^(n-1) coefficient minus
    their sum, so the largest field is never factored over.  A degree
    above SPLITTING_DEGREE_CAP is refused before it is built, and f with
    a repeated factor by the first factorization (a ValueError).
    """
    if f.field is not QQ:
        raise ValueError("expects a rational polynomial")
    if f.degree < 1:
        raise ValueError("needs degree >= 1")
    K = QQ
    work = f.monic()
    weights = []  # the generator is sum weights[i] * adjoined[i]
    adjoined = []
    while True:
        factors = factor_over_nf(work, K)
        roots = [-g.coeffs[0] for g in factors if g.degree == 1]
        nonlinear = [g for g in factors if g.degree > 1]
        if not nonlinear:
            break
        h = min(nonlinear, key=lambda g: g.degree)
        new_deg = K.degree * h.degree
        if new_deg > SPLITTING_DEGREE_CAP:
            raise CapExceededError(
                f"splitting field degree would reach {new_deg}, "
                f"exceeding the cap {SPLITTING_DEGREE_CAP}"
            )
        K2, powers, beta, c = extend_field(K, h)
        remap = powers.image
        work = work.map_coeffs(remap, field=K2)
        moved = {r: remap(r) for r in roots}  # the adjoined roots are among them
        adjoined = [moved[a] for a in adjoined] + [beta]
        roots = [*moved.values(), beta]
        weights = [c * k for k in weights] + [1]
        K = K2
        if len(roots) == f.degree - 1:
            roots.append(-work.coeffs[-2] - sum(roots, K.zero()))
            break
    roots.sort(key=NfElement.sort_key)
    # reconstruct f from the roots as a sanity check
    acc = UniPoly.one(K)
    for r in roots:
        acc = acc * UniPoly([-r, K.one()], K)
    target = UniPoly(f.monic().coeffs, K)
    if acc != target:
        raise VerificationError("root product does not reconstruct the input")
    # each value at which the modulus vanishes is a conjugate of the
    # generator; [K:Q] distinct ones in K are all of Aut(K), and make K
    # normal, so they need no table and no second check
    injections = {}  # value -> the injections pi giving sum k_i r_pi(i)
    for img in permutations(range(len(roots)), len(weights)):
        w = sum((roots[i] * k for i, k in zip(img, weights)), K.zero())
        injections.setdefault(w, []).append(img)
    maps = [w for w in injections if not evaluate(K.modulus, w)]
    if len(maps) != K.degree:
        raise VerificationError(
            "splitting field is not Galois: automorphism count "
            f"{len(maps)} != degree {K.degree}"
        )
    at = [roots.index(a) for a in adjoined]
    images = {_root_permutation(m, roots, at, injections[m]): m for m in maps}
    return SplittingField(K, f.monic(), roots, images)


def _root_permutation(m, roots, at, injections):
    """How the automorphism sigma with generator image m moves the sorted
    roots, where roots[at[j]] is the j-th adjoined root.

    sigma's own injection gives m, so when exactly one injection gives
    it, that injection says where the adjoined roots go.  A single root
    left over goes to the one free index; roots[j] is evaluated at m only
    for the roots that neither step places.
    """
    images = [None] * len(roots)
    if len(injections) == 1:
        for j, k in zip(at, injections[0]):
            images[j] = k
    left = [j for j, k in enumerate(images) if k is None]
    if len(left) == 1:
        (images[left[0]],) = set(range(len(roots))).difference(images)
    else:
        for j in left:
            images[j] = roots.index(roots[j].to_poly().eval(m))
    return Permutation(k + 1 for k in images)


# -- fixed fields -----------------------------------------------------------


def fixed_field(Lsp: SplittingField, H: PermGroup) -> NfElement:
    """A generator y of the subfield of L fixed by H.

    Deterministic search: orbit sums of theta^j for j = 1, 2, ...; if
    none reaches the target degree, orbit sums of theta^j + j*theta.
    L is normal and ``images`` lists all of Gal(L), so the degree of an
    orbit sum y over Q is the number of its distinct conjugates y(m), m
    in ``images``; the first with [L:Q] / |H| of them is y.  y is fixed
    by H and sigma_{gh} = sigma_g o sigma_h (permutations compose right
    to left), so y has one conjugate per left coset gH, and only the
    image of the least g in each coset is evaluated.
    """
    if not H.elements <= Lsp.galois.elements:
        raise ValueError("H must be a subgroup of the Galois group")
    K = Lsp.field
    d = K.degree
    target = d // H.order
    theta = K.gen()
    sigmas = [Powers(Lsp.images[p], d - 1) for p in sorted(H.elements)]
    coset_images = []
    covered = set()
    for g in sorted(Lsp.images):
        if g not in covered:
            covered.update(g * h for h in H.elements)
            coset_images.append(Lsp.images[g])

    def orbit_sum(e):
        return sum((sigma.image(e) for sigma in sigmas), K.zero())

    candidates = [theta**j for j in range(1, d + 1)]
    candidates += [theta**j + theta * j for j in range(2, d + 1)]
    for cand in candidates:
        y = orbit_sum(cand)
        f = y.to_poly()
        if len({evaluate(f, m) for m in coset_images}) == target:
            if any(sigma.image(y) != y for sigma in sigmas):
                raise VerificationError("orbit sum not fixed by H")
            return y
    raise VerificationError("no fixed-field generator found in the search family")
