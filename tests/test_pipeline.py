import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

import sys

from autrealize import factor, numfield, perm, pipeline
from autrealize.errors import (
    BudgetExhaustedError,
    CapExceededError,
    SpecParseError,
    VerificationError,
)
from autrealize.exact import UniPoly
from autrealize.factor import Reductions, completeness_prime
from autrealize.family import cubic
from autrealize.numfield import NumberField, Powers, embed_generator, evaluate
from autrealize.pipeline import (
    build_E_minpoly,
    build_state,
    compute_y,
    fields_distinct_exact,
    realize_sn,
    SpecializationRecord,
    run,
    specialize_and_verify,
    t0_sequence,
)
from autrealize.perm import PermGroup, group_table, parse_cycles
from reference import (
    accepted_records,
    completeness_prime_by_pattern,
    embed_generator_by_gcd,
    interpolated_q,
    minpoly,
    named_perm_group,
    shifted_norm_by_resultants,
    theta0_image,
    to_abstract,
)


@pytest.fixture(scope="module")
def state_trivial():
    return build_state(PermGroup([], degree=1))


@pytest.fixture(scope="module")
def state_s2():
    return build_state(named_perm_group("S2"))


#: generators of the groups the screen and norm tests run on, by name
GROUPS = {
    "S3": (3, ("(1 2)", "(1 2 3)")),
    "C3": (3, ("(1 2 3)",)),
    "C2": (2, ("(1 2)",)),
    "C1": (1, ("()",)),
    "S2 in S3": (3, ("(1 2)",)),  # a proper subgroup: y != 0
}


X = UniPoly.gen()


def group(name):
    n, gens = GROUPS[name]
    return PermGroup([parse_cycles(g, n) for g in gens], degree=n)


@pytest.fixture(scope="module")
def states():
    return {name: build_state(group(name)) for name in GROUPS}


class TestRealizeSn:
    def test_n1(self):
        L = realize_sn(1)
        assert L.degree == 1 and L.galois.order == 1

    def test_n2(self):
        L = realize_sn(2)
        assert L.degree == 2 and L.galois.order == 2

    def test_n3(self):
        L = realize_sn(3)
        assert L.degree == 6

    def test_caps(self):
        with pytest.raises(SpecParseError):
            realize_sn(0)
        for n in (4, 5):
            with pytest.raises(CapExceededError):
                realize_sn(n)


class TestComputeY:
    def test_full_group_gives_zero(self):
        L = realize_sn(2)
        assert not compute_y(L, named_perm_group("S2"))

    def test_proper_subgroup(self):
        L = realize_sn(2)
        y = compute_y(L, PermGroup([], degree=2))
        assert minpoly(y).degree == 2


class TestBuildEMinpoly:
    def test_n1_degree_3(self, state_trivial):
        assert build_E_minpoly(state_trivial.L, state_trivial.y) == (0, None, None)
        # q = X^3 + T X + T
        assert state_trivial.specialize(F(1)).coeffs == (F(1), F(1), F(0), F(1))

    def test_n2_degree_6(self, state_s2):
        assert state_s2.specialize(F(1)).degree == 6
        assert state_s2.c != 0


def assert_specializes_interpolated_q(state):
    """The shift is the one q(T, X) built as a polynomial in T gives, and
    the norm taken at each t0 of t0_sequence(4) is q(t0, X)."""
    c, q = interpolated_q(state.L, state.y)
    assert state.c == c
    for t0 in t0_sequence(4):
        assert state.specialize(t0) == q.specialize(t0), t0


class TestSpecialize:
    @pytest.mark.parametrize("name", list(GROUPS))
    def test_matches_interpolated_q(self, states, name):
        assert_specializes_interpolated_q(states[name])


class TestNormsFromPowerSums:
    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_q_matches_resultant_norms(self, states, monkeypatch, name):
        """build_E_minpoly finds the same shift, and each q(t0, X) is the
        same, when every norm is the resultant-and-interpolation one."""
        state = states[name]
        monkeypatch.setattr(
            pipeline,
            "shifted_norms",
            lambda f, K: lambda s: shifted_norm_by_resultants(f, K, s),
        )
        assert build_E_minpoly(state.L, state.y)[0] == state.c
        assert_specializes_interpolated_q(state)


def s3_field_elements(state):
    """Elements of the S3 field E at t0 = 1: its generator, every
    automorphism image, theta0 and two random elements."""
    rec = specialize_and_verify(state, 1)
    E = rec.field
    rand = [E.element(random_rationals(seed, E.degree, 9)) for seed in (17, 18)]
    return rec, [E.gen(), *rec.aut.maps, theta0_image(state, rec), *rand]


def random_rationals(seed, count, height):
    rng = random.Random(seed)
    return [
        F(rng.randrange(-height, height + 1), rng.randrange(1, 7)) for _ in range(count)
    ]


class TestEvaluate:
    def test_matches_horner(self, states):
        """Paterson-Stockmeyer agrees with Horner for degrees 0 to 20 and
        for the zero polynomial."""
        _, elements = s3_field_elements(states["S3"])
        polys = [UniPoly([])]
        polys += [UniPoly(random_rationals(d, d, 20) + [1]) for d in range(21)]
        for f in polys:
            for m in elements:
                assert evaluate(f, m) == f.eval(m)

    def test_powers_image_matches_horner(self, states):
        """An element of L mapped through theta0 is the same combination
        of theta0's powers that Horner evaluates."""
        state = states["S3"]
        rec, _ = s3_field_elements(state)
        theta0 = theta0_image(state, rec)
        powers = Powers(theta0, state.L.degree - 1)
        for e in state.L.images.values():
            assert powers.image(e) == e.to_poly().eval(theta0)


#: (group, t0) pairs at which the screened completeness search is checked
SCREENED = [
    *(("S3", t0) for t0 in (F(1), F(2), F(-2), F(1, 2))),
    ("C3", F(0)),
    *(("C2", t0) for t0 in (F(1), F(-1), F(2), F(-2))),
]


class TestScreenedCompletenessPrime:
    @pytest.mark.parametrize("name, t0", SCREENED, ids=[f"{n}:{t}" for n, t in SCREENED])
    def test_same_prime_as_unscreened(self, states, name, t0):
        state = states[name]
        q0 = state.specialize(t0)
        E = NumberField(q0)
        theta0 = embed_generator(state.L.field, state.cubic_at(t0), E, state.c).base
        order = state.G.order
        screen = (Reductions(state.L.field.modulus), theta0.den)
        p = completeness_prime(Reductions(q0), order, screen=screen)
        assert p is not None and p == completeness_prime(Reductions(q0), order)

    def test_few_full_degree_gcds(self, monkeypatch):
        """For S3 at t0 = 1 the screen through L leaves at most 8 of the
        34 usable primes below the prime found (167) to a degree-18 root
        product, each an X^p taken modulo q0 mod p.  The state is the
        test's own: its field at t0 = 1 is the one build_E_minpoly
        accepted the shift on, whose record keeps the root products that
        earlier calls computed."""
        state = build_state(group("S3"))
        inside, degrees = [False], []
        power = factor._gpow_mod

        def counting(a, e, f, p):
            if inside[0]:
                degrees.append(len(f) - 1)
            return power(a, e, f, p)

        search = pipeline.completeness_prime

        def flagged(*args, **kwargs):
            inside[0] = True
            try:
                return search(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(factor, "_gpow_mod", counting)
        monkeypatch.setattr(pipeline, "completeness_prime", flagged)
        rec = specialize_and_verify(state, 1)
        assert (rec.status, rec.aut.prime) == ("accepted", 167)
        assert 1 <= degrees.count(18) <= 8


class TestSpecializeAndVerify:
    def test_t0_zero_rejected(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 0)
        assert rec.status == "rejected" and "bad set" in rec.reason

    def test_t0_one_accepted(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 1)
        assert rec.status == "accepted"
        assert rec.field.modulus.coeffs == (F(1), F(1), F(0), F(1))  # X^3 + X + 1
        assert len(rec.aut.maps) == 1

    def test_bad_rational_rejected(self, state_trivial):
        rec = specialize_and_verify(state_trivial, F(-27, 4))
        assert rec.status == "rejected"

    def test_s2_accept(self, state_s2):
        for t0 in t0_sequence(5):
            rec = specialize_and_verify(state_s2, t0)
            if rec.status == "accepted":
                assert rec.field.degree == 6
                assert len(rec.aut.maps) == 2
                # listed in S2's order: the identity (E's generator), then (1 2)
                assert rec.aut.maps[0] == rec.field.gen()
                assert rec.aut.table == [[0, 1], [1, 0]]
                break
        else:
            pytest.fail("no accepted specialization for S2 within height 5")

    def test_no_completeness_prime_rejected(self, state_s2, monkeypatch):
        monkeypatch.setattr(pipeline, "completeness_prime", lambda f, k, screen: None)
        rec = specialize_and_verify(state_s2, 1)
        assert (rec.status, rec.reason) == (
            "rejected",
            "no completeness prime in the first 1000 usable primes",
        )

    def test_images_not_a_copy_of_g_raise(self, states, monkeypatch):
        # a transposition's image swapped with a 3-cycle's: the images,
        # listed in G's order, no longer compose as G does
        state = states["S3"]
        images = dict(state.L.images)
        elems = sorted(images)
        a, b = elems[1], elems[3]
        assert (a * a).is_identity and not (b * b).is_identity
        images[a], images[b] = images[b], images[a]
        monkeypatch.setattr(state.L, "images", images)
        with pytest.raises(VerificationError, match="do not form a copy of G"):
            specialize_and_verify(state, 1)

    def test_identity_not_first_raise(self, state_s2, monkeypatch):
        images = dict(state_s2.L.images)
        a, b = sorted(images)
        images[a], images[b] = images[b], images[a]
        monkeypatch.setattr(state_s2.L, "images", images)
        with pytest.raises(VerificationError, match="do not form a copy of G"):
            specialize_and_verify(state_s2, 1)

    def test_failed_check_raises(self, state_s2, monkeypatch):
        """A prime the search did not return fails the table's own
        completeness check, and the table is not read at it."""
        monkeypatch.setattr(pipeline, "completeness_prime", lambda f, k, screen: 4)
        with pytest.raises(VerificationError, match="not an integer prime"):
            specialize_and_verify(state_s2, 1)

    def test_two_labels_one_image_raise(self, state_s2, monkeypatch):
        images = dict(state_s2.L.images)
        a, b = sorted(images)
        images[b] = images[a]
        monkeypatch.setattr(state_s2.L, "images", images)
        with pytest.raises(VerificationError, match="two images agree mod"):
            specialize_and_verify(state_s2, 1)

    def test_no_isomorphism_search(self, state_s2, monkeypatch):
        """The labelling is the order of the images: no are_isomorphic
        call, wherever the package reaches it from."""
        calls = []
        search = perm.are_isomorphic
        for module in list(sys.modules.values()):
            if getattr(module, "are_isomorphic", None) is search:
                monkeypatch.setattr(
                    module,
                    "are_isomorphic",
                    lambda *a: calls.append("are_isomorphic") or search(*a),
                )
        rec = specialize_and_verify(state_s2, 1)
        assert rec.status == "accepted"
        assert calls == []


#: presentations of S3, C3 and C2 as (n, ';'-separated generators)
LABELLED = {
    **{
        f"S3 {gens}": (3, gens)
        for gens in ("(1 2);(1 2 3)", "(1 2);(2 3)", "(1 3);(1 2 3)", "(2 3);(1 3 2)")
    },
    "C3 (1 2 3)": (3, "(1 2 3)"),
    "C3 (1 3 2)": (3, "(1 3 2)"),
    "C2": (2, "(1 2)"),
}


class TestWitnessIsLabelling:
    @pytest.mark.parametrize("name", list(LABELLED))
    def test_witness_indexes_restriction_to_l(self, name):
        """The witness is positional: the automorphism Z -> aut.maps[i] of
        E restricts on L to sorted(G.elements)[i], read on theta0, the
        image of L's generator in E."""
        n, gens = LABELLED[name]
        G = PermGroup([parse_cycles(g, n) for g in gens.split(";")], degree=n)
        cert = run(G, count=1)
        (rec,), L = accepted_records(cert), cert.state.L
        elems = sorted(G.elements)
        theta0 = theta0_image(cert.state, rec)
        for m, g in zip(rec.aut.maps, elems, strict=True):
            moved = theta0.to_poly().eval(m)
            sigmas = [
                s for s, img in L.images.items() if img.to_poly().eval(theta0) == moved
            ]
            assert sigmas == [g]


class TestIsWitness:
    """The one labelling check the producer and the validator share: a
    table is labelled as G, image i extending sorted(G.elements)[i], iff
    it equals group_table(G).  The refused tables are the ones a short,
    non-injective, out-of-range or non-homomorphic labelling gives."""

    S3 = named_perm_group("S3")
    TABLE = to_abstract(S3)  # in sorted(G.elements) order

    def test_identity_labelling(self):
        assert group_table(self.S3) == self.TABLE

    @pytest.mark.parametrize(
        "relabel",
        [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 6], [1, 0, 2, 3, 4, 5]],
        ids=["short", "not_injective", "out_of_range", "not_a_homomorphism"],
    )
    def test_refused(self, relabel):
        # entry x of the table read as relabel[x], over the rows relabel covers
        n = len(relabel)
        table = [[relabel[x] for x in row if x < n] for row in self.TABLE[:n]]
        assert table != group_table(self.S3)


class TestTheta0:
    @pytest.mark.parametrize(
        "gens, t0", [(("(1 2 3)", "(1 2)"), 1), (("(1 2 3)",), 0)], ids=["S3", "C3"]
    )
    def test_embedding_matches_gcd_reference(self, gens, t0):
        """theta's image in the accepted E, from one linear solve, is the
        one the gcd over E gives."""
        G = PermGroup([parse_cycles(g, 3) for g in gens], degree=3)
        state = build_state(G)
        rec = specialize_and_verify(state, t0)
        assert rec.status == "accepted"
        cubic0 = cubic(state.L.field.from_rational(t0) - state.y)
        expected = embed_generator_by_gcd(state.L.field, cubic0, rec.field, state.c)
        assert theta0_image(state, rec) == expected

    def test_powers_built_once(self, states, monkeypatch):
        """The powers of theta0 that the embedding built for its own check
        map L's automorphisms into E; none are built again."""
        bases = []
        powers = numfield.Powers

        def watched(m, k):
            bases.append(m)
            return powers(m, k)

        monkeypatch.setattr(numfield, "Powers", watched)
        monkeypatch.setattr(pipeline, "Powers", watched, raising=False)
        rec = specialize_and_verify(states["S3"], 1)
        assert rec.status == "accepted"
        monkeypatch.undo()  # theta0_image embeds theta again
        assert bases.count(theta0_image(states["S3"], rec)) == 1


@pytest.fixture(scope="module")
def count_3():
    """Certificates with three fields each, for S3 and for C3."""
    return {name: run(group(name), count=3) for name in ("S3", "C3")}


class TestSharedCriteria:
    """The search and the validator judge each prime by the same record
    method: the prime a run records is the first that method accepts."""

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_completeness_prime_is_the_first_passing(self, count_3, name):
        cert = count_3[name]
        k = cert.state.G.order
        for rec in accepted_records(cert):
            red = rec.field.reductions
            first = next(p for p in red.primes() if red.completeness_failure(p, k) is None)
            assert rec.aut.prime == first == completeness_prime_by_pattern(rec.field.modulus, k)

    @pytest.mark.parametrize("name", ["S3", "C3"])
    def test_distinctness_prime_is_the_first_separating(self, count_3, name):
        cert = count_3[name]
        accepted = accepted_records(cert)
        assert len(cert.distinctness) == 3
        for i, j, p in cert.distinctness:
            A, B = (accepted[k].field.reductions for k in (i, j))
            assert p == next(q for q in A.primes(B) if A.separates(B, q))
            for q in (2, 3, 9, 25, 2**64 + 13):
                assert not A.separates(B, q)

    def test_separates_needs_both_patterns(self):
        A, B = Reductions(X**2 + 1), Reductions(X**2 - 5)
        # X^2 + 1 has no root mod 11, and 5 is a square mod 11
        assert A.separates(B, 11) and B.separates(A, 11)
        # 5 divides disc(X^2 - 5) = 20, so its pattern at 5 is None
        assert A.pattern(5) == (1, 1) and B.pattern(5) is None
        assert not A.separates(B, 5) and not B.separates(A, 5)

    def test_completeness_failure_reasons(self):
        red = Reductions(X**2 + 1)
        assert red.completeness_failure(5, 2) is None
        for p in (4, 2**64 + 13, "5", True, 5.0):
            assert red.completeness_failure(p, 2) == "not an integer prime with 5 <= p < 2**64"
        # 5 divides disc(X^2 - 5), and lc(F) for F = 5X^2 + 1
        for f in (X**2 - 5, UniPoly([F(1, 5), F(0), F(1)])):
            assert Reductions(f).completeness_failure(5, 2) == (
                "p divides the leading coefficient or q0 is not squarefree mod p"
            )
        assert red.completeness_failure(5, 0) == "no images, and the bound needs a root mod p"
        assert red.completeness_failure(7, 2) == "0 roots mod p for 2 images"
        assert red.completeness_failure(5, 1) == "2 roots mod p for 1 images"


class TestRun:
    def test_trivial_two_fields(self):
        cert = run(PermGroup([], degree=1), count=2, t_max=10)
        a, b = accepted_records(cert)
        assert a.t0 != b.t0
        # X^3 + X + 1 is irreducible mod 5, X^3 - X - 1 has a root there
        assert cert.distinctness == ((0, 1, 5),)
        assert fields_distinct_exact(a, b) == 5
        # the transcript starts at t0 = 0, which is in the bad set
        assert cert.transcript[0].t0 == 0 and cert.transcript[0].status == "rejected"

    def test_budget_exhausted(self):
        with pytest.raises(BudgetExhaustedError) as ei:
            run(PermGroup([], degree=1), count=50, t_max=2)
        assert ei.value.transcript

    def test_count_validation(self):
        with pytest.raises(SpecParseError):
            run(PermGroup([], degree=1), count=0)

    def test_negative_t_max_refused_before_build(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("pipeline state built for a negative t-max")

        monkeypatch.setattr(pipeline, "build_state", refuse)
        with pytest.raises(SpecParseError, match="t-max must be >= 0"):
            run(named_perm_group("S2"), count=1, t_max=-3)

    @pytest.mark.parametrize("name, discriminants", [("S3", 11), ("C3", 8)])
    def test_one_discriminant_per_polynomial(self, monkeypatch, name, discriminants):
        """A realize takes no polynomial's discriminant twice: E at the t0
        = t whose norm build_E_minpoly accepted the shift on (S3 t0 = 1,
        C3 t0 = 0) is that norm's field, with its record, and the
        splitting field's first extension, over Q, takes no norm of its
        own (the parent took 13 discriminants of 11 polynomials for S3
        and 10 of 8 for C3)."""
        taken, disc = [], factor.discriminant
        monkeypatch.setattr(factor, "discriminant", lambda F: taken.append(F) or disc(F))
        cert = run(group(name), count=1)
        assert len(taken) == len(set(taken)) == discriminants
        assert cert.state.accepted[1] is accepted_records(cert)[0].field

    def test_field_never_separated_from_itself(self, state_trivial):
        rec = specialize_and_verify(state_trivial, 1)
        assert rec.status == "accepted"
        assert fields_distinct_exact(rec, rec) is None

    def test_repeated_factor_raises(self):
        """No prime is usable for a q0 with a repeated factor: the search
        raises instead of looping."""
        q0s = [X**3 - X - 1, (X**2 + 1) ** 2]
        a, b = (
            SpecializationRecord(F(t0), "accepted", field=NumberField(q0))
            for t0, q0 in enumerate(q0s)
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match="squarefree"):
            fields_distinct_exact(a, b)
        assert time.perf_counter() - start < 1

    def test_no_separating_prime_rejects(self, monkeypatch):
        monkeypatch.setattr(pipeline, "DISTINCTNESS_PRIMES", 0)
        with pytest.raises(BudgetExhaustedError) as ei:
            run(PermGroup([], degree=1), count=2, t_max=1)
        rec = ei.value.transcript[2]
        assert (rec.t0, rec.status, rec.reason) == (
            F(-1), "rejected", "no prime separates it from the field at t0 = 1"
        )

    def test_c2_completeness_primes(self):
        cert = run(named_perm_group("C2"), count=4)
        assert [rec.aut.prime for rec in accepted_records(cert)] == [11, 11, 19, 29]

    def test_s2_run(self):
        cert = run(named_perm_group("S2"), count=2, t_max=20)
        accepted = accepted_records(cert)
        assert len(accepted) == 2
        for rec in accepted:
            assert len(rec.aut.maps) == 2
        assert fields_distinct_exact(*accepted)
        assert any(e == "prime" for e, _ in cert.audit)


class TestDistinctnessReadsRecords:
    def test_each_pattern_once_per_field_and_prime(self, monkeypatch):
        """Over one S3 count-4 run, fields_distinct_exact factors each
        field mod each prime at most once and computes no discriminant:
        the records the fields carry keep both."""
        inside, ddfs, discriminants = [False], Counter(), []
        ddf, discriminant = factor._gddf, factor.discriminant

        def counting_ddf(fp, p):
            if inside[0]:
                ddfs[tuple(fp), p] += 1  # fp is the field's F mod p
            return ddf(fp, p)

        def counting_discriminant(f):
            if inside[0]:
                discriminants.append(f.degree)
            return discriminant(f)

        distinct = pipeline.fields_distinct_exact

        def flagged(a, b):
            inside[0] = True
            try:
                return distinct(a, b)
            finally:
                inside[0] = False

        monkeypatch.setattr(factor, "_gddf", counting_ddf)
        monkeypatch.setattr(factor, "discriminant", counting_discriminant)
        monkeypatch.setattr(pipeline, "fields_distinct_exact", flagged)
        cert = run(named_perm_group("S3"), count=4)
        assert len(cert.distinctness) == 6
        assert ddfs and max(ddfs.values()) == 1
        assert discriminants == []


class TestT0Sequence:
    def test_order_and_halves(self):
        seq = list(t0_sequence(2))
        assert seq[:5] == [F(0), F(1), F(-1), F(2), F(-2)]
        assert F(1, 2) in seq and F(-3, 2) in seq
        assert len(seq) == len(set(seq))
