"""End-to-end acceptance suite.

Each numbered test exercises one advertised guarantee, including its
runtime budget.  The certificate-producing runs are cached at module
level so the determinism check can compare a second, fresh run against
the first without redoing the earlier tests' work.
"""

import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from itertools import islice, permutations
from pathlib import Path

import pytest

import autrealize
from autrealize.certs import certificate_to_json, dumps_canonical, validate_certificate
from autrealize.cli import EXIT_OK, EXIT_PARSE, main
from autrealize.exact import (
    QQ,
    UniPoly,
    discriminant,
    parse_rational,
    parse_unipoly,
    poly_divrem,
    render_rational,
)
from autrealize.factor import (
    EDF_SEED,
    Reductions,
    _is_prime,
    factor_over_Q,
    is_irreducible_Q,
)
from autrealize.family import FAMILY, certify_s3, cubic
from autrealize.numfield import (
    NumberField,
    factor_over_nf,
    fixed_field,
    splitting_field,
)
from autrealize.perm import PermGroup, group_table, named_group, parse_cycles, parse_generators
from autrealize.pipeline import run as pipeline_run
from reference import (
    accepted_records,
    aut_group_via_quotient,
    automorphisms,
    composition_table,
    distinct_parts,
    expand,
    interpolated_q,
    minpoly,
    named_perm_group,
    pattern_by_gcd,
    theta0_image,
    usable_primes,
    v4_pipeline,
)

X = UniPoly.gen()

_runs = {}


def run_named(key, **kw):
    """pipeline.run on a named group, read from its generator text as
    ``realize --named`` reads it."""
    _, n, gens = named_group(key)
    G, gen_strings = parse_generators(gens, n)
    return pipeline_run(G, group_generators=gen_strings, group_name=key, **kw)


def timed_run(key, *, count, t_max=200):
    """First pipeline run for a named group, cached with its timing."""
    if key not in _runs:
        start = time.monotonic()
        cert = run_named(key, count=count, t_max=t_max)
        elapsed = time.monotonic() - start
        text = dumps_canonical(certificate_to_json(cert))
        _runs[key] = (cert, elapsed, text, dict(count=count, t_max=t_max))
    return _runs[key]


def assert_separated(cert):
    """Each distinctness prime is the first one at which the per-prime
    gcd definition gives both fields a pattern, and different ones."""
    accepted = accepted_records(cert)
    for i, j, p in cert.distinctness:
        a, b = accepted[i].field.modulus, accepted[j].field.modulus
        patterns = ((r, pattern_by_gcd(a, r), pattern_by_gcd(b, r)) for r in usable_primes(a))
        assert p == next(r for r, pa, pb in patterns if pb is not None and pa != pb)


def assert_complete(cert):
    """Each completeness prime is the first prime p >= 5 at which the
    Frobenius pattern of q0 exists with exactly |G| ones, and the table
    read modulo it is the one exact composition in E gives."""
    k = cert.state.G.order
    for rec in accepted_records(cert):
        p = rec.aut.prime
        assert pattern_by_gcd(rec.field.modulus, p).count(1) == k
        for r in filter(_is_prime, range(5, p)):
            pattern = pattern_by_gcd(rec.field.modulus, r)
            assert pattern is None or pattern.count(1) != k
        assert [list(row) for row in rec.aut.table] == composition_table(
            rec.aut.maps
        )


def is_rational_square(r):
    (r,) = r.coords  # a rational of QQ, read as a Fraction
    if r < 0:
        return False
    return (
        math.isqrt(r.numerator) ** 2 == r.numerator
        and math.isqrt(r.denominator) ** 2 == r.denominator
    )


class TestTrivialGroupRealization:
    def test_three_cubic_fields(self):
        cert, elapsed, _, _ = timed_run("C1", count=3, t_max=10)
        assert elapsed < 10
        accepted = accepted_records(cert)
        assert len(accepted) == 3
        # t0 = 0 is in the bad set {0, -27/4}; the first good integers follow
        first = cert.transcript[0]
        assert (first.t0, first.status, first.reason) == (F(0), "rejected", "bad set: multiple root")
        assert [rec.t0 for rec in accepted] == [F(1), F(-1), F(2)]
        for rec in accepted:
            t0 = rec.t0
            assert rec.field.modulus == X**3 + X * t0 + UniPoly.constant(t0)
            assert len(rec.aut.maps) == 1
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1), (0, 2), (1, 2)]
        assert_separated(cert)
        assert_complete(cert)


class TestC2Realization:
    def test_two_degree_6_fields(self):
        cert, elapsed, _, _ = timed_run("C2", count=2)
        assert elapsed < 120
        accepted = accepted_records(cert)
        assert len(accepted) == 2
        c2 = group_table(named_perm_group("C2"))
        for rec in accepted:
            assert rec.field.degree == 6
            assert len(rec.aut.maps) == 2
            assert rec.aut.table == c2  # listed in G's order
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1)]
        assert_separated(cert)
        assert [rec.aut.prime for rec in accepted] == [11, 11]
        assert_complete(cert)


class TestC3Realization:
    def test_degree_18_field_with_c3(self):
        cert, elapsed, _, _ = timed_run("C3", count=1)
        assert elapsed < 60
        # y generates the quadratic resolvent field: disc in -23 * (Q*)^2
        y_minpoly = minpoly(cert.state.y)
        assert y_minpoly.degree == 2
        d = discriminant(y_minpoly)
        assert is_rational_square(d / F(-23))
        (rec,) = accepted_records(cert)
        assert rec.field.degree == 18
        assert len(rec.aut.maps) == 3
        assert rec.aut.table == group_table(named_perm_group("C3"))
        assert rec.aut.prime == 173
        assert_complete(cert)


class TestS3Realization:
    def test_degree_18_field_with_s3(self):
        cert, elapsed, _, _ = timed_run("S3", count=1)
        assert elapsed < 60
        (rec,) = accepted_records(cert)
        assert rec.field.degree == 18
        assert len(rec.aut.maps) == 6
        assert rec.aut.table == group_table(named_perm_group("S3"))
        assert rec.aut.prime == 167
        assert_complete(cert)


def relabelled(table, order):
    """The composition table of the same maps listed in a new order, map k
    being the old map order[k]."""
    new = {old: k for k, old in enumerate(order)}
    return [[new[table[a][b]] for b in order] for a in order]


def reorder(spec, order, recompute_table=True):
    """List an accepted entry's images in a new order, image k being the
    old image order[k]; its table is recomputed for that order unless
    recompute_table is false."""
    autos = spec["automorphisms"]
    autos["generator_images"] = [autos["generator_images"][i] for i in order]
    if recompute_table:
        autos["table"] = relabelled(autos["table"], order)


def forge_searched_witness(data, spec):
    """List the S3 images in another order in which the table is still
    G's: the first one a search over all orders finds.  An automorphism
    of G gives it, so the images stay a copy of G."""
    table = spec["automorphisms"]["table"]
    order = next(
        o for o in islice(permutations(range(len(table))), 1, None)
        if relabelled(table, o) == table
    )
    reorder(spec, order)


#: positions in sorted(S3.elements) of a transposition and a 3-cycle
TRANSPOSITION, THREE_CYCLE = 1, 3


class TestValidatorWitness:
    """The labelling is the order of the images: the validator accepts
    any order that an automorphism of G gives, in which the table is
    still G's, and no other."""

    def s3_spec(self):
        data = json.loads(timed_run("S3", count=1)[2])
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        return data, spec

    def failed(self, tmp_path, data):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(data))
        return [name for name, ok, _ in validate_certificate(path).checks if not ok]

    def test_searched_isomorphism_accepted(self, tmp_path):
        data, spec = self.s3_spec()
        forge_searched_witness(data, spec)
        assert self.failed(tmp_path, data) == []

    def test_non_homomorphism_rejected(self, tmp_path):
        data, spec = self.s3_spec()
        reorder(spec, [1, 2, 3, 4, 5, 0])  # the identity is no longer first
        assert self.failed(tmp_path, data) == [
            f"specialization t0={spec['t0']} table is G's"
        ]

    @pytest.mark.parametrize(
        "recompute_table, check",
        [(False, "table recomputes mod p"), (True, "table is G's")],
        ids=["table_kept", "table_recomputed"],
    )
    def test_swapped_order_rejected(self, tmp_path, capsys, recompute_table, check):
        """A transposition's image swapped with a 3-cycle's fails the
        shallow checks, so --deep fails without a rebuild."""
        elems = sorted(named_perm_group("S3").elements)
        a, b = elems[TRANSPOSITION], elems[THREE_CYCLE]
        assert (a * a).is_identity and not (b * b).is_identity
        data, spec = self.s3_spec()
        order = list(range(6))
        order[TRANSPOSITION], order[THREE_CYCLE] = THREE_CYCLE, TRANSPOSITION
        reorder(spec, order, recompute_table)
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_PARSE
        assert main(["validate", str(path), "--deep"]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert f"[FAIL] specialization t0={spec['t0']} {check}\n" in out
        assert "[FAIL] deep: pipeline rebuild: not run: a shallow check failed\n" in out

    @pytest.mark.parametrize(
        "recompute_table, check",
        [(False, "table recomputes mod p"), (True, "table is G's")],
        ids=["table_kept", "table_recomputed"],
    )
    def test_identity_swapped_rejected(self, tmp_path, recompute_table, check):
        """Images 0 and 1 swapped, so that E's generator is not first: no
        check refuses that by itself, for the table then either does not
        recompute or, recomputed, is not G's (whose row 0 is the
        identity's)."""
        data, spec = self.s3_spec()
        reorder(spec, [1, 0, 2, 3, 4, 5], recompute_table)
        assert f"specialization t0={spec['t0']} {check}" in self.failed(tmp_path, data)


class TestDeepRebuild:
    """Forgeries of the S3 certificate that every shallow check passes and
    that --deep fails, because the certificate it rebuilds differs."""

    FORGERIES = {
        "rejected_reason": (
            lambda data, spec: data["specializations"][0].update(reason="forged"),
            "specializations.0.reason",
        ),
        "searched_witness": (forge_searched_witness, "automorphisms.generator_images"),
    }

    @pytest.mark.parametrize("forgery", list(FORGERIES))
    def test_forgery_fails_deep(self, tmp_path, capsys, forgery):
        data = json.loads(timed_run("S3", count=1)[2])
        k, spec = next(
            (k, s)
            for k, s in enumerate(data["specializations"])
            if s["status"] == "accepted"
        )
        forge, key = self.FORGERIES[forgery]
        forge(data, spec)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["validate", str(path), "--deep"]) == EXIT_PARSE
        out = capsys.readouterr().out
        if not key.startswith("specializations."):
            key = f"specializations.{k}.{key}"
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] deep: pipeline rebuild: differs at {key}\n" in out


@pytest.fixture(scope="module")
def s3_count_3(tmp_path_factory):
    """An S3 certificate with three fields, written by the CLI while the
    records that read each polynomial modulo primes are watched."""
    path = tmp_path_factory.mktemp("certs") / "s3x3.json"
    with pytest.MonkeyPatch.context() as mp:
        watched = watch_records(mp)
        assert main(["realize", "--named", "S3", "--count", "3", "--out", str(path)]) == EXIT_OK
    return path, watched


def watch_records(mp):
    """(records, computed): per integer polynomial F, the Reductions
    records whose root products or patterns were read, and per (F, p) how
    often its root product gcd(X^p - X, F mod p) was computed."""
    records, computed = {}, {}
    for name in ("roots", "pattern"):
        method = getattr(Reductions, name)

        def watching(self, p, method=method, name=name):
            F = tuple(self.F)
            records.setdefault(F, {})[id(self)] = self
            if name == "roots" and p not in getattr(self, "_roots", {}):
                computed[F, p] = computed.get((F, p), 0) + 1
            return method(self, p)

        mp.setattr(Reductions, name, watching)
    return records, computed


def accepted_polynomials(path):
    """The integer polynomial F of each accepted field of a certificate."""
    data = json.loads(path.read_text())
    return [
        tuple(Reductions(parse_unipoly(spec["defining_polynomial"])).F)
        for spec in data["specializations"]
        if spec["status"] == "accepted"
    ]


class TestOneRecordPerField:
    """Each accepted field is read modulo primes through the one record
    its NumberField carries: irreducibility, the completeness search and
    check, the table's root and distinctness share it, and it computes
    each root product gcd(X^p - X, F mod p), one X^p mod F, once."""

    def assert_one_record(self, path, watched):
        records, computed = watched
        fields = accepted_polynomials(path)
        assert len(fields) == 3
        assert [len(records[F]) for F in fields] == [1, 1, 1]
        assert [key for key, n in computed.items() if n > 1] == []

    def test_realize(self, s3_count_3):
        self.assert_one_record(*s3_count_3)

    def test_shallow_validate(self, s3_count_3, monkeypatch):
        path, _ = s3_count_3
        watched = watch_records(monkeypatch)
        assert validate_certificate(path).ok
        self.assert_one_record(path, watched)


#: The producer's search code, which shallow validation must not enter:
#: (module, function) pairs, and every function of ``family``.
SEARCH_CODE = {
    ("pipeline", "run"),
    ("pipeline", "build_state"),
    ("pipeline", "specialize_and_verify"),
    ("factor", "completeness_prime"),
    ("numfield", "splitting_field"),
    ("numfield", "embed_generator"),
    ("numfield", "factor_over_nf"),
    ("numfield", "shifted_norms"),
}


class TestValidatorTrust:
    def test_shallow_validate_enters_no_search_code(self, s3_count_3):
        """What README's "What the validator trusts" lists: shallow
        validation of an S3 certificate with three fields calls no part of
        the producer's search, and enters no frame of ``pipeline`` or
        ``family``."""
        path, _ = s3_count_3
        package = Path(autrealize.__file__).parent
        entered = set()

        def tracer(frame, event, arg):
            code = frame.f_code
            where = Path(code.co_filename)
            if where.parent == package:
                entered.add((where.stem, code.co_name))

        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            report = validate_certificate(path)
        finally:
            sys.settrace(before)
        assert report.ok
        assert {
            ("numfield", "table_mod_p"),
            ("perm", "group_table"),
            ("factor", "completeness_failure"),
            ("factor", "separates"),
        } <= entered
        assert entered & SEARCH_CODE == set()
        assert [name for module, name in entered if module in ("pipeline", "family")] == []


class TestFixedFieldCrossCheck:
    def test_aut_orders_match_normalizer_quotients(self):
        L = splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)]))
        s3 = named_perm_group("S3")
        cases = [
            (PermGroup([], degree=3), 6),
            (PermGroup([parse_cycles("(1 2)", 3)], degree=3), 1),
            (named_perm_group("A3"), 2),
            (s3, 1),
        ]
        for H, expected in cases:
            p = minpoly(fixed_field(L, H))
            field_side = len(automorphisms(NumberField(p)).maps)
            group_side = len(aut_group_via_quotient(s3, H)[0])
            assert field_side == group_side == expected


class TestFamilyPropertySuite:
    def test_certificates_and_replay(self):
        start = time.monotonic()
        rng = random.Random(61)
        fields = [
            QQ,
            NumberField(UniPoly([F(-1), F(-1), F(1)])),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)])),
        ]
        certify_s3()  # raises VerificationError when any check fails
        for trial in range(20):
            K = fields[trial % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            a = K.from_rational(F(rng.randrange(-20, 21))) - y
            # the cubic the pipeline uses is FAMILY at T = a
            image = [
                sum((row[j] * a**i for i, row in enumerate(FAMILY.rows)), K.zero())
                for j in range(FAMILY.deg_X + 1)
            ]
            assert cubic(a) == UniPoly(image, K)
        assert time.monotonic() - start < 60


class TestFactorizationOracles:
    def test_round_trips_and_trager(self):
        start = time.monotonic()
        rng = random.Random(71)

        def rand_irreducible():
            while True:
                deg = rng.randrange(1, 5)
                coeffs = [F(rng.randrange(-9, 10)) for _ in range(deg)] + [F(1)]
                f = UniPoly(coeffs)
                if is_irreducible_Q(f):
                    return f

        for _ in range(200):
            parts, prod = distinct_parts(rand_irreducible, rng.randrange(1, 4))
            prod = prod * F(rng.choice([1, -1, 2, -3]))
            fac = factor_over_Q(prod)
            assert expand(fac) == prod.monic()
            assert sorted(g.coeffs for g in fac) == sorted(p.coeffs for p in parts)

        nf_fields = [
            NumberField(UniPoly([F(-1), F(-1), F(1)])),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)])),
            splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)])).field,
        ]
        for trial in range(20):
            K = nf_fields[trial % len(nf_fields)]

            def rand_part():
                coeffs = [
                    K.element([rng.randrange(-3, 4) for _ in range(K.degree)])
                    for _ in range(rng.randrange(1, 3))
                ]
                return UniPoly(coeffs + [K.one()], K)

            parts, f = distinct_parts(rand_part, rng.randrange(1, 3))
            fac = factor_over_nf(f, K)
            assert expand(fac) == f
            assert all(any(poly_divrem(p, g)[1].is_zero for p in parts) for g in fac)
        assert time.monotonic() - start < 120


#: sha256 of each cached certificate text, with the run parameters; a
#: change of the certificate format, or of the factorizations that
#: metadata.audit records, updates these on purpose.  All four were
#: re-pinned for format version 6, which lists the images in G's order
#: and drops the witness and metadata.edf_seed; test_version_3_restored
#: shows that nothing else moved.
PINNED = {
    "C1": (dict(count=3, t_max=10),
           "5062f4a566bd844cc030d3ac8b52d1a96e5de84212040c69858a0b8ba9d0e629"),
    "C2": (dict(count=2, t_max=200),
           "f9398824042dfc7874ac7d3f0795887fcf459e89126647c2c9036bdde5b0cfca"),
    "S3": (dict(count=1, t_max=200),
           "b6062f5903a49801fdef5e8348d1a74b8614fb521bfe455f61c56aadc5787c94"),
    "C3": (dict(count=1, t_max=200),
           "a2d847839533f03b920b497b8a345812781578fd7fa7c95f05f8a1ceb2505727"),
}

#: sha256 of the certificate of ``realize --named C2 --count 3 --t-max 1``,
#: the one pinned certificate with non-integral rationals: it accepts
#: t0 = 1, -1, 1/2, and the last q0 is X^6 - 3X^5 + X^4 + 4X^3 + X^2/4 +
#: 5X/4 - 19/4.  Pinned from the tool that still computed with
#: fractions.Fraction, so it shows that rationals as elements of the
#: degree-1 field write the same bytes.
PINNED_NON_INTEGRAL = "e655ee1e8912b265d39dab599e48e756a7020b0a770c94b7a304c88632569b6b"

#: sha256 of certificates with three fields, so that each pins three
#: degree-18 distinctness pairs: S3 accepts t0 = 1, 2, -2, separated by
#: the primes 13, 17 and 13.
PINNED_COUNT_3 = {
    "S3": "177ebf16f95da410954b4f60c579d345198031cffb4e67b1c3cb96c8fd7df740",
    "C3": "d83e68eca184dec6608b70e0d8d75c8a082f6793c8d3a0537196e7f261c17dd2",
}

#: The same certificates at format version 5, which listed E's generator
#: first and the other images in coordinate order, with a "witness" (the
#: position in sorted(G.elements) of each image's element) and
#: "metadata.edf_seed".
PINNED_V5 = {
    "C1": "e54b5e72d8763c174fe12538483381c379f5cf3282c2ec0f074f978c5b2e13d4",
    "C2": "b158011a92a14f06569bcadede3486a1b42da06e1c1edbce30d8de206795683b",
    "S3": "a805f387c9dc7b5b4326c7d5db9fc877cf19962408358b4e5d9ce370aff34e18",
    "C3": "db79454bce1022e8610ba1c608c19f6790a47979a14e153788bfa5b6232a9113",
}

PINNED_COUNT_3_V5 = {
    "S3": "7a81d89e23690db301bcf7da26cf2e795c3513d75b02523e26982b7aafcb4073",
    "C3": "60fb427e36e0fc9be704aa336fc76cd63832c16e2b94099075546f6bfc25cebf",
}

#: The same certificates at format version 4, which also carried the
#: "pipeline" block (L, y, the shift c and the cubic family's S3 check).
PINNED_V4 = {
    "C1": "ba0deb36bef2d06eb9753d015053d789a5040bdaf8bda54154a20aed1612168f",
    "C2": "daecd0991ec599e86ee407afdb6c6c55a64da1252d0c257469265a8a98de0e68",
    "S3": "e796941afe4f2e53d0ddbd41ceef06e4eb75c209f991c0a4ecb32fe503eff471",
    "C3": "35a8fd335714a41532596cc2d5662dee727733eeb5a67198891de81189c68500",
}

#: The same certificates at format version 3, which also carried the
#: interpolated q(T, X) as "pipeline.q" and each accepted field's
#: theta0 as "theta_image".
PINNED_V3 = {
    "C1": "e83f4d3322a91faae51234f7fbc070a1c5f767a5358bb1cd6729402962fea950",
    "C2": "2b89fa1ceadd781330bc9848e1394a4efa1c798a523c6ac548cb7a7c3b466144",
    "S3": "2b1d66731b0d5c5223a41cdf5e99852b962c329e195e7ef2e583dc02e28d76cb",
    "C3": "ef88f5138502fdb17846e31d906dc36096a55ecceee3aad05376abae08fd1c59",
}


def _render(values):
    return [render_rational(v) for v in values]


def _sha256(data):
    return hashlib.sha256(dumps_canonical(data).encode()).hexdigest()


def to_version_5(data):
    """Map a version-6 certificate back to version 5 in place: each
    accepted entry lists E's generator (image 0) first and the other
    images in coordinate order, relabels its table to match, and names
    each image's position in G's order as its witness; metadata names
    the EDF seed again."""
    for spec in data["specializations"]:
        if spec["status"] == "accepted":
            images = spec["automorphisms"]["generator_images"]
            coords = [[parse_rational(c) for c in m] for m in images]
            order = [0, *sorted(range(1, len(images)), key=coords.__getitem__)]
            reorder(spec, order)
            spec["witness"] = order
    data["metadata"]["edf_seed"] = hex(EDF_SEED)
    data["version"] = 5


class TestPinnedCertificates:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_sha256(self, key):
        params, digest = PINNED[key]
        _, _, text, kw = timed_run(key, **params)
        assert kw == params
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sha256_non_integral(self, tmp_path):
        path = tmp_path / "c2.json"
        args = ["--named", "C2", "--count", "3", "--t-max", "1", "--out", str(path)]
        assert main(["realize", *args]) == EXIT_OK
        text = path.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NON_INTEGRAL
        specs = json.loads(text)["specializations"]
        accepted = [spec for spec in specs if spec["status"] == "accepted"]
        assert [spec["t0"] for spec in accepted] == ["1", "-1", "1/2"]
        assert accepted[-1]["defining_polynomial"] == ["-19/4", "5/4", "1/4", "4", "1", "-3", "1"]

    @pytest.mark.parametrize("key", sorted(PINNED_COUNT_3))
    def test_sha256_count_3(self, key):
        cert = run_named(key, count=3)
        text = dumps_canonical(certificate_to_json(cert))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_COUNT_3[key]
        data = json.loads(text)
        to_version_5(data)
        assert _sha256(data) == PINNED_COUNT_3_V5[key]

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_version_3_restored(self, key):
        """Putting back the version-5 order, witness and EDF seed gives the
        version-5 certificate byte for byte; the version and the pipeline
        block on top give the version-4 one; adding q(T, X) built as one
        polynomial in T and each theta_image gives the version-3 one."""
        cert, _, text, _ = timed_run(key, **PINNED[key][0])
        data = json.loads(text)
        to_version_5(data)
        assert _sha256(data) == PINNED_V5[key]
        data["version"] = 4
        data["pipeline"] = v4_pipeline(cert.state)
        assert _sha256(data) == PINNED_V4[key]
        c, q = interpolated_q(cert.state.L, cert.state.y)
        assert c == cert.state.c
        data["version"] = 3
        data["pipeline"]["q"] = [_render(row) for row in q.rows]
        images = {render_rational(rec.t0): theta0_image(cert.state, rec) for rec in accepted_records(cert)}
        for spec in data["specializations"]:
            if spec["status"] == "accepted":
                spec["theta_image"] = _render(images[spec["t0"]].coords)
        assert _sha256(data) == PINNED_V3[key]


class TestDeterminism:
    def test_reruns_byte_identical(self):
        for key in ("C1", "C2", "C3", "S3"):
            cert1, _, text1, kw = timed_run(key, count=1)  # cached params win
            cert2 = run_named(key, count=kw["count"], t_max=kw["t_max"])
            text2 = dumps_canonical(certificate_to_json(cert2))
            assert text2 == text1, f"certificate for {key} differs between runs"
