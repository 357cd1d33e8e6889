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
import time
from fractions import Fraction as F

import pytest

from autrealize.certs import certificate_to_json, dumps_canonical, validate_certificate
from autrealize.cli import EXIT_OK, EXIT_PARSE, expand_named, main
from autrealize.exact import UniPoly, _is_prime, discriminant
from autrealize.factor import factor_over_Q, frobenius_pattern, is_irreducible_Q
from autrealize.family import FAMILY, certify_s3, cubic
from autrealize.numfield import (
    NumberField,
    factor_over_nf,
    fixed_field,
    splitting_field,
)
from autrealize.perm import AbstractGroup, PermGroup, are_isomorphic, parse_cycles
from autrealize.pipeline import fields_distinct_exact, run as pipeline_run
from reference import (
    aut_group_via_quotient,
    automorphisms,
    composition_table,
    expand,
    to_abstract,
)

X = UniPoly.gen("X")

_runs = {}


def timed_run(key, *, count, t_max=200):
    """First pipeline run for a named group, cached with its timing."""
    if key not in _runs:
        G, gen_strings = expand_named(key)
        start = time.monotonic()
        cert = pipeline_run(
            G,
            G.degree,
            count=count,
            t_max=t_max,
            group_generators=gen_strings,
            group_name=key,
        )
        elapsed = time.monotonic() - start
        text = dumps_canonical(certificate_to_json(cert))
        _runs[key] = (cert, elapsed, text, dict(count=count, t_max=t_max))
    return _runs[key]


def assert_separated(cert):
    """Each distinctness prime is the first one separating its pair."""
    for i, j, p in cert.distinctness:
        assert p == fields_distinct_exact(cert.accepted[i], cert.accepted[j])


def assert_complete(cert):
    """Each completeness prime is the first prime p >= 5 at which the
    Frobenius pattern of q0 exists with exactly |G| ones, and the table
    read modulo it is the one exact composition in E gives."""
    k = cert.group_order
    for rec in cert.accepted:
        p = rec.aut.prime
        assert frobenius_pattern(rec.q0, p).count(1) == k
        for r in filter(_is_prime, range(5, p)):
            pattern = frobenius_pattern(rec.q0, r)
            assert pattern is None or pattern.count(1) != k
        assert [list(row) for row in rec.aut.table] == composition_table(
            rec.aut.maps
        )


def is_rational_square(r):
    r = F(r)
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
        assert len(cert.accepted) == 3
        # t0 = 0 is in the bad set {0, -27/4}; the first good integers follow
        assert cert.transcript[0] == (F(0), "rejected", "bad set: multiple root")
        assert [rec.t0 for rec in cert.accepted] == [F(1), F(-1), F(2)]
        for rec in cert.accepted:
            t0 = rec.t0
            assert rec.q0 == X**3 + X * t0 + UniPoly.constant(t0, "X")
            assert len(rec.aut.maps) == 1
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1), (0, 2), (1, 2)]
        assert_separated(cert)
        assert_complete(cert)


class TestC2Realization:
    def test_two_degree_6_fields(self):
        cert, elapsed, _, _ = timed_run("C2", count=2)
        assert elapsed < 120
        assert len(cert.accepted) == 2
        c2 = to_abstract(PermGroup.cyclic(2))
        for rec in cert.accepted:
            assert rec.q0.degree == 6
            assert len(rec.aut.maps) == 2
            ok, witness = are_isomorphic(AbstractGroup(rec.aut.table), c2)
            assert ok and rec.witness is not None
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1)]
        assert_separated(cert)
        assert [rec.aut.prime for rec in cert.accepted] == [11, 11]
        assert_complete(cert)


class TestC3Realization:
    def test_degree_18_field_with_c3(self):
        cert, elapsed, _, _ = timed_run("C3", count=1)
        assert elapsed < 60
        # y generates the quadratic resolvent field: disc in -23 * (Q*)^2
        assert cert.state.y_minpoly.degree == 2
        d = discriminant(cert.state.y_minpoly)
        assert is_rational_square(d / F(-23))
        assert len(cert.accepted) == 1
        rec = cert.accepted[0]
        assert rec.q0.degree == 18
        assert len(rec.aut.maps) == 3
        c3 = to_abstract(PermGroup.cyclic(3))
        ok, _ = are_isomorphic(AbstractGroup(rec.aut.table), c3)
        assert ok
        assert rec.aut.prime == 173
        assert_complete(cert)


class TestS3Realization:
    def test_degree_18_field_with_s3(self):
        cert, elapsed, _, _ = timed_run("S3", count=1)
        assert elapsed < 60
        assert len(cert.accepted) == 1
        rec = cert.accepted[0]
        assert rec.q0.degree == 18
        assert len(rec.aut.maps) == 6
        s3 = to_abstract(PermGroup.symmetric(3))
        ok, _ = are_isomorphic(AbstractGroup(rec.aut.table), s3)
        assert ok and rec.witness is not None
        assert rec.aut.prime == 167
        assert_complete(cert)


def forge_searched_witness(data, spec):
    """Replace the S3 witness by the isomorphism are_isomorphic finds."""
    table = AbstractGroup(spec["automorphisms"]["table"])
    ok, found = are_isomorphic(table, to_abstract(expand_named("S3")[0]))
    assert ok and list(found) != spec["witness"]
    spec["witness"] = list(found)


class TestValidatorWitness:
    """The validator accepts any isomorphism onto G as the witness, not
    only the labelling the producer emits, and nothing else."""

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
        w = spec["witness"]
        spec["witness"] = w[1:] + w[:1]  # the identity no longer goes to 0
        assert self.failed(tmp_path, data) == [
            f"specialization t0={spec['t0']} witness is an isomorphism"
        ]


class TestDeepRebuild:
    """Forgeries of the S3 certificate that every shallow check passes and
    that --deep fails, because the certificate it rebuilds differs."""

    FORGERIES = {
        "theta_image": (
            lambda data, spec: spec["theta_image"].__setitem__(0, "1/7"),
            "theta_image",
        ),
        "galois_order": (
            lambda data, spec: data["pipeline"].update(galois_order=5),
            "pipeline.galois_order",
        ),
        "searched_witness": (forge_searched_witness, "witness"),
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
        assert spec["theta_image"][0] != "1/7"
        forge(data, spec)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["validate", str(path), "--deep"]) == EXIT_PARSE
        out = capsys.readouterr().out
        if not key.startswith("pipeline."):
            key = f"specializations.{k}.{key}"
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] deep: pipeline rebuild: differs at {key}\n" in out


class TestFixedFieldCrossCheck:
    def test_aut_orders_match_normalizer_quotients(self):
        L = splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)], "X"))
        s3 = PermGroup.symmetric(3)
        cases = [
            (PermGroup([], degree=3), 6),
            (PermGroup([parse_cycles("(1 2)", 3)], degree=3), 1),
            (PermGroup.alternating(3), 2),
            (s3, 1),
        ]
        for H, expected in cases:
            _, p = fixed_field(L, H)
            field_side = len(automorphisms(NumberField(p.with_var("Z"))).maps)
            group_side = aut_group_via_quotient(s3, H)[0].order
            assert field_side == group_side == expected


class TestFamilyPropertySuite:
    def test_certificates_and_replay(self):
        start = time.monotonic()
        rng = random.Random(61)
        fields = [
            NumberField.rationals(),
            NumberField(UniPoly([F(-1), F(-1), F(1)], "Z")),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)], "Z")),
        ]
        # certify_s3 raises VerificationError when any check fails
        assert certify_s3().square_class_degree == 1
        for trial in range(20):
            K = fields[trial % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            a = K.from_rational(F(rng.randrange(-20, 21))) - y
            # the cubic the pipeline uses is FAMILY at T = a
            image = [FAMILY.coeff_X(j).eval(a) for j in range(FAMILY.deg_X + 1)]
            assert cubic(a) == UniPoly(image, "X", K)
        assert time.monotonic() - start < 60


class TestFactorizationOracles:
    def test_round_trips_and_trager(self):
        start = time.monotonic()
        rng = random.Random(71)

        def rand_irreducible():
            while True:
                deg = rng.randrange(1, 5)
                coeffs = [F(rng.randrange(-9, 10)) for _ in range(deg)] + [F(1)]
                f = UniPoly(coeffs, "X")
                if is_irreducible_Q(f):
                    return f

        for _ in range(200):
            parts = [rand_irreducible() for _ in range(rng.randrange(1, 4))]
            prod = UniPoly.constant(F(rng.choice([1, -1, 2, -3])), "X")
            for p in parts:
                prod = prod * p
            fac = factor_over_Q(prod)
            assert expand(fac) == prod
            got = []
            for g, m in fac.factors:
                got.extend([g.coeffs] * m)
            assert sorted(got) == sorted(p.coeffs for p in parts)

        nf_fields = [
            NumberField(UniPoly([F(-1), F(-1), F(1)], "Z")),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)], "Z")),
            splitting_field(UniPoly([F(-1), F(-1), F(0), F(1)], "X")).field,
        ]
        for trial in range(20):
            K = nf_fields[trial % len(nf_fields)]
            coeffs = [
                K.element([rng.randrange(-3, 4) for _ in range(K.degree)])
                for _ in range(rng.randrange(2, 4))
            ]
            f = UniPoly(coeffs + [K.one()], "X", K)
            fac = factor_over_nf(f, K)
            acc = UniPoly.constant(fac.unit, "X", K)
            for g, m in fac.factors:
                acc = acc * g**m
            assert acc == f
        assert time.monotonic() - start < 120


#: sha256 of each cached certificate text, with the run parameters; a
#: change of the certificate format, or of the factorizations that
#: metadata.audit records, updates these on purpose.  S3 and C3 were
#: re-pinned when the witness became G's own labelling of the
#: automorphisms (sorted(G.elements) order) instead of the first
#: isomorphism a search found: only their "witness" arrays changed.
PINNED = {
    "C1": (dict(count=3, t_max=10),
           "e83f4d3322a91faae51234f7fbc070a1c5f767a5358bb1cd6729402962fea950"),
    "C2": (dict(count=2, t_max=200),
           "2b89fa1ceadd781330bc9848e1394a4efa1c798a523c6ac548cb7a7c3b466144"),
    "S3": (dict(count=1, t_max=200),
           "2b1d66731b0d5c5223a41cdf5e99852b962c329e195e7ef2e583dc02e28d76cb"),
    "C3": (dict(count=1, t_max=200),
           "ef88f5138502fdb17846e31d906dc36096a55ecceee3aad05376abae08fd1c59"),
}


class TestPinnedCertificates:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_sha256(self, key):
        params, digest = PINNED[key]
        _, _, text, kw = timed_run(key, **params)
        assert kw == params
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDeterminism:
    def test_reruns_byte_identical(self):
        for key in ("C1", "C2", "C3", "S3"):
            cert1, _, text1, kw = timed_run(key, count=1)  # cached params win
            G, gen_strings = expand_named(key)
            cert2 = pipeline_run(
                G,
                G.degree,
                count=kw["count"],
                t_max=kw["t_max"],
                group_generators=gen_strings,
                group_name=key,
            )
            text2 = dumps_canonical(certificate_to_json(cert2))
            assert text2 == text1, f"certificate for {key} differs between runs"
