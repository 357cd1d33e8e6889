"""End-to-end acceptance suite.

Each numbered test exercises one advertised guarantee, including its
runtime budget.  The certificate-producing runs are cached at module
level so the determinism check can compare a second, fresh run against
the first without redoing the earlier tests' work.
"""

import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest

from autrealize.certs import certificate_to_json, dumps_canonical
from autrealize.cli import expand_named
from autrealize.exact import UniPoly, discriminant
from autrealize.factor import factor_over_Q, is_irreducible_Q
from autrealize.family import build_member, certify_s3
from autrealize.numfield import (
    NumberField,
    automorphisms,
    factor_over_nf,
    fixed_field,
    splitting_field,
)
from autrealize.perm import PermGroup, are_isomorphic, parse_cycles
from autrealize.pipeline import fields_distinct_exact, run as pipeline_run
from reference import aut_group_via_quotient, expand

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
            assert rec.aut.order == 1
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1), (0, 2), (1, 2)]
        assert_separated(cert)


class TestC2Realization:
    def test_two_degree_6_fields(self):
        cert, elapsed, _, _ = timed_run("C2", count=2)
        assert elapsed < 120
        assert len(cert.accepted) == 2
        c2 = PermGroup.cyclic(2).to_abstract()[0]
        for rec in cert.accepted:
            assert rec.q0.degree == 6
            assert rec.aut.order == 2
            ok, witness = are_isomorphic(rec.aut.group, c2)
            assert ok and rec.witness is not None
        assert [(i, j) for i, j, _ in cert.distinctness] == [(0, 1)]
        assert_separated(cert)


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
        assert rec.aut.order == 3
        c3 = PermGroup.cyclic(3).to_abstract()[0]
        ok, _ = are_isomorphic(rec.aut.group, c3)
        assert ok


class TestS3Realization:
    def test_degree_18_field_with_s3(self):
        cert, elapsed, _, _ = timed_run("S3", count=1)
        assert elapsed < 60
        assert len(cert.accepted) == 1
        rec = cert.accepted[0]
        assert rec.q0.degree == 18
        assert rec.aut.order == 6
        s3 = PermGroup.symmetric(3).to_abstract()[0]
        ok, _ = are_isomorphic(rec.aut.group, s3)
        assert ok and rec.witness is not None


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
            field_side = automorphisms(NumberField(p.with_var("Z"), trusted=True)).order
            group_side = aut_group_via_quotient(s3, H)[0].order
            assert field_side == group_side == expected


class TestFamilyPropertySuite:
    def test_certificates_and_replay(self):
        start = time.monotonic()
        rng = random.Random(61)
        fields = [
            NumberField.rationals(),
            NumberField(UniPoly([F(-1), F(-1), F(1)], "Z"), trusted=True),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)], "Z"), trusted=True),
        ]
        for trial in range(20):
            K = fields[trial % len(fields)]
            y = K.element([rng.randrange(-6, 7) for _ in range(K.degree)])
            # certify_s3 raises VerificationError when any check fails
            assert certify_s3(build_member(K, y)).square_class_degree == 1
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
            NumberField(UniPoly([F(-1), F(-1), F(1)], "Z"), trusted=True),
            NumberField(UniPoly([F(-2), F(0), F(0), F(1)], "Z"), trusted=True),
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
#: change of the certificate format updates these on purpose.
PINNED = {
    "C1": (dict(count=3, t_max=10),
           "b62422d2a525af9cf321cba815baebf53b9c2646acd4dc2a5a6713913783941e"),
    "C2": (dict(count=2, t_max=200),
           "cb6afe918dc42a26e95c6bff28f78d4fe8b5ab5fa5d0829be19a8a3351fe9f1a"),
    "S3": (dict(count=1, t_max=200),
           "4502e5a76535915b77db8e95c286e7b9fe62042034b45130f1b27727c9ac1a13"),
    "C3": (dict(count=1, t_max=200),
           "488bb771f20e0c41ca02f2bf4e82d42c680b8ab6d0e67695be93bc182878afc3"),
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
