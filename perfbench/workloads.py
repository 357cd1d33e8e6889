"""Workloads: the CLI requests each one sends, drawn from the seed, and the
known answers their certificates are checked against.

Why these workloads (sizes measured on 2 cores, CPython 3.11):

- ``s3``: ``realize`` of S3, count 1 (about 25 s), then nine shallow
  ``validate`` calls (their median damps host noise in a 2-3 s call).  No
  ``validate --deep``: it would repeat the whole realize.  Verifying ``t0 = 1``
  dominates: the degree-18 field E, gcds over E and the automorphism
  table; the bad set is the second phase.  The seed picks the generator
  presentation passed through ``--n 3 --gens``; the work is the same for
  every presentation.
- ``small-mix``: many small requests, each followed by ``validate`` and
  ``validate --deep``: C1 with counts 1-8 and ``--t-max 10`` (sent twice
  each, so repeats are checked and start-up cost gets more samples) and
  C2/S2 with counts 1-4.  Pairwise exact distinctness dominates the
  larger C2 requests and process start-up the C1 ones; the bad set and the
  degree-18 work are almost absent.  The seed draws the order and each
  request's presentation; the multiset of counts is the same every round,
  so medians do not depend on the seed.
- ``c3`` (not in BENCHMARK.json): C3, count 1.  The bad set dominates (one
  gcd of a degree-108 discriminant over Q) and the fixed field ``y`` is
  non-trivial, but one realize takes about 165 s, longer than a benchmark
  run may last.  Run it by hand with ``--seconds 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

S3_PRESENTATIONS = (
    "(1 2);(1 2 3)",
    "(1 2 3);(2 3)",
    "(1 2);(2 3)",
    "(1 3);(1 2 3)",
    "(1 2);(1 3)",
    "(2 3);(1 3 2)",
    "(1 3);(2 3)",
    "(1 2);(1 3 2)",
)
C3_PRESENTATIONS = ("(1 2 3)", "(1 3 2)")
C1_PRESENTATIONS = (("--named", "C1"), ("--named", "S1"), ("--n", "1", "--gens", "()"))
C2_PRESENTATIONS = (("--named", "C2"), ("--named", "S2"), ("--n", "2", "--gens", "(1 2)"))

#: Accepted t0 values in search order, by (n, |G|).  A request for count k
#: must accept exactly the first k of them.
KNOWN_T0 = {
    (1, 1): ("1", "-1", "2", "-2", "3", "-3", "4", "-4"),
    (2, 2): ("1", "-1", "2", "-2"),
    (3, 6): ("1",),
    (3, 3): ("0",),
}


@dataclass(frozen=True)
class Request:
    """One realize request and the validate calls that follow it."""

    args: tuple  # CLI arguments after "realize", without --out
    n: int
    order: int
    count: int
    validations: int  # shallow validate calls on the certificate
    deep: bool  # then one validate --deep


def _single(presentations, order, validations):
    def rounds(rng):
        while True:
            gens = rng.choice(presentations)
            yield [Request(("--n", "3", "--gens", gens, "--count", "1"), 3, order, 1, validations, False)]

    return rounds


def _small_mix(rng):
    c1 = {k: rng.choice(C1_PRESENTATIONS) for k in range(1, 9)}
    c2 = {k: rng.choice(C2_PRESENTATIONS) for k in range(1, 5)}
    while True:
        reqs = [
            Request((*c1[k], "--count", str(k), "--t-max", "10"), 1, 1, k, 1, True)
            for k in range(1, 9)
        ] * 2
        reqs += [Request((*c2[k], "--count", str(k)), 2, 2, k, 1, True) for k in range(1, 5)]
        rng.shuffle(reqs)
        yield reqs


#: name -> (round generator taking a seeded Random, deadline in seconds).
#: A run stops sending requests at its deadline so that it always ends.
WORKLOADS = {
    "s3": (_single(S3_PRESENTATIONS, 6, 9), 170),
    "small-mix": (_small_mix, 170),
    "c3": (_single(C3_PRESENTATIONS, 3, 9), 1800),
}


def rounds(name, seed):
    """Endless rounds of requests for a workload; the same seed gives the
    same requests."""
    return WORKLOADS[name][0](random.Random(seed))


def check_certificate(cert, req):
    """Problems with a certificate against the known answers; empty if none."""
    group = cert.get("group", {})
    if (group.get("n"), group.get("order")) != (req.n, req.order):
        return [f"group n={group.get('n')} order={group.get('order')}, expected n={req.n} order={req.order}"]
    problems = []
    accepted = [s for s in cert.get("specializations", []) if s.get("status") == "accepted"]
    got = tuple(s.get("t0") for s in accepted)
    want = KNOWN_T0[(req.n, req.order)][: req.count]
    if got != want:
        problems.append(f"accepted t0 {list(got)}, expected {list(want)}")
    for s in accepted:
        degree = len(s["defining_polynomial"]) - 1
        if degree != 3 * factorial(req.n):
            problems.append(f"t0={s['t0']}: deg q0 = {degree}, expected {3 * factorial(req.n)}")
        auts = s["automorphisms"]
        if len(auts["generator_images"]) != req.order or len(auts["table"]) != req.order:
            problems.append(f"t0={s['t0']}: |Aut| = {len(auts['generator_images'])}, expected {req.order}")
    return problems
