"""Benchmark of the autrealize command-line tool.

    python3 perfbench/run.py --workload s3|small-mix|c3 --seed N --seconds S --trace 0|1

Run from the repository root.  One client sends requests in a closed
loop: each request is one ``python -m autrealize.cli realize|validate``
process with ``PYTHONPATH=src``, started only after the previous one has
ended, because that is how users call the tool.  Rounds of requests (see
workloads.py) are sent while the next round is expected to end within
``--seconds``; at least one round is always sent.

Every certificate is checked against known answers, every validate call
must report the certificate valid, and repeats of a request in one run
must give byte-identical certificates.  Any miss counts as a failed call.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` the distinct requests of one round (realize and one shallow
validate) are sent once untraced and once through traced_cli.py, the two
sets of certificates must be byte-identical, and per-layer metrics come
from the traced spans, which are also written to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; human-readable
detail goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

#: Cold imports timed per round for setup_s, spread over its CLI calls so
#: that they sample the whole run; the median is reported.
SETUP_IMPORTS = 21
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import autrealize.cli; "
    "print(time.perf_counter() - t)"
)

#: Pipeline phases whose share of realize wall time the traced run reports.
PHASES = (
    "pipeline.realize_sn",
    "pipeline.compute_y",
    "pipeline.build_E_minpoly",
    "family.bad_set",
    "pipeline.specialize_and_verify",
    "pipeline.fields_distinct_exact",
)

AUDIT_EVENTS = ("prime", "lift_exponent", "primitive_shift", "prime_infeasible")


class DeadlineExceeded(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Client:
    """Sends CLI requests one at a time and keeps the run's tallies."""

    def __init__(self, deadline):
        # Inherited PYTHON* settings (say, PYTHONDONTWRITEBYTECODE) would
        # change what a request costs, so children get only PYTHONPATH.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.samples = {"setup": [], "realize": [], "validate": []}
        self.probes_per_call = 0
        self.fields = 0
        self.digests = {}  # realize arguments -> sha256 of the certificate
        self.repeats = 0

    def python(self, argv):
        """Run the interpreter on argv in the checkout; (returncode, stdout, wall)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise DeadlineExceeded
        start = time.perf_counter()
        try:
            r = subprocess.run(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise DeadlineExceeded from None
        return r.returncode, r.stdout, time.perf_counter() - start

    def probe(self):
        """Time one cold import of autrealize.cli in a fresh interpreter."""
        code, out, _ = self.python(["-c", IMPORT_PROBE])
        if code != 0:
            self.fail("cold import of autrealize.cli")
        else:
            self.samples["setup"].append(float(out))

    def cli(self, args, spans_out=None):
        for _ in range(self.probes_per_call):
            self.probe()
        self.attempted += 1
        if spans_out is None:
            return self.python(["-m", "autrealize.cli", *args])
        return self.python([str(TRACED_CLI), str(spans_out), *args])

    def fail(self, what):
        self.failed += 1
        log(f"FAILED: {what}")

    def realize(self, req, path, spans_out=None):
        """Send one realize request; the certificate bytes, or None on failure."""
        code, _, wall = self.cli(["realize", *req.args, "--out", str(path)], spans_out)
        if code != 0 or not path.is_file():
            self.fail(f"realize {' '.join(req.args)}: exit {code}")
            return None
        data = path.read_bytes()
        try:
            problems = workloads.check_certificate(json.loads(data), req)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed certificate: {exc!r}"]
        if problems:
            self.fail(f"realize {' '.join(req.args)}: {'; '.join(problems)}")
            return None
        if spans_out is None:
            self.samples["realize"].append(wall)
            self.fields += req.count
        return data

    def validate(self, path, deep, spans_out=None):
        args = ["validate", *(["--deep"] if deep else []), str(path)]
        code, out, wall = self.cli(args, spans_out)
        if code != 0 or not out.rstrip().endswith("certificate valid"):
            self.fail(f"{' '.join(args)}: exit {code}")
        elif spans_out is None and not deep:
            self.samples["validate"].append(wall)

    def check_repeat(self, req, data):
        digest = hashlib.sha256(data).hexdigest()
        if req.args not in self.digests:
            self.digests[req.args] = digest
            return
        self.repeats += 1
        if self.digests[req.args] != digest:
            self.fail(f"repeat of realize {' '.join(req.args)} gave different bytes")


def run_untraced(client, name, seed, seconds, tmp):
    start = time.perf_counter()
    last = 0.0
    seq = 0
    for n_round, reqs in enumerate(workloads.rounds(name, seed)):
        if n_round and time.perf_counter() - start + last > seconds:
            break
        r0 = time.perf_counter()
        calls = sum(1 + req.validations + req.deep for req in reqs)
        client.probes_per_call = -(-SETUP_IMPORTS // calls)
        for req in reqs:
            seq += 1
            path = tmp / f"cert-{seq}.json"
            data = client.realize(req, path)
            if data is None:
                continue
            client.check_repeat(req, data)
            for _ in range(req.validations):
                client.validate(path, deep=False)
            if req.deep:
                client.validate(path, deep=True)
        last = time.perf_counter() - r0
    s = client.samples
    realize = s["realize"]
    log(
        f"{len(s['setup'])} import, {len(realize)} realize and {len(s['validate'])} validate samples; "
        f"{client.repeats} repeated request(s) compared byte for byte"
    )
    for args, digest in client.digests.items():
        log(f"sha256 {digest}  realize {' '.join(args)}")
    if not (s["setup"] and realize and s["validate"]):
        return {}
    return {
        "setup_s": (statistics.median(s["setup"]), "s"),
        # A mean, not a median: a round is a fixed mix of request sizes,
        # and its median falls between two sizes, so host noise flips it.
        "realize_s": (statistics.fmean(realize), "s"),
        "validate_s": (statistics.median(s["validate"]), "s"),
        "fields_per_s": (client.fields / sum(realize), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def run_traced(client, name, seed, tmp, trace_path):
    reqs = list({req.args: req for req in next(workloads.rounds(name, seed))}.values())
    untraced_wall = traced_wall = 0.0
    merged, counts = [], Counter()
    realize_ids, certs = set(), []
    for i, req in enumerate(reqs):
        plain, traced = tmp / f"cert-{i}.json", tmp / f"traced-{i}.json"
        t = time.perf_counter()
        data = client.realize(req, plain)
        if data is not None:
            client.validate(plain, deep=False)
        untraced_wall += time.perf_counter() - t
        t = time.perf_counter()
        traced_data = client.realize(req, traced, spans_out=tmp / f"spans-{2 * i}.json")
        if traced_data is not None:
            client.validate(traced, deep=False, spans_out=tmp / f"spans-{2 * i + 1}.json")
        traced_wall += time.perf_counter() - t
        realize_ids.add(2 * i)
        for request_id in (2 * i, 2 * i + 1):
            path = tmp / f"spans-{request_id}.json"
            if path.is_file():
                recorded = json.loads(path.read_text())
                base = len(merged)
                for nm, s0, s1, parent, _, deg, bits in recorded["spans"]:
                    parent = parent if parent == spans.NO_PARENT else parent + base
                    merged.append((nm, s0, s1, parent, request_id, deg, bits))
                counts.update(recorded["counts"])
        if data is not None and traced_data is not None:
            if data != traced_data:
                client.fail(f"traced realize {' '.join(req.args)} gave different bytes")
            certs.append(data)
            log(f"sha256 {hashlib.sha256(data).hexdigest()}  realize {' '.join(req.args)} (traced = untraced)")
    trace_path.write_text(json.dumps({"spans": merged, "counts": counts}))
    log_phase_shares(merged, realize_ids)
    metrics = per_layer(merged, counts, certs)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def per_layer(merged, counts, certs):
    agg = spans.aggregate(merged)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_degree": 0, "max_bits": 0}
    metrics = {}
    for label, sized in spans.labels():
        a = agg.get(label, zero)
        metrics[f"{label}.calls"] = (a["calls"], "count")
        metrics[f"{label}.s"] = (a["s"], "s")
        metrics[f"{label}.self_s"] = (a["self_s"], "s")
        if sized:
            metrics[f"{label}.max_degree"] = (a["max_degree"], "degree")
            metrics[f"{label}.max_bits"] = (a["max_bits"], "bits")
    metrics["numfield.NfElement.mul.calls"] = (counts["numfield.NfElement.mul.calls"], "count")
    tried = counts["pipeline.t0_tried"]
    metrics["pipeline.t0_accept_ratio"] = (counts["pipeline.t0_accepted"] / tried if tried else 0.0, "ratio")
    metrics["certs.cert_bytes"] = (sum(len(data) for data in certs), "bytes")
    audits = [json.loads(data)["metadata"]["audit"] for data in certs]
    for event in AUDIT_EVENTS:
        metrics[f"factor.audit.{event}"] = (sum(len(a.get(event, ())) for a in audits), "count")
    return metrics


def log_phase_shares(merged, realize_ids):
    """Log each pipeline phase's share of traced realize time."""
    agg = spans.aggregate(merged, realize_ids)
    wall = agg["cli.main"]["s"] if "cli.main" in agg else 0.0
    shares = sorted(((agg[p]["s"] if p in agg else 0.0, p) for p in PHASES), reverse=True)
    for secs, p in shares:
        log(f"{p}: {secs:.3f} s, {100 * secs / wall if wall else 0:.1f}% of traced realize time")
    log(f"largest share of realize time: {shares[0][1]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autrealize" / "cli.py").is_file():
        log(f"error: {SRC / 'autrealize'} not found; run from an autrealize checkout")
        return 2
    client = Client(time.monotonic() + workloads.WORKLOADS[args.workload][1])
    code, _, _ = client.python(["-c", "import autrealize.cli"])  # compiles bytecode once
    if code != 0:
        log("error: cannot import autrealize.cli")
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics = run_traced(client, args.workload, args.seed, tmp, trace_path)
        else:
            metrics = run_untraced(client, args.workload, args.seed, args.seconds, tmp)
    except DeadlineExceeded:
        client.fail(f"deadline of {workloads.WORKLOADS[args.workload][1]} s reached")
        metrics = {}
    finally:
        shutil.rmtree(tmp)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value} {unit}")
    result = {
        "correct": client.failed == 0 and bool(metrics),
        "attempted": max(client.attempted, 1),
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
