"""Tests of the benchmark's own arithmetic and gates (not of autrealize)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

R = spans.NO_PARENT


def span(name, start, end, parent=R, request=0):
    return (name, start, end, parent, request, 0, 0)


class TestSelfTime:
    def test_children_are_subtracted(self):
        tree = [
            span("root", 0, 100),
            span("a", 10, 40, parent=0),
            span("a.leaf", 20, 30, parent=1),
            span("b", 50, 70, parent=0),
        ]
        assert spans.self_times(tree) == [50, 20, 10, 20]

    def test_overlapping_children_counted_once(self):
        tree = [span("root", 0, 100), span("x", 10, 40, parent=0), span("y", 30, 50, parent=0)]
        assert spans.self_times(tree)[0] == 60

    def test_children_clipped_to_parent(self):
        tree = [span("root", 0, 100), span("x", 90, 130, parent=0)]
        assert spans.self_times(tree)[0] == 90

    def test_nested_calls_of_same_function(self):
        # f calls f, which calls g: f's inclusive time is the outer call
        # only, while self times still partition the 100 ns.
        tree = [
            span("f", 0, 100),
            span("f", 10, 60, parent=0),
            span("g", 20, 30, parent=1),
            span("f", 70, 80, parent=0),
        ]
        agg = spans.aggregate(tree)
        assert agg["f"]["calls"] == 3
        assert agg["f"]["s"] == pytest.approx(100e-9)
        assert agg["f"]["self_s"] == pytest.approx(90e-9)
        assert agg["g"]["s"] == agg["g"]["self_s"] == pytest.approx(10e-9)
        assert sum(a["self_s"] for a in agg.values()) == pytest.approx(100e-9)

    def test_same_name_below_another_function_is_nested(self):
        tree = [span("f", 0, 100), span("g", 10, 60, parent=0), span("f", 20, 30, parent=1)]
        assert spans.aggregate(tree)["f"]["s"] == pytest.approx(100e-9)

    def test_request_filter(self):
        tree = [span("f", 0, 10, request=0), span("f", 20, 50, request=1)]
        agg = spans.aggregate(tree, requests={1})
        assert agg["f"]["calls"] == 1
        assert agg["f"]["s"] == pytest.approx(30e-9)


class TestTracer:
    def test_wrapper_records_parents_and_sizes(self):
        tracer = spans.Tracer()

        def leaf(x):
            return x + 1

        leaf_w = tracer.timed(leaf, "leaf", size=lambda x: (x, 2 * x))
        outer = tracer.timed(lambda x: leaf_w(x) + leaf_w(x), "outer")
        assert outer(3) == 8
        names = [(s[0], s[3], s[5], s[6]) for s in tracer.spans]
        assert names == [("outer", R, 0, 0), ("leaf", 0, 3, 6), ("leaf", 0, 3, 6)]
        assert all(s[1] <= s[2] for s in tracer.spans)

    def test_span_closed_when_call_raises(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError

        with pytest.raises(ValueError):
            tracer.timed(boom, "boom")()
        assert tracer.spans[0][0] == "boom" and tracer._stack == []

    def test_traced_cli_matches_plain_cli(self, tmp_path):
        root = BENCH.parent
        env = {"PYTHONPATH": str(root / "src")}
        args = ["realize", "--named", "C1", "--count", "1", "--t-max", "10", "--out"]
        plain, traced, out = tmp_path / "plain.json", tmp_path / "traced.json", tmp_path / "spans.json"
        py = sys.executable
        subprocess.run([py, "-m", "autrealize.cli", *args, str(plain)], env=env, cwd=root, check=True)
        subprocess.run([py, str(BENCH / "traced_cli.py"), str(out), *args, str(traced)], env=env, cwd=root, check=True)
        assert plain.read_bytes() == traced.read_bytes()
        recorded = json.loads(out.read_text())
        names = [s[0] for s in recorded["spans"]]
        assert names[0] == "cli.main" and recorded["spans"][0][3] == R
        assert {"pipeline.realize_sn", "family.bad_set", "pipeline.specialize_and_verify"} <= set(names)
        assert recorded["counts"]["pipeline.t0_accepted"] == 1


def c1_cert(t0s, degree=3, images=1):
    spec = {
        "t0": None,
        "status": "accepted",
        "defining_polynomial": ["1"] * (degree + 1),
        "automorphisms": {"generator_images": [["0"]] * images, "table": [[0]] * images},
    }
    specs = [{"t0": "0", "status": "rejected", "reason": "bad set: multiple root"}]
    specs += [dict(spec, t0=t) for t in t0s]
    return {"group": {"n": 1, "order": 1}, "specializations": specs}


C1_COUNT_3 = workloads.Request(("--named", "C1", "--count", "3"), 1, 1, 3, 1, True)


class TestKnownAnswers:
    def test_accepts_known_answer(self):
        assert workloads.check_certificate(c1_cert(["1", "-1", "2"]), C1_COUNT_3) == []

    def test_wrong_t0(self):
        problems = workloads.check_certificate(c1_cert(["1", "2", "-1"]), C1_COUNT_3)
        assert problems and "accepted t0" in problems[0]

    def test_too_few_fields(self):
        assert workloads.check_certificate(c1_cert(["1", "-1"]), C1_COUNT_3)

    def test_wrong_degree(self):
        assert workloads.check_certificate(c1_cert(["1", "-1", "2"], degree=6), C1_COUNT_3)

    def test_wrong_automorphism_count(self):
        assert workloads.check_certificate(c1_cert(["1", "-1", "2"], images=2), C1_COUNT_3)

    def test_wrong_group(self):
        cert = c1_cert(["1", "-1", "2"])
        cert["group"] = {"n": 2, "order": 2}
        assert workloads.check_certificate(cert, C1_COUNT_3)


class TestWorkloads:
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.rounds(name, 7), workloads.rounds(name, 7)
            assert [next(a) for _ in range(2)] == [next(b) for _ in range(2)]

    def test_small_mix_counts_fixed_order_seeded(self):
        rounds = {seed: next(workloads.rounds("small-mix", seed)) for seed in (1, 2)}
        for reqs in rounds.values():
            c1 = sorted(r.count for r in reqs if r.n == 1)
            c2 = sorted(r.count for r in reqs if r.n == 2)
            assert c1 == sorted(list(range(1, 9)) * 2)
            assert c2 == [1, 2, 3, 4]
        assert [r.args for r in rounds[1]] != [r.args for r in rounds[2]]

    def test_repeated_requests_share_arguments(self):
        reqs = next(workloads.rounds("small-mix", 3))
        by_count = {}
        for r in reqs:
            if r.n == 1:
                by_count.setdefault(r.count, set()).add(r.args)
        assert all(len(args) == 1 for args in by_count.values())
