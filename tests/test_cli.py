import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from autrealize.cli import (
    EXIT_BUDGET,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    USAGE,
    main,
    parse_group_spec,
)
from autrealize import factor, pipeline
from autrealize.errors import SpecParseError
from autrealize.exact import parse_rational, render_rational
from autrealize.numfield import NumberField
from autrealize.perm import PermGroup, named_group, parse_cycles
from reference import v4_pipeline


def named(name):
    """(degree, generator strings) of a named group; the strings must
    generate it."""
    _, degree, expand = named_group(name)
    G, gens = expand()
    assert PermGroup([parse_cycles(g, degree) for g in gens], degree=degree) == G
    return degree, gens


class TestExpandNamed:
    def test_symmetric(self):
        assert named("S3") == (3, ["(1 2)", "(1 2 3)"])
        assert named("S2") == (2, ["(1 2)"])
        assert named("S1") == (1, ["()"])

    def test_cyclic(self):
        assert named("C4") == (4, ["(1 2 3 4)"])
        assert named("C1") == (1, ["()"])

    def test_alternating(self):
        assert named("A4") == (4, ["(1 2 3)", "(2 3 4)"])
        assert named("A3") == (3, ["(1 2 3)"])

    def test_v4(self):
        assert named("V4") == (4, ["(1 2)(3 4)", "(1 3)(2 4)"])

    def test_unknown(self):
        for bad in ("D4", "S", "Sx", "S0"):
            with pytest.raises(SpecParseError):
                named_group(bad)


class TestParseGroupSpec:
    def test_two_generators(self):
        G, strings = parse_group_spec(3, "(1 2);(1 2 3)")
        assert G.order == 6 and strings == ["(1 2)", "(1 2 3)"]

    def test_missing_n(self):
        with pytest.raises(SpecParseError):
            parse_group_spec(None, "(1 2)")

    def test_empty(self):
        with pytest.raises(SpecParseError):
            parse_group_spec(3, "")


class TestArguments:
    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["realize", "--help"], ["validate", "-h"]]
    )
    def test_help(self, capsys, argv):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == USAGE and out.startswith("usage: autrealize realize")

    @pytest.mark.parametrize(
        "argv",
        [
            ["realize", "--bogus", "1"],
            ["realize", "--count"],
            ["realize", "--count", "x"],
            [],
            ["validate"],
            ["validate", "a", "b"],
            # no abbreviations: --cou is not --count
            ["realize", "--named", "C1", "--cou=1", "--t-max=5"],
        ],
        ids=["unknown", "missing-value", "not-an-int", "no-subcommand",
             "no-path", "two-paths", "abbreviated"],
    )
    def test_bad_arguments(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_equals_form(self, capsys):
        code = main(["realize", "--named=C1", "--count=1", "--t-max=5"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [s["t0"] for s in data["specializations"] if s["status"] == "accepted"] == ["1"]
        # a value after '=' is typed as one after a space
        assert main(["realize", "--named=C1", "--count=x"]) == EXIT_PARSE

    @pytest.mark.parametrize("flag_first", [True, False])
    def test_deep_before_or_after_path(self, cert_path, capsys, flag_first):
        argv = ["--deep", str(cert_path)] if flag_first else [str(cert_path), "--deep"]
        assert main(["validate", *argv]) == EXIT_OK
        assert "[PASS] deep: pipeline rebuild\n" in capsys.readouterr().out
        # the flag takes no value, and is not abbreviated
        assert main(["validate", str(cert_path), "--deep=1"]) == EXIT_PARSE
        assert main(["validate", str(cert_path), "--de"]) == EXIT_PARSE


class TestRealizeCommand:
    def test_trivial_to_stdout(self, capsys):
        code = main(["realize", "--n", "1", "--gens", "()", "--count", "1",
                     "--t-max", "5"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "autrealize-certificate"
        accepted = [s for s in data["specializations"] if s["status"] == "accepted"]
        assert len(accepted) == 1
        # t0 = 1 gives X^3 + X + 1
        assert accepted[0]["t0"] == "1"
        assert accepted[0]["defining_polynomial"] == ["1", "1", "0", "1"]

    @pytest.mark.parametrize("argv", [["--count", "1"], ["--n", "3"]], ids=["none", "n-only"])
    def test_no_group(self, capsys, argv):
        """Neither --named nor --gens: the error names what is missing."""
        assert main(["realize", *argv]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: no group given: use --named NAME, or --n N with --gens GENS\n"
        )

    def test_named_spellings_give_one_certificate(self, tmp_path, capsys):
        """The certificate names the group canonically, not as spelled."""
        texts = set()
        for i, spelling in enumerate(["S3", "s3", " S3", "S03"]):
            out = tmp_path / f"{i}.json"
            argv = ["realize", "--named", spelling, "--count", "1", "--out", str(out)]
            assert main(argv) == EXIT_OK
            texts.add(out.read_bytes())
        (text,) = texts
        assert json.loads(text)["group"]["name"] == "S3"

    def test_named_conflict(self, capsys):
        assert main(["realize", "--named", "S2", "--n", "3"]) == EXIT_PARSE

    def test_named_with_gens(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("pipeline run although --gens was given")

        monkeypatch.setattr(pipeline, "build_state", refuse)
        assert main(["realize", "--named", "C2", "--gens", "()"]) == EXIT_PARSE
        assert "--gens conflicts with --named C2" in capsys.readouterr().err

    @pytest.mark.parametrize("gens", ["(1 2);", ";(1 2)", "(1 2);;()", " ; "])
    def test_empty_generator_refused(self, capsys, gens):
        """A stray ';' is refused, not read as a second generator "()",
        so one group has one spelling; "()" itself is the identity."""
        assert main(["realize", "--n", "2", "--gens", gens, "--count", "1"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: empty generator in ")
        assert parse_group_spec(2, "(1 2);()")[1] == ["(1 2)", "()"]

    def test_bad_gens(self, capsys):
        assert main(["realize", "--n", "3", "--gens", "(1 9)"]) == EXIT_PARSE
        # a 1-cycle outside 1..n is refused, not read as the identity
        assert main(["realize", "--n", "2", "--gens", "(1 2)(7)", "--count", "1"]) == EXIT_PARSE

    def test_n_zero_refused(self, capsys):
        # the cap check refuses it before parse_group_spec reads the gens
        assert main(["realize", "--n", "0", "--gens", "()"]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"

    def test_cap(self, capsys):
        assert main(["realize", "--named", "S5"]) == EXIT_CAP

    def test_n4_refused_up_front(self, capsys):
        assert main(["realize", "--named", "V4"]) == EXIT_CAP
        assert "n = 4 is not supported yet" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--named", "S9"],
            ["--named", "A9"],
            ["--n", "9", "--gens", "(1 2 3 4 5 6 7 8 9);(1 2)"],
        ],
    )
    def test_large_degree_refused_before_closure(self, capsys, monkeypatch, argv):
        def refuse(self):
            raise AssertionError("group closed before the degree cap check")

        monkeypatch.setattr(PermGroup, "_close", refuse)
        assert main(["realize", *argv]) == EXIT_CAP
        assert "n = 9 is not supported yet" in capsys.readouterr().err

    def test_negative_t_max_refused_up_front(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("pipeline state built for a negative t-max")

        monkeypatch.setattr(pipeline, "build_state", refuse)
        code = main(["realize", "--named", "C2", "--count", "1", "--t-max", "-3"])
        assert code == EXIT_PARSE
        assert "t-max must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [["--out="], ["--out", ""]])
    def test_empty_out_refused_up_front(self, capsys, monkeypatch, out):
        """An empty --out is no path: it is refused before any search,
        not read as standard output."""
        def refuse(*_):
            raise AssertionError("pipeline state built for an empty --out")

        monkeypatch.setattr(pipeline, "build_state", refuse)
        assert main(["realize", "--named", "C1", "--count", "1", *out]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --out needs a value\n")

    def test_budget(self, capsys):
        code = main(["realize", "--n", "1", "--gens", "()", "--count", "50",
                     "--t-max", "2"])
        assert code == EXIT_BUDGET
        assert "t0=" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["realize", "--named", "C1", "--count", "1", "--t-max", "5",
                     "--out", str(out)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write certificate: ")
        assert len(err.splitlines()) == 1


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "trivial.json"
    code = main(["realize", "--named", "C1", "--count", "2", "--t-max", "10",
                 "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def c2_cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "c2.json"
    code = main(["realize", "--named", "C2", "--count", "1", "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def s3_cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "s3.json"
    code = main(["realize", "--named", "S3", "--count", "1", "--out", str(path)])
    assert code == EXIT_OK
    return path


def forge_generators(*texts):
    return lambda data: data["group"].update(generators=list(texts))


def forge_entries(data):
    """40 accepted entries with nothing but a t0: each fails the shallow
    checks, and a rebuild would have to find 41 fields."""
    data["specializations"] += [{"t0": "200", "status": "accepted"}] * 40


def forge_trivial_group(data, spec):
    """Claim the trivial group: one image and the table [[0]].  This
    passes every check but completeness, for Aut(E) has order 2."""
    data["group"].update(generators=["()"], order=1)
    autos = spec["automorphisms"]
    autos.update(generator_images=autos["generator_images"][:1], table=[[0]])


def forge_prime(p):
    return lambda data, spec: spec.update(completeness_prime=p)


class TestValidateCommand:
    def test_valid(self, cert_path, capsys):
        assert main(["validate", str(cert_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "certificate valid" in out
        assert "[FAIL]" not in out
        assert "[PASS] distinctness [0, 1] separated: p = 5" in out

    def test_tampered_table(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        for spec in data["specializations"]:
            if spec["status"] == "accepted":
                # break a generator image: no longer a root of q0
                spec["automorphisms"]["generator_images"][0] = ["1", "1", "1"]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert "certificate INVALID" in out
        # the table is read only once every step of the proof passed, so
        # no entry whose images are not all roots counts as accepted
        for spec in data["specializations"]:
            if spec["status"] == "accepted":
                label = f"[FAIL] specialization t0={spec['t0']}"
                assert f"{label} images are roots" in out
                assert f"{label} table recomputes mod p" in out
        assert "[FAIL] at least one accepted specialization: 0 accepted" in out

    def test_empty_images(self, tmp_path, capsys):
        """No images and a prime at which q0 has no root: 0 roots for 0
        images proves nothing, for the bound needs a root mod p, and the
        completeness step says so by name."""
        path = tmp_path / "c1x8.json"
        assert main(["realize", "--named", "C1", "--count", "8", "--t-max", "10",
                     "--out", str(path)]) == EXIT_OK
        data = json.loads(path.read_text())
        spec = next(s for s in data["specializations"] if s["t0"] == "1")
        assert spec["status"] == "accepted"
        spec["automorphisms"].update(generator_images=[], table=[])
        spec["completeness_prime"] = 5
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(path)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert "[FAIL] specialization t0=1 completeness prime: p = 5: " in out
        assert "[FAIL] specialization t0=1 table recomputes mod p" in out
        assert "t0=1 well-formed" not in out

    def test_empty_table(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        spec["automorphisms"]["table"] = []
        bad = tmp_path / "empty_table.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert f"[FAIL] specialization t0={spec['t0']} table recomputes mod p" in out

    # each malformed accepted specialization, and the check that fails on it
    MALFORMED_SPECS = {
        "t0": "well-formed",
        "defining_polynomial": "well-formed",
        "defining_polynomial_empty": "well-formed",  # the zero polynomial
        "table_row_removed": "table recomputes",
        "table_short_row": "table recomputes",
        "extra_generator_image": "table recomputes",
        "t0_not_a_string": "well-formed",
        "not_an_object": "specialization entry is an object",
    }

    @pytest.mark.parametrize("field", list(MALFORMED_SPECS))
    def test_zero_denominator(self, cert_path, tmp_path, capsys, field):
        data = json.loads(cert_path.read_text())
        specs = data["specializations"]
        k, spec = next(
            (k, s) for k, s in enumerate(specs) if s["status"] == "accepted"
        )
        autos = spec["automorphisms"]
        if field == "t0":
            spec["t0"] = "1/0"
        elif field == "defining_polynomial":
            spec["defining_polynomial"][0] = "1/0"
        elif field == "defining_polynomial_empty":
            spec["defining_polynomial"] = []
        elif field == "table_row_removed":
            autos["table"].pop()
        elif field == "table_short_row":
            autos["table"][-1].pop()
        elif field == "extra_generator_image":
            autos["generator_images"].append(autos["generator_images"][0])
        elif field == "t0_not_a_string":
            spec["t0"] = [1]
        else:
            specs[k] = 5
        bad = tmp_path / "malformed_spec.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert self.MALFORMED_SPECS[field] in out
        assert "certificate INVALID" in out

    def test_non_monic_polynomial(self, cert_path, tmp_path, capsys):
        """A defining polynomial that is not monic defines no field E: it
        fails before irreducibility is asked of it."""
        data = json.loads(cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        spec["defining_polynomial"] = [
            render_rational(2 * parse_rational(c)) for c in spec["defining_polynomial"]
        ]
        bad = tmp_path / "non_monic.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        label = f"specialization t0={spec['t0']}"
        assert f"[FAIL] {label} well-formed: modulus must be monic\n" in out
        assert f"{label} irreducible" not in out

    # forged primes for the fields at t0 = 1 and -1, X^3 + X + 1 and
    # X^3 - X - 1, whose Frobenius patterns differ at p = 5
    FORGED_PRIMES = {
        "patterns_agree": 11,  # both are a linear times a quadratic mod 11
        "composite": 35,
        "at_least_2_64": 2**64 + 51,  # prime, and the patterns differ there
        "first_not_squarefree": 31,  # divides disc(X^3 + X + 1) = -31
        "second_not_squarefree": 23,  # divides disc(X^3 - X - 1) = -23
        "below_5": 3,
        "not_an_int": "5",
    }

    @pytest.mark.parametrize("forgery", list(FORGED_PRIMES))
    def test_forged_distinctness_prime(self, cert_path, tmp_path, capsys, forgery):
        data = json.loads(cert_path.read_text())
        assert data["distinctness"] == [{"pair": [0, 1], "prime": 5}]
        data["distinctness"][0]["prime"] = self.FORGED_PRIMES[forgery]
        bad = tmp_path / "forged_prime.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "[FAIL] distinctness [0, 1] separated" in capsys.readouterr().out

    @pytest.mark.parametrize("forgery", ["missing", "duplicate", "reversed"])
    def test_forged_distinctness_pairs(self, cert_path, tmp_path, capsys, forgery):
        data = json.loads(cert_path.read_text())
        entries = data["distinctness"]
        if forgery == "missing":
            entries.clear()
        elif forgery == "duplicate":
            entries.append(dict(entries[0]))
        else:
            entries[0]["pair"].reverse()
        bad = tmp_path / "forged_pairs.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "[FAIL] distinctness covers all pairs" in capsys.readouterr().out

    # forgeries of the C2 field at t0 = 1, a degree-6 q0 whose Frobenius
    # pattern has 2 ones at its completeness prime 11, and the check that
    # fails on each
    FORGED_COMPLETENESS = {
        "trivial_group": (forge_trivial_group, "completeness prime"),
        "more_roots_than_images": (forge_prime(131), "completeness prime"),  # splits
        "not_squarefree_mod_p": (forge_prime(5), "completeness prime"),
        # 13 divides the denominator 39 of the non-identity image
        "divides_a_denominator": (forge_prime(13), "completeness prime"),
        "composite": (forge_prime(121), "completeness prime"),
        # prime, with 2 ones in the pattern, but beyond the proof bound
        "at_least_2_64": (forge_prime(2**64 + 13), "completeness prime"),
        "below_5": (forge_prime(3), "completeness prime"),
        "not_an_int": (forge_prime("11"), "completeness prime"),
        "a_float": (forge_prime(11.0), "completeness prime"),
        "missing": (lambda data, spec: spec.pop("completeness_prime"), "well-formed"),
        "duplicated_image": (
            lambda data, spec: spec["automorphisms"]["generator_images"].append(
                spec["automorphisms"]["generator_images"][1]
            ),
            "completeness prime",
        ),
        "version_2": (lambda data, spec: data.update(version=2), "schema"),
    }

    # why the completeness check fails, for some of the forgeries above
    COMPLETENESS_DETAIL = {
        "more_roots_than_images": "p = 131: 6 roots mod p for 2 images",
        "trivial_group": "p = 11: 2 roots mod p for 1 images",
        "not_squarefree_mod_p": (
            "p = 5: p divides the leading coefficient or q0 is not squarefree mod p"
        ),
        "composite": "p = 121: not an integer prime with 5 <= p < 2**64",
    }

    @pytest.mark.parametrize("forgery", list(FORGED_COMPLETENESS))
    def test_forged_completeness(self, c2_cert_path, tmp_path, capsys, forgery):
        data = json.loads(c2_cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        assert (spec["t0"], spec["completeness_prime"]) == ("1", 11)
        forge, check = self.FORGED_COMPLETENESS[forgery]
        forge(data, spec)
        bad = tmp_path / "forged_completeness.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        label = "schema" if check == "schema" else f"specialization t0=1 {check}"
        assert f"[FAIL] {label}" in out
        if forgery in self.COMPLETENESS_DETAIL:
            assert f"[FAIL] {label}: {self.COMPLETENESS_DETAIL[forgery]}\n" in out
        assert "certificate INVALID" in out

    @pytest.mark.parametrize(
        "n, generators, order",
        [
            (1000000, ["()"], 1),
            (10, ["(1 2)", "(1 2 3 4 5 6 7 8 9 10)"], 3628800),
        ],
    )
    def test_oversized_group_refused_before_closure(
        self, cert_path, tmp_path, capsys, monkeypatch, n, generators, order
    ):
        """A claimed degree above the S_n cap fails the group check before
        any permutation is parsed or any group closed."""
        closed = []

        def refuse(self):
            closed.append(self.degree)
            raise AssertionError("group closed before the degree cap check")

        monkeypatch.setattr(PermGroup, "_close", refuse)
        data = json.loads(cert_path.read_text())
        data["group"].update(n=n, generators=generators, order=order)
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert f"[FAIL] group order: n = {n} is not supported yet" in out
        assert closed == []

    def test_defining_polynomial_over_degree_cap(
        self, cert_path, tmp_path, capsys, monkeypatch
    ):
        """A defining polynomial of degree 401 is refused by the
        factorization cap before any discriminant is taken, for a
        discriminant costs cubic time in the degree, and before the
        field E it defines builds anything of more than linear size: its
        d^2 reduction rows, or the d powers of the denominator 2 that
        scale its modulus to an integral one."""

        def refuse(*_):
            raise AssertionError("discriminant taken before the degree cap check")

        def refuse_built(name):
            def build(_):
                raise AssertionError(f"{name} built before the degree cap check")

            return property(build)

        monkeypatch.setattr(factor, "discriminant", refuse)
        for name in ("_reduction", "_scaled"):
            monkeypatch.setattr(NumberField, name, refuse_built(name))
        data = json.loads(cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        rng = random.Random(1)
        coeffs = [str(rng.randint(-3, 3)) for _ in range(401)] + ["1"]
        coeffs[0] = "1/2"
        spec["defining_polynomial"] = coeffs
        bad = tmp_path / "over_cap.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_CAP
        err = capsys.readouterr().err
        assert "degree 401 exceeds the factorization cap 400" in err

    def test_no_accepted_specialization(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        data.update(specializations=[], distinctness=[])
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert "[FAIL] at least one accepted specialization: 0 accepted" in out

    @pytest.mark.parametrize(
        "fixture, n",
        [("c2_cert_path", "2"), ("c2_cert_path", 2.9), ("cert_path", True)],
        ids=["string", "float", "bool"],
    )
    def test_group_n_not_an_integer(self, request, tmp_path, capsys, fixture, n):
        data = json.loads(request.getfixturevalue(fixture).read_text())
        data["group"]["n"] = n
        bad = tmp_path / "n.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] group order: group.n is not an integer: {n!r}" in out

    def test_generator_point_outside_n(self, c2_cert_path, tmp_path, capsys):
        data = json.loads(c2_cert_path.read_text())
        data["group"]["generators"] = ["(1 2)(9)"]
        bad = tmp_path / "gens.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert "[FAIL] group order: point 9 outside 1..2\n" in out

    @pytest.mark.parametrize("n", [0, -2])
    def test_group_n_below_one(self, cert_path, tmp_path, capsys, n):
        data = json.loads(cert_path.read_text())
        data["group"]["n"] = n
        bad = tmp_path / "n.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] group order: n must be >= 1, got {n}\n" in out

    # JSON that Python compares equal to the integers a certificate means
    # (2.0 == 2, False == 0), and the failed check each is reported as
    NOT_INTEGERS = {
        "order_float": (
            "c2_cert_path",
            lambda data, spec: data["group"].update(order=2.0),
            "[FAIL] group order: group.order is not an integer: 2.0",
        ),
        "table_bools": (
            "c2_cert_path",
            lambda data, spec: spec["automorphisms"].update(
                table=[[False, True], [True, False]]
            ),
            "well-formed: table entry is not an integer: False",
        ),
        "pair_bools": (
            "cert_path",
            lambda data, spec: data["distinctness"][0].update(pair=[False, True]),
            "[FAIL] distinctness covers all pairs",
        ),
    }

    @pytest.mark.parametrize("case", list(NOT_INTEGERS))
    def test_not_an_integer(self, request, tmp_path, capsys, case):
        fixture, forge, failure = self.NOT_INTEGERS[case]
        data = json.loads(request.getfixturevalue(fixture).read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        forge(data, spec)
        bad = tmp_path / "not_an_integer.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert failure in out
        assert "certificate INVALID" in out

    # a rejected entry is read too: its t0 must be canonical and its
    # reason a non-empty string
    MALFORMED_REJECTED = {
        "t0_padded": (
            lambda spec: spec.update(t0=" 0 "),
            "t0= 0  well-formed: ",
        ),
        "reason_null": (
            lambda spec: spec.update(reason=None),
            "t0=0 well-formed: reason is not a non-empty string: None",
        ),
        "reason_int": (
            lambda spec: spec.update(reason=5),
            "t0=0 well-formed: reason is not a non-empty string: 5",
        ),
    }

    @pytest.mark.parametrize("case", list(MALFORMED_REJECTED))
    def test_malformed_rejected_entry(self, c2_cert_path, tmp_path, capsys, case):
        forge, failure = self.MALFORMED_REJECTED[case]
        data = json.loads(c2_cert_path.read_text())
        spec = data["specializations"][0]
        assert (spec["t0"], spec["status"]) == ("0", "rejected")
        forge(spec)
        bad = tmp_path / "rejected.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] specialization {failure}" in out
        assert "certificate INVALID" in out

    NOT_CANONICAL_GENERATORS = "[FAIL] group order: generators are not in canonical cycle notation: "

    # text that realize never writes, the certificate it is forged in,
    # and the failed check each is reported as
    NOT_WRITTEN = {
        "name_A4": (
            "c2_cert_path",
            lambda data: data["group"].update(name="A4"),
            "[FAIL] group name: A4 has degree 4, group.n is 2\n",
        ),
        "name_lower_case": (
            "c2_cert_path",
            lambda data: data["group"].update(name="c2"),
            "[FAIL] group name: 'c2' is not canonical; realize writes 'C2'\n",
        ),
        "name_unknown": (
            "c2_cert_path",
            lambda data: data["group"].update(name="X2"),
            "[FAIL] group name: unknown named group 'X2'\n",
        ),
        "name_not_a_string": (
            "c2_cert_path",
            lambda data: data["group"].update(name=2),
            "[FAIL] group name: not a string: 2\n",
        ),
        # canonical and of order 2, but not the generators C2 lists
        "generators_not_the_named": (
            "c2_cert_path",
            forge_generators("(1 2)", "(1 2)"),
            "[FAIL] group name: generators are not C2's: ['(1 2)']\n",
        ),
        "comma": ("c2_cert_path", forge_generators("(1,2)"), NOT_CANONICAL_GENERATORS),
        "plus": ("c2_cert_path", forge_generators("(+1 2)"), NOT_CANONICAL_GENERATORS),
        # int() reads any Unicode decimal digit
        "arabic_indic_digit": (
            "c2_cert_path",
            forge_generators("(\u0661 2)"),
            NOT_CANONICAL_GENERATORS,
        ),
        "extra_empty": (
            "c2_cert_path",
            forge_generators("(1 2)", ""),
            NOT_CANONICAL_GENERATORS,
        ),
        "version_float": (
            "c2_cert_path",
            lambda data: data.update(version=6.0),
            "[FAIL] schema: version 6.0, expected 6\n",
        ),
        "accepted_entries": (
            "s3_cert_path",
            forge_entries,
            "[FAIL] specialization t0=200 well-formed: 'defining_polynomial'\n",
        ),
    }

    @pytest.mark.parametrize("case", list(NOT_WRITTEN))
    def test_not_written_by_realize(self, request, tmp_path, capsys, monkeypatch, case):
        """Each forgery fails its check, shallow and with --deep, and
        --deep rebuilds nothing once a shallow check failed."""
        fixture, forge, failure = self.NOT_WRITTEN[case]
        data = json.loads(request.getfixturevalue(fixture).read_text())
        forge(data)
        bad = tmp_path / "not_written.json"
        bad.write_text(json.dumps(data))
        rebuilt = []
        monkeypatch.setattr(pipeline, "run", lambda *a, **k: rebuilt.append(a))
        for deep in ([], ["--deep"]):
            assert main(["validate", str(bad), *deep]) == EXIT_PARSE
            out = capsys.readouterr().out
            assert failure in out and out.endswith("certificate INVALID\n")
        assert rebuilt == []
        assert "[FAIL] deep: pipeline rebuild: not run: a shallow check failed\n" in out

    def test_version_1(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        data["version"] = 1
        old = tmp_path / "version_1.json"
        old.write_text(json.dumps(data))
        assert main(["validate", str(old)]) == EXIT_PARSE
        assert "[FAIL] schema" in capsys.readouterr().out

    def test_version_3(self, cert_path, tmp_path, capsys):
        """A certificate of an earlier format names its version."""
        for version in (3, 4, 5):
            data = json.loads(cert_path.read_text())
            data["version"] = version
            old = tmp_path / f"version_{version}.json"
            old.write_text(json.dumps(data))
            assert main(["validate", str(old)]) == EXIT_PARSE
            out = capsys.readouterr().out
            assert out.count("[FAIL]") == 1
            assert f"[FAIL] schema: version {version}, expected 6\n" in out

    @pytest.mark.parametrize("key", ["prime", "pair", "not_an_object"])
    def test_distinctness_entry_missing_key(self, cert_path, tmp_path, capsys, key):
        data = json.loads(cert_path.read_text())
        if key == "not_an_object":
            data["distinctness"][0] = 5
        else:
            del data["distinctness"][0][key]
        bad = tmp_path / "distinctness.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "[FAIL] distinctness" in capsys.readouterr().out

    @pytest.mark.parametrize("t0", ["1/0", None])
    def test_deep_malformed_t0(self, cert_path, tmp_path, capsys, t0):
        """A malformed t0 fails once, in the shallow checks; --deep then
        rebuilds nothing and adds no line of its own for it."""
        data = json.loads(cert_path.read_text())
        spec = data["specializations"][0]
        assert spec["status"] == "rejected"  # shallow checks only its reason
        if t0 is None:
            del spec["t0"]
        else:
            spec["t0"] = t0
        bad = tmp_path / "deep_t0.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad), "--deep"]) == EXIT_PARSE
        out = capsys.readouterr().out
        entry = [line for line in out.splitlines() if f"t0={t0} " in line]
        assert len(entry) == 1
        assert entry[0].startswith(f"[FAIL] specialization t0={t0} well-formed: ")
        assert "deep: t0=" not in out
        assert "[FAIL] deep: pipeline rebuild: not run: a shallow check failed\n" in out

    @pytest.mark.parametrize("status", ["bogus", "missing", None])
    def test_status_neither_accepted_nor_rejected(self, cert_path, tmp_path, capsys, status):
        data = json.loads(cert_path.read_text())
        spec = data["specializations"][0]
        assert spec["status"] == "rejected"
        if status == "missing":
            del spec["status"]
        else:
            spec["status"] = status
        bad = tmp_path / "status.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        shown = None if status == "missing" else status
        assert out.count("[FAIL]") == 1
        assert (
            f"[FAIL] specialization t0=0 well-formed: status is neither accepted "
            f"nor rejected: {shown!r}\n" in out
        )

    def test_legacy_bad_set_key(self, cert_path, tmp_path, capsys):
        """Keys the validator does not read, such as a version-4 pipeline
        block with an older bad_set_rational in it, are ignored."""
        data = json.loads(cert_path.read_text())
        data["pipeline"] = v4_pipeline(pipeline.build_state(PermGroup([], degree=1)))
        data["pipeline"]["bad_set_rational"] = ["-27/4", "0"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(data))
        assert main(["validate", str(legacy)]) == EXIT_OK

    def test_wrong_format(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text('{"format": "something-else"}')
        assert main(["validate", str(bad)]) == EXIT_PARSE

    def test_unreadable(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_PARSE

    # files the JSON decoder refuses: UTF-16 text (it starts with the
    # byte-order mark ff fe), nesting past the recursion limit, and an
    # integer past the interpreter's 4,300-digit limit for int(str)
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.encode("utf-16"),
            lambda text: b"[" * 100_000 + b"]" * 100_000,
            lambda text: text.replace(
                '"completeness_prime": ', '"completeness_prime": ' + "1" * 5000, 1
            ).encode(),
        ],
        ids=["utf16", "nested", "long_int"],
    )
    def test_undecodable(self, cert_path, tmp_path, capsys, corrupt):
        bad = tmp_path / "bad.json"
        bad.write_bytes(corrupt(cert_path.read_text()))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "cannot read certificate" in capsys.readouterr().err

    def test_deep(self, cert_path, capsys):
        assert main(["validate", str(cert_path), "--deep"]) == EXIT_OK
        assert "[PASS] deep: pipeline rebuild\n" in capsys.readouterr().out

    # runs whose t-max --deep derives from the transcript: C1 stops at
    # t0 = -2 within --t-max 10, C2 needs t0 = +-2, and S2 inside S3 has
    # y != 0
    @pytest.mark.parametrize(
        "argv",
        [
            ["--named", "C1", "--count", "3", "--t-max", "10"],
            ["--named", "C2", "--count", "4"],
            ["--n", "3", "--gens", "(1 2)", "--count", "1"],
        ],
        ids=["C1-count-3", "C2-count-4", "S2-in-S3"],
    )
    def test_deep_derives_t_max(self, tmp_path, capsys, argv):
        path = tmp_path / "cert.json"
        assert main(["realize", *argv, "--out", str(path)]) == EXIT_OK
        assert main(["validate", str(path), "--deep"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] deep: pipeline rebuild\n" in out and "[FAIL]" not in out

    # rationals and arrays that are not the canonical text the producer
    # writes: a polynomial's array never ends in "0", and an element has
    # exactly [E:Q] coordinates
    NOT_CANONICAL = {
        "t0_bool": lambda spec: spec.update(t0=True),
        "t0_float": lambda spec: spec.update(t0=1.0),
        "t0_int": lambda spec: spec.update(t0=1),
        "t0_unreduced": lambda spec: spec.update(t0="2/2"),
        "t0_padded": lambda spec: spec.update(t0=" 1 "),
        "coefficient_int": lambda spec: spec["defining_polynomial"].__setitem__(
            -1, 1
        ),
        "coefficient_float": lambda spec: spec["defining_polynomial"].__setitem__(
            -1, 1.0
        ),
        "coefficients_padded": lambda spec: spec["defining_polynomial"].append("0"),
        "image_padded": lambda spec: spec["automorphisms"]["generator_images"][
            1
        ].append("0"),
    }

    @pytest.mark.parametrize("case", list(NOT_CANONICAL))
    def test_not_canonical_rational(self, c2_cert_path, tmp_path, capsys, case):
        data = json.loads(c2_cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        assert (spec["t0"], spec["defining_polynomial"][-1]) == ("1", "1")
        self.NOT_CANONICAL[case](spec)
        bad = tmp_path / "not_canonical.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert out.count(f"[FAIL] specialization t0={spec['t0']} well-formed: ") == 1
        assert "certificate INVALID" in out


class TestCanonicalEmission:
    def test_reemission_is_byte_stable(self, cert_path):
        from autrealize.certs import dumps_canonical

        text = cert_path.read_text()
        assert dumps_canonical(json.loads(text)) == text

    def test_repeat_run_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["realize", "--named", "C1", "--count", "1",
                         "--t-max", "5", "--out", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


SRC = Path(__file__).resolve().parent.parent / "src"


def cli_process(args, *, script=None, stdout=subprocess.PIPE):
    """``python -m autrealize.cli ARGS`` (or ``python -c SCRIPT``) in a
    fresh process with ``PYTHONPATH=src`` and no other ``PYTHON*``
    setting: ``PYTHONUNBUFFERED`` would send each write to the pipe at
    once, and a lost flush would not show."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    command = ["-c", script] if script else ["-m", "autrealize.cli"]
    return subprocess.run(
        [sys.executable, *command, *args],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
    )


class TestProcessEntry:
    """The process entry ``cli.run``: each stream is flushed before the
    process ends without finalization.  Standard output through a pipe
    is block-buffered, so a lost flush loses it; standard error is
    line-buffered, so the error cases check the exit code and message
    that reach it through the entry."""

    def test_stdout_certificate_is_the_out_file(self, tmp_path, capsys):
        argv = ["realize", "--named", "C2", "--count", "2"]
        piped = cli_process(argv)
        assert piped.returncode == EXIT_OK and piped.stderr == b""
        out = tmp_path / "c2.json"
        written = cli_process([*argv, "--out", str(out)])
        assert written.returncode == EXIT_OK
        assert written.stdout == f"wrote {out}: 2 verified field(s)\n".encode()
        assert main(argv) == EXIT_OK
        assert piped.stdout == out.read_bytes() == capsys.readouterr().out.encode()

    def test_validate_through_pipe(self, c2_cert_path):
        proc = cli_process(["validate", str(c2_cert_path)])
        assert proc.returncode == EXIT_OK and proc.stderr == b""
        assert proc.stdout.decode().splitlines()[-1] == "certificate valid"

    def test_help_through_pipe(self):
        proc = cli_process(["--help"])
        assert (proc.returncode, proc.stdout.decode()) == (EXIT_OK, USAGE)

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["realize", "--count", "abc"], EXIT_PARSE,
             "error: --count needs an integer, got 'abc'\n"),
            (["realize", "--n", "3", "--gens", "(1 2 3)", "--count", "5",
              "--t-max", "0"], EXIT_BUDGET,
             "error: only 1 of 5 fields found within height 0\n  t0=0: accepted\n"),
            (["realize", "--named", "A4"], EXIT_CAP,
             "error: n = 4 is not supported yet: the S_n route stops at n = 3\n"),
            (["realize", "--named", "C1", "--count", "1", "--t-max", "1", "--out="],
             EXIT_PARSE, "error: --out needs a value\n"),
            (["realize", "--named", "C1", "--count", "1", "--t-max", "1", "--out", ""],
             EXIT_PARSE, "error: --out needs a value\n"),
            (["realize", "--named", "C1", "--count"], EXIT_PARSE,
             "error: --count needs a value\n"),
            (["realize", "--bogus"], EXIT_PARSE,
             "error: unknown option --bogus for realize\n"),
        ],
        ids=["parse", "budget", "cap", "out-equals-empty", "out-empty",
             "trailing-count", "unknown-option"],
    )
    def test_error_exit(self, capsys, argv, code, err):
        proc = cli_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, b"", err)
        assert main(argv) == code and capsys.readouterr().err == err

    def test_escaping_exception_finalizes_with_code_1(self):
        # an exception out of main() must not reach the fast exit: the
        # traceback is printed and the atexit callback runs
        script = (
            "import atexit, sys\n"
            "from autrealize import cli\n"
            "def forged(**kwargs):\n"
            "    raise RuntimeError('forged failure')\n"
            "cli._cmd_validate = forged\n"
            "atexit.register(print, 'finalized')\n"
            "cli.run()\n"
        )
        proc = cli_process(["validate", "x.json"], script=script)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert err.startswith("Traceback") and "RuntimeError: forged failure" in err
        assert proc.stdout == b"finalized\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_flush_fails_the_process(self, c2_cert_path):
        # the report fits the stdout buffer, so the entry's flush is the
        # first write to fail; it must not be swallowed into exit code 0
        with open("/dev/full", "wb") as full:
            proc = cli_process(["validate", str(c2_cert_path)], stdout=full)
        assert proc.returncode != EXIT_OK
        assert "No space left on device" in proc.stderr.decode()
