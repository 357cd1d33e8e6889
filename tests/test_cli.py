import json

import pytest

from autrealize.cli import (
    EXIT_BUDGET,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    expand_named,
    main,
    parse_group_spec,
)
from autrealize.errors import SpecParseError
from autrealize.perm import PermGroup, parse_cycles


def named(name):
    """(degree, generator strings) of a named group; the strings must
    generate it."""
    G, gens = expand_named(name)
    assert PermGroup([parse_cycles(g, G.degree) for g in gens], degree=G.degree) == G
    return G.degree, gens


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
                expand_named(bad)


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

    def test_named_conflict(self, capsys):
        assert main(["realize", "--named", "S2", "--n", "3"]) == EXIT_PARSE

    def test_bad_gens(self, capsys):
        assert main(["realize", "--n", "3", "--gens", "(1 9)"]) == EXIT_PARSE

    def test_cap(self, capsys):
        assert main(["realize", "--named", "S5"]) == EXIT_CAP

    def test_n4_refused_up_front(self, capsys):
        assert main(["realize", "--named", "V4"]) == EXIT_CAP
        assert "n = 4 is not supported yet" in capsys.readouterr().err

    def test_budget(self, capsys):
        code = main(["realize", "--n", "1", "--gens", "()", "--count", "50",
                     "--t-max", "2"])
        assert code == EXIT_BUDGET
        assert "t0=" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "trivial.json"
    code = main(["realize", "--named", "C1", "--count", "2", "--t-max", "10",
                 "--out", str(path)])
    assert code == EXIT_OK
    return path


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
        assert "certificate INVALID" in out and "[FAIL]" in out

    def test_empty_table(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        spec = next(s for s in data["specializations"] if s["status"] == "accepted")
        spec["automorphisms"]["table"] = []
        bad = tmp_path / "empty_table.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert f"[FAIL] specialization t0={spec['t0']} table is a group" in out

    def test_forged_q(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        # q = X^3 + TX + T; make its T coefficient 2, so q(t0, X) no longer
        # equals any accepted defining polynomial
        assert data["pipeline"]["q"][1][0] == "1"
        data["pipeline"]["q"][1][0] = "2"
        bad = tmp_path / "forged_q.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "[FAIL] specialization t0=1 is q(t0, X)" in capsys.readouterr().out

    def test_malformed_q(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        data["pipeline"]["q"][0][0] = "1/0"
        bad = tmp_path / "malformed_q.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert "[FAIL] pipeline q well-formed" in capsys.readouterr().out

    # each malformed accepted specialization, and the check that fails on it
    MALFORMED_SPECS = {
        "t0": "well-formed",
        "defining_polynomial": "well-formed",
        "table_row_removed": "table recomputes",
        "table_short_row": "table recomputes",
        "extra_generator_image": "table recomputes",
        "witness_not_a_list": "well-formed",
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
        elif field == "table_row_removed":
            autos["table"].pop()
        elif field == "table_short_row":
            autos["table"][-1].pop()
        elif field == "extra_generator_image":
            autos["generator_images"].append(autos["generator_images"][0])
        elif field == "witness_not_a_list":
            spec["witness"] = 5
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

    def test_version_1(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
        data["version"] = 1
        old = tmp_path / "version_1.json"
        old.write_text(json.dumps(data))
        assert main(["validate", str(old)]) == EXIT_PARSE
        assert "[FAIL] schema" in capsys.readouterr().out

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
        assert f"[FAIL] deep: t0={t0} well-formed" in capsys.readouterr().out

    def test_legacy_bad_set_key(self, cert_path, tmp_path, capsys):
        data = json.loads(cert_path.read_text())
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

    def test_deep(self, cert_path, capsys):
        assert main(["validate", str(cert_path), "--deep"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "deep: q matches" in out


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
