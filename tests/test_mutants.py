"""One-value mutants of real certificates through the shallow validator.

Every value of a certificate outside ``metadata`` is edited once, in
each of the ways below, and the result validated in process:

- a JSON integer k becomes k + 1, k - 1, -k and the string "k";
- a canonical rational string q becomes q + 1, q - 1, -q, 2q and q/2;
- an array loses its first or its last element, repeats its last, or
  swaps its first two;
- an object loses each of its keys in turn.

No mutant may raise, and every mutant that validates must fall in one
of the classes of ``ALLOWED``, each with the reason the validator lets it
through.  The C1 and C2 certificates take about 3 s together; S3 count 1
(830 mutants, 7-10 s) is run by the CI step "S3 mutation harness", with
this module's ``mutants`` and ``allowed_class``.
"""

import json
from collections import Counter
from itertools import islice

import pytest

from autrealize.certs import validate_certificate
from autrealize.cli import EXIT_OK, main
from autrealize.errors import SpecParseError
from autrealize.exact import UniPoly, parse_rational, render_rational
from autrealize.numfield import NumberField
from reference import automorphisms, pattern_by_gcd, usable_primes

#: class of a mutant that validates -> why it may
ALLOWED = {
    "metadata dropped": "metadata is the audit trail of the search, not a claim",
    "distinctness reordered": "the distinctness pairs are a set; their order claims nothing",
    "another C1 field": (
        "a C1 defining polynomial changed into another irreducible cubic "
        "with trivial Aut is a field the certificate proves as well; that "
        "q0 = q(t0, X) only --deep checks"
    ),
}


def _variants(value):
    """The one-step edits of a JSON value that differ from it."""
    if isinstance(value, bool):
        out = []
    elif isinstance(value, int):
        out = [value + 1, value - 1, -value, str(value)]
    elif isinstance(value, str):
        try:
            q = parse_rational(value)
        except SpecParseError:
            return []
        out = [render_rational(v) for v in (q + 1, q - 1, -q, q * 2, q / 2)]
    elif isinstance(value, list):
        out = [value[1:], value[:-1], value + value[-1:]] if value else []
        if len(value) > 1:
            out.append([value[1], value[0], *value[2:]])
    else:
        out = [{k: v for k, v in value.items() if k != key} for key in value]
    return [v for v in out if v != value]


def mutants(value, path=()):
    """(path, mutated document) for each one-value edit of value, outside
    the top-level ``metadata``; path leads to the edited value."""
    for variant in _variants(value):
        yield path, variant
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        if path == () and key == "metadata":
            continue
        for p, variant in mutants(child, (*path, key)):
            copy = value.copy()
            copy[key] = variant
            yield p, copy


def irreducible_cubic_with_trivial_aut(coeffs):
    """An irreducible cubic (irreducible mod some usable prime) whose field
    has one automorphism (its modulus has one root in it), by the
    reference oracles."""
    f = UniPoly([parse_rational(c) for c in coeffs])
    return (
        f.degree == 3
        and any(pattern_by_gcd(f, p) == (3,) for p in islice(usable_primes(f), 20))
        and len(automorphisms(NumberField(f)).maps) == 1
    )


def allowed_class(data, path, mutant):
    """The ``ALLOWED`` class of a mutant that validates, or None."""
    if path == () and mutant == {k: v for k, v in data.items() if k != "metadata"}:
        return "metadata dropped"
    if path == ("distinctness",):
        order = sorted(json.dumps(d, sort_keys=True) for d in data["distinctness"])
        if sorted(json.dumps(d, sort_keys=True) for d in mutant["distinctness"]) == order:
            return "distinctness reordered"
    if (
        data["group"]["name"] == "C1"
        and path[:1] == ("specializations",)
        and path[2:3] == ("defining_polynomial",)
        and irreducible_cubic_with_trivial_aut(
            mutant["specializations"][path[1]]["defining_polynomial"]
        )
    ):
        return "another C1 field"
    return None


@pytest.mark.parametrize(
    "args, classes",
    [
        (
            ["--named", "C1", "--count", "4", "--t-max", "10"],
            {"metadata dropped": 1, "distinctness reordered": 1, "another C1 field": 6},
        ),
        (
            ["--named", "C2", "--count", "3", "--t-max", "1"],
            {"metadata dropped": 1, "distinctness reordered": 1},
        ),
    ],
    ids=["C1-count-4", "C2-count-3"],
)
def test_only_allowed_mutants_validate(tmp_path, capsys, args, classes):
    path = tmp_path / "cert.json"
    assert main(["realize", *args, "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert validate_certificate(path).ok
    valid = []
    forged = tmp_path / "mutant.json"
    for where, mutant in mutants(data):
        forged.write_text(json.dumps(mutant))
        if validate_certificate(forged).ok:
            valid.append((where, allowed_class(data, where, mutant)))
    assert [where for where, cls in valid if cls is None] == []
    assert Counter(cls for _, cls in valid) == classes
