"""Certificate JSON: canonical emission, parsing, and validation.

The schema is text-first so certificates can be read, diffed, and
re-checked by other tools: rationals are "p/q" strings, univariate
polynomials are ascending coefficient arrays, bivariate polynomials are
arrays of arrays with the outer index the power of T, field elements are
coordinate arrays, permutations are cycle strings.  Emission is
canonical (sorted keys, fixed indentation), so equal runs produce
byte-identical files.
"""

from __future__ import annotations

import json

from .errors import SpecParseError
from .exact import (
    _is_prime,
    parse_bipoly,
    parse_rational,
    parse_unipoly,
    render_bipoly,
    render_rational,
    render_unipoly,
)
from .factor import EDF_SEED, frobenius_pattern, is_irreducible_Q
from .numfield import NumberField, composition_table
from .perm import AbstractGroup, PermGroup, parse_cycles

FORMAT_NAME = "autrealize-certificate"
FORMAT_VERSION = 2


def _render_coords(e):
    return [render_rational(c) for c in e.coords]


def certificate_to_json(cert) -> dict:
    """Build the JSON object for a RealizationCertificate."""
    state = cert.state
    audit = {}
    for event, value in cert.audit:
        audit.setdefault(event, []).append(value)
    specs = []
    accepted_by_t0 = {rec.t0: rec for rec in cert.accepted}
    for t0, status, reason in cert.transcript:
        if status == "accepted" and t0 in accepted_by_t0:
            rec = accepted_by_t0[t0]
            specs.append(
                {
                    "t0": render_rational(t0),
                    "status": "accepted",
                    "defining_polynomial": render_unipoly(rec.q0),
                    "theta_image": _render_coords(rec.theta0),
                    "automorphisms": {
                        "generator_images": [
                            _render_coords(m) for m in rec.aut.maps
                        ],
                        "table": [list(row) for row in rec.aut.group.table],
                    },
                    "witness": list(rec.witness),
                }
            )
        else:
            specs.append(
                {
                    "t0": render_rational(t0),
                    "status": "rejected",
                    "reason": reason,
                }
            )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "group": {
            "n": cert.group_n,
            "generators": list(cert.group_generators),
            "name": cert.group_name,
            "order": cert.group_order,
        },
        "pipeline": {
            "n": state.n,
            "splitting_polynomial": render_unipoly(state.L.poly),
            "field_modulus": render_unipoly(state.L.field.modulus),
            "galois_order": state.L.galois.order,
            "g_prime_order": state.Gp.order,
            "y": _render_coords(state.y),
            "y_minpoly": render_unipoly(state.y_minpoly),
            "primitive_shift": state.c,
            "q": render_bipoly(state.q),
            "family": {
                "square_class_degree": state.s3_cert.square_class_degree,
                "irreducibility_transcript": [
                    list(line) for line in state.s3_cert.irreducibility
                ],
            },
        },
        "specializations": specs,
        "distinctness": [
            {"pair": [i, j], "prime": p} for i, j, p in cert.distinctness
        ],
        "metadata": {
            "audit": audit,
            "edf_seed": hex(EDF_SEED),
        },
    }


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def emit_certificate(cert, path) -> str:
    text = dumps_canonical(certificate_to_json(cert))
    with open(path, "w") as fh:
        fh.write(text)
    return text


class ValidationReport:
    """Pass/fail lines, one per check."""

    def __init__(self):
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, ok, detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        out = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            line = f"[{mark}] {name}"
            if detail:
                line += f": {detail}"
            out.append(line)
        return out


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"cannot read certificate: {exc}") from exc


#: What a malformed field of a certificate raises while it is parsed or
#: checked; the validator reports these as failed checks.
_MALFORMED = (KeyError, SpecParseError, TypeError, ValueError, ZeroDivisionError)


def _pair(entry):
    """The (i, j) of a distinctness entry, or None if it has none."""
    pair = entry.get("pair") if isinstance(entry, dict) else None
    if isinstance(pair, list) and all(isinstance(i, int) for i in pair):
        return tuple(pair)
    return None


#: The fixed Miller-Rabin bases of ``_is_prime`` prove primality below this.
_PRIME_PROOF_BOUND = 2**64


def _separates(p, f, g):
    """True iff p is a prime, 5 <= p < _PRIME_PROOF_BOUND, at which the
    Frobenius patterns of f and g both exist and differ."""
    if not (isinstance(p, int) and 5 <= p < _PRIME_PROOF_BOUND and _is_prime(p)):
        return False
    a, b = frobenius_pattern(f, p), frobenius_pattern(g, p)
    return a is not None and b is not None and a != b


def validate_certificate(path, deep=False) -> ValidationReport:
    """Re-check a certificate file.

    Shallow checks: schema, group closure, each defining polynomial is
    the certificate's q specialized at its t0 and is irreducible,
    automorphism images are roots, table recomputes from the images and
    is a group law, witness is an isomorphism onto G, and each pair of
    accepted fields has exactly one distinctness entry whose prime
    separates their Frobenius patterns.  With ``deep``, the whole pipeline
    is re-run and compared.
    """
    report = ValidationReport()
    data = _load(path)

    schema_ok = (
        isinstance(data, dict)
        and data.get("format") == FORMAT_NAME
        and data.get("version") == FORMAT_VERSION
        and all(k in data for k in ("group", "pipeline"))
        and isinstance(data.get("specializations"), list)
        and isinstance(data.get("distinctness"), list)
    )
    report.add("schema", schema_ok)
    if not schema_ok:
        return report

    try:
        n = int(data["group"]["n"])
        gens = [parse_cycles(s, n) for s in data["group"]["generators"]]
        G = PermGroup(gens, degree=n)
        report.add(
            "group order",
            G.order == data["group"]["order"],
            f"closure has order {G.order}",
        )
    except Exception as exc:
        report.add("group order", False, str(exc))
        return report
    G_abstract = G.to_abstract()[0]

    try:
        q = parse_bipoly(data["pipeline"]["q"])
    except _MALFORMED as exc:
        report.add("pipeline q well-formed", False, str(exc))
        return report

    accepted = []
    for spec in data["specializations"]:
        if not isinstance(spec, dict):
            report.add("specialization entry is an object", False, repr(spec))
            continue
        label = f"specialization t0={spec.get('t0')}"
        if spec.get("status") != "accepted":
            report.add(f"{label} rejected entry", "reason" in spec)
            continue
        try:
            q0 = parse_unipoly(spec["defining_polynomial"], "X")
            report.add(
                f"{label} is q(t0, X)",
                q.specialize(parse_rational(spec["t0"])) == q0,
            )
            report.add(
                f"{label} irreducible",
                is_irreducible_Q(q0),
            )
            E = NumberField(q0.with_var("Z"), trusted=True)
            images = [
                E.element([parse_rational(s) for s in coords])
                for coords in spec["automorphisms"]["generator_images"]
            ]
            roots_ok = all(not E.modulus.eval(m) for m in images)
            report.add(f"{label} images are roots", roots_ok)
            table = spec["automorphisms"]["table"]
            report.add(
                f"{label} table recomputes", composition_table(images) == table
            )
            try:
                aut_group = AbstractGroup(table)
                report.add(f"{label} table is a group", True)
            except Exception as exc:
                report.add(f"{label} table is a group", False, str(exc))
                continue
            witness = spec["witness"]
            wit_ok = sorted(witness) == list(range(G.order)) and len(
                witness
            ) == aut_group.order
            if wit_ok:
                for i in range(aut_group.order):
                    for j in range(aut_group.order):
                        if (
                            witness[aut_group.mul(i, j)]
                            != G_abstract.mul(witness[i], witness[j])
                        ):
                            wit_ok = False
            report.add(f"{label} witness is an isomorphism", wit_ok)
            accepted.append(q0)
        except _MALFORMED as exc:
            report.add(f"{label} well-formed", False, str(exc))

    pairs = [_pair(d) for d in data["distinctness"]]
    want = {
        (i, j)
        for i in range(len(accepted))
        for j in range(i + 1, len(accepted))
    }
    report.add(
        "distinctness covers all pairs",
        len(pairs) == len(want) and set(pairs) == want,
        f"{len(pairs)} entries for {len(accepted)} accepted fields",
    )
    for d, pair in zip(data["distinctness"], pairs):
        if pair in want:
            p = d.get("prime")
            i, j = pair
            report.add(
                f"distinctness {list(pair)} separated",
                _separates(p, accepted[i], accepted[j]),
                f"p = {p!r}",
            )

    if deep:
        _deep_validate(data, G, report)
    return report


def _deep_validate(data, G, report):
    from .pipeline import build_state, specialize_and_verify

    try:
        state = build_state(G, int(data["pipeline"]["n"]))
    except Exception as exc:
        report.add("deep: pipeline rebuild", False, str(exc))
        return
    report.add(
        "deep: q matches",
        render_bipoly(state.q) == data["pipeline"]["q"],
    )
    for spec in data["specializations"]:
        if not isinstance(spec, dict):
            continue  # already failed by the shallow checks
        label = f"deep: t0={spec.get('t0')}"
        try:
            t0 = parse_rational(spec["t0"])
        except _MALFORMED as exc:
            report.add(f"{label} well-formed", False, str(exc))
            continue
        rec = specialize_and_verify(state, t0)
        if spec.get("status") == "accepted":
            autos = spec.get("automorphisms")
            ok = (
                rec.status == "accepted"
                and render_unipoly(rec.q0) == spec.get("defining_polynomial")
                and isinstance(autos, dict)
                and [list(r) for r in rec.aut.group.table] == autos.get("table")
            )
            report.add(f"{label} re-verifies", ok, rec.reason or "")
        else:
            report.add(
                f"{label} still rejected",
                rec.status == "rejected",
                rec.reason or "",
            )
