"""Certificate JSON: canonical emission, parsing, and validation.

The schema is text-first so certificates can be read, diffed, and
re-checked by other tools: rationals are "p/q" strings, polynomials are
ascending coefficient arrays, field elements are coordinate arrays,
permutations are cycle strings.  Format version 6 carries only what
the validator checks: the group, each specialization with its proof, and
the distinctness primes.  Nothing about L, y, the shift c or the cubic
family is written, for they only explain how the search found each t0;
each defining polynomial is checked on its own, and ``deep`` rebuilds
the run that produced it.  An accepted entry lists its automorphisms in
the order of G's sorted elements, so the i-th image extends the i-th
element and no separate labelling is written.  Emission is
canonical (sorted keys, fixed indentation), so equal runs produce
byte-identical files.  The validator calls the producer's own checks,
not copies: ``factor.is_irreducible_Q`` over the record each field E
carries (``NumberField.reductions``, which distinctness reads too),
``numfield.AutomorphismTable`` (images are roots, the completeness
prime, and only then the table mod p), ``perm.check_sn_cap`` and
``perm.group_table``, ``Reductions.separates`` for distinctness, and
``pipeline.run`` for ``deep``, the one use of a producer module, which
is imported only there: shallow validation loads neither ``pipeline``
nor ``family``.
"""

from __future__ import annotations

import json
from itertools import combinations

from .errors import SpecParseError, VerificationError
from .exact import (
    parse_rational,
    parse_unipoly,
    render_rational,
    render_unipoly,
)
from .factor import is_irreducible_Q
from .numfield import AutomorphismTable, NumberField
from .perm import PermGroup, check_sn_cap, group_table, named_group, parse_cycles, render_cycles

FORMAT_NAME = "autrealize-certificate"
FORMAT_VERSION = 6


def _render_coords(e):
    return [render_rational(c) for c in e.qcoords]


def certificate_to_json(cert) -> dict:
    """Build the JSON object for a RealizationCertificate."""
    audit = {}
    for event, value in cert.audit:
        audit.setdefault(event, []).append(value)
    specs = []
    for rec in cert.transcript:
        spec = {"t0": render_rational(rec.t0), "status": rec.status}
        if rec.status == "accepted":
            spec["defining_polynomial"] = render_unipoly(rec.field.modulus)
            spec["automorphisms"] = {
                "generator_images": [_render_coords(m) for m in rec.aut.maps],
                "table": [list(row) for row in rec.aut.table],
            }
            spec["completeness_prime"] = rec.aut.prime
        else:
            spec["reason"] = rec.reason
        specs.append(spec)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "group": {
            "n": cert.state.G.degree,
            "generators": list(cert.group_generators),
            "name": cert.group_name,
            "order": cert.state.G.order,
        },
        "specializations": specs,
        "distinctness": [
            {"pair": [i, j], "prime": p} for i, j, p in cert.distinctness
        ],
        "metadata": {"audit": audit},
    }


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def emit_certificate(cert, path) -> str:
    text = dumps_canonical(certificate_to_json(cert))
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecParseError(f"cannot write certificate: {exc}") from exc
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
        return [
            f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
            for name, ok, detail in self.checks
        ]


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors, as is
    # an integer past the interpreter's digit limit; deep nesting raises
    # RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecParseError(f"cannot read certificate: {exc}") from exc


#: What a malformed field of a certificate raises while it is parsed or
#: checked; the validator reports these as failed checks.
_MALFORMED = (
    KeyError,
    SpecParseError,
    TypeError,
    ValueError,
    VerificationError,
    ZeroDivisionError,
)


def _json_int(value, what):
    """value if it is a JSON integer (a bool is not one), else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecParseError(f"{what} is not an integer: {value!r}")
    return value


def _element(E, coords):
    """The element of E with these coordinates, which must be exactly
    [E:Q] canonical rationals (the producer pads with "0")."""
    if len(coords) != E.degree:
        raise SpecParseError(f"{len(coords)} coordinates for [E:Q] = {E.degree}")
    return E.element([parse_rational(s) for s in coords])


def _pair(entry):
    """The (i, j) of a distinctness entry, or None if it has none."""
    pair = entry.get("pair") if isinstance(entry, dict) else None
    if isinstance(pair, list) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in pair
    ):
        return tuple(pair)
    return None


def validate_certificate(path, deep=False) -> ValidationReport:
    """Re-check a certificate file.

    Shallow checks: schema (the version a JSON integer), the group's
    degree an integer from 1 to the S_n cap (before any permutation is
    built), its generators in the canonical cycle notation realize
    writes, group closure, its name null or the canonical name of a
    named group (``perm.named_group``) of that degree with those
    generators, each t0 canonical, each status "accepted" or
    "rejected", each rejected entry with a non-empty reason, at least
    one accepted specialization, each defining polynomial is monic (it
    defines the field E) and irreducible, the steps of
    ``AutomorphismTable`` as it reports them
    (automorphism images are roots; ``Reductions.completeness_failure``
    passes p: it is prime and the defining polynomial is squarefree mod p
    with exactly as many roots mod p as there are images, so the images
    are all the automorphisms), the table recomputes modulo p from the
    images, which it does only when both steps pass, and is G's own
    table over its sorted elements (so the i-th image extends the i-th
    element), and each pair of accepted fields has exactly one
    distinctness entry whose prime separates their Frobenius patterns
    (``Reductions.separates``).
    With ``deep``, the certificate is rebuilt up to the largest |t0| the
    shallow checks parsed, and must equal the file; it is not rebuilt
    once a shallow check failed.
    """
    report = ValidationReport()
    data = _load(path)
    read = _check_shallow(data, report)
    if deep and report.ok:
        _deep_validate(data, *read, report)
    elif deep:
        report.add("deep: pipeline rebuild", False, "not run: a shallow check failed")
    return report


def _check_shallow(data, report):
    """Add the shallow checks of ``data`` to ``report``; (G, the largest
    ceil |t0| among the well-formed t0) once the group is read, None if
    the schema or the group fails."""
    version = data.get("version") if isinstance(data, dict) else None
    version_ok = type(version) is int and version == FORMAT_VERSION  # not 6.0
    schema_ok = (
        isinstance(data, dict)
        and data.get("format") == FORMAT_NAME
        and version_ok
        and "group" in data
        and isinstance(data.get("specializations"), list)
        and isinstance(data.get("distinctness"), list)
    )
    wrong_version = f"version {version!r}, expected {FORMAT_VERSION}"
    report.add("schema", schema_ok, "" if version_ok else wrong_version)
    if not schema_ok:
        return None

    group = data["group"]
    try:
        n = _json_int(group["n"], "group.n")
        check_sn_cap(n)  # 1 <= n <= SN_CAP, before any permutation is built
        texts = group["generators"]
        gens = [parse_cycles(s, n) for s in texts]
        if not texts or [render_cycles(g) for g in gens] != texts:
            raise SpecParseError(f"generators are not in canonical cycle notation: {texts!r}")
        G = PermGroup(gens, degree=n)
        report.add(
            "group order",
            G.order == _json_int(group["order"], "group.order"),
            f"closure has order {G.order}",
        )
    except Exception as exc:
        report.add("group order", False, str(exc))
        return None
    try:
        _check_group_name(group["name"], n, texts)
        report.add("group name", True)
    except _MALFORMED as exc:
        report.add("group name", False, str(exc))

    accepted = []
    t0s = []  # each well-formed t0, from which --deep takes its height
    for spec in data["specializations"]:
        if not isinstance(spec, dict):
            report.add("specialization entry is an object", False, repr(spec))
            continue
        label = f"specialization t0={spec.get('t0')}"
        try:
            t0s.append(parse_rational(spec["t0"]))  # must be canonical
            status = spec.get("status")
            if status not in ("accepted", "rejected"):
                raise SpecParseError(f"status is neither accepted nor rejected: {status!r}")
            if status == "rejected":
                reason = spec["reason"]
                if not (isinstance(reason, str) and reason):
                    raise SpecParseError(f"reason is not a non-empty string: {reason!r}")
                report.add(f"{label} rejected entry", True)
                continue
            q0 = parse_unipoly(spec["defining_polynomial"])
            E = NumberField(q0)
            report.add(
                f"{label} irreducible", is_irreducible_Q(q0, reductions=E.reductions)
            )
            images = [
                _element(E, coords)
                for coords in spec["automorphisms"]["generator_images"]
            ]
            aut = AutomorphismTable(E, images, prime=spec["completeness_prime"])
            for name, ok, detail in aut.checks:
                report.add(f"{label} {name}", ok, detail)
            table = [
                [_json_int(i, "table entry") for i in row]
                for row in spec["automorphisms"]["table"]
            ]
            recomputes = aut.table == table  # None unless every step passed
            report.add(f"{label} table recomputes mod p", recomputes)
            if not recomputes:
                continue
            report.add(f"{label} table is G's", table == group_table(G))
            accepted.append(E.reductions)
        except _MALFORMED as exc:
            report.add(f"{label} well-formed", False, str(exc))

    report.add(
        "at least one accepted specialization",
        bool(accepted),
        f"{len(accepted)} accepted",
    )
    pairs = [_pair(d) for d in data["distinctness"]]
    want = set(combinations(range(len(accepted)), 2))
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
                accepted[i].separates(accepted[j], p),
                f"p = {p!r}",
            )

    return G, max((-(-abs(t0.num[0]) // t0.den) for t0 in t0s), default=0)


def _check_group_name(name, n, generators):
    """Raise unless the group's name is one realize writes: null (for
    ``--gens``), or a named group's canonical spelling whose degree is n
    and whose generators, as ``realize --named`` lists them, are these.
    The degree is compared before the named group is built."""
    if name is None:
        return
    if not isinstance(name, str):
        raise SpecParseError(f"not a string: {name!r}")
    canonical, degree, expand = named_group(name)
    if name != canonical:
        raise SpecParseError(f"{name!r} is not canonical; realize writes {canonical!r}")
    if degree != n:
        raise SpecParseError(f"{name} has degree {degree}, group.n is {n}")
    named = expand()[1]
    if named != generators:
        raise SpecParseError(f"generators are not {name}'s: {named!r}")


def _differing_keys(a, b, path=""):
    """Dotted paths to the values at which two JSON values differ; lists of
    objects (specializations, distinctness) are compared entry by entry."""
    if all(isinstance(v, list) and v and isinstance(v[0], dict) for v in (a, b)):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if json.dumps(a) == json.dumps(b) else [path]
    return [
        p
        for k in sorted(a.keys() | b.keys())
        for p in _differing_keys(a.get(k), b.get(k), f"{path}.{k}".lstrip("."))
    ]


def _deep_validate(data, G, t_max, report):
    """Re-run the pipeline on the certificate's inputs up to t_max, the
    largest ceil |t0| among its well-formed t0; a run stops at its count,
    so its transcript is a prefix of t0_sequence(t_max)."""
    from .pipeline import run  # shallow validation loads no producer module

    specs = [spec for spec in data["specializations"] if isinstance(spec, dict)]
    try:
        rebuilt = run(
            G,
            count=sum(spec.get("status") == "accepted" for spec in specs),
            t_max=t_max,
            group_generators=data["group"]["generators"],
            group_name=data["group"]["name"],
        )
    except Exception as exc:
        report.add("deep: pipeline rebuild", False, str(exc))
        return
    text = dumps_canonical(certificate_to_json(rebuilt))
    differ = ", ".join(_differing_keys(json.loads(text), data))
    report.add(
        "deep: pipeline rebuild",
        text == dumps_canonical(data),
        f"differs at {differ}" if differ else "",
    )
