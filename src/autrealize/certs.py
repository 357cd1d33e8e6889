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
prime, and only then the table mod p), ``perm.check_sn_cap``,
``perm.parse_generators`` (the reading of ``--gens`` and ``--named``),
``perm.named_group`` and ``perm.group_table``,
``Reductions.separates`` for distinctness, and
``pipeline.run`` for ``deep``, the one use of a producer module, which
is imported only there: shallow validation loads neither ``pipeline``
nor ``family``.  The order in which realize tries t0, ``t0_sequence``,
is defined here and imported by ``pipeline``, for the validator requires
each certificate's entries to follow it.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import factorial

from .errors import SpecParseError, VerificationError
from .exact import (
    _rational,
    parse_rational,
    parse_unipoly,
    render_rational,
    render_unipoly,
)
from .factor import is_irreducible_Q
from .numfield import AutomorphismTable, NumberField
from .perm import check_sn_cap, group_table, named_group, parse_generators

FORMAT_NAME = "autrealize-certificate"
FORMAT_VERSION = 6


def t0_sequence(t_max: int):
    """0, 1, -1, 2, -2, ..., then half-integers, bounded by height: the
    order in which realize tries t0, and in which the validator requires
    a certificate to list them."""
    yield _rational(0)
    for k in range(1, t_max + 1):
        yield _rational(k)
        yield _rational(-k)
    k = 1
    while k <= 2 * t_max:
        yield _rational(k, 2)
        yield _rational(-k, 2)
        k += 2


def _height_checks(t0, n, q0, images):
    """(name, ok, detail) for the heights of q0's coefficients, at most
    n! * h(t0) + 64, and of the images' coordinates (each image a
    sequence of rationals), at most deg q0 times that.  A rational's
    height is the bit length of the larger of |numerator| and
    denominator; h(t0) is the bit length of |numerator| plus that of the
    denominator.  The coefficients of q(T, X) have T-degree at most n!,
    so q0 = q(t0, X) keeps within its bound; the images' bound is a cap,
    well above the tallest image realize has written.  realize checks
    both before it writes an entry, and the validator before any exact
    work on E."""
    bound = factorial(n) * (abs(t0.num[0]).bit_length() + t0.den.bit_length()) + 64
    coords = [c for image in images for c in image]
    for name, values, cap, rule in (
        ("height", q0.coeffs, bound, "n! * h(t0) + 64"),
        ("image heights", coords, q0.degree * bound, "deg q0 * (n! * h(t0) + 64)"),
    ):
        height = max((max(abs(c.num[0]), c.den).bit_length() for c in values), default=0)
        yield name, height <= cap, f"max height {height}, {rule} = {cap}"


def certificate_to_json(cert) -> dict:
    """Build the JSON object for a RealizationCertificate; raise
    VerificationError for an entry the validator's height checks would
    refuse."""
    audit = {}
    for event, value in cert.audit:
        audit.setdefault(event, []).append(value)
    specs = []
    for rec in cert.transcript:
        spec = {"t0": render_rational(rec.t0), "status": rec.status}
        if rec.status == "accepted":
            images = [m.qcoords for m in rec.aut.maps]
            for name, ok, detail in _height_checks(
                rec.t0, cert.state.G.degree, rec.field.modulus, images
            ):
                if not ok:
                    raise VerificationError(f"t0={spec['t0']} {name}: {detail}")
            spec["defining_polynomial"] = render_unipoly(rec.field.modulus)
            spec["automorphisms"] = {
                "generator_images": [[render_rational(c) for c in image] for image in images],
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


def _json_list(value, what):
    """value if it is a JSON array (a string is not one), else raise."""
    if not isinstance(value, list):
        raise SpecParseError(f"{what} is not an array: {value!r}")
    return value


def _coords(E, coords):
    """The rationals of a coordinate vector of E, which must be an array of
    exactly [E:Q] canonical rationals (the producer pads with "0")."""
    if len(_json_list(coords, "coordinate vector")) != E.degree:
        raise SpecParseError(f"{len(coords)} coordinates for [E:Q] = {E.degree}")
    return [parse_rational(s) for s in coords]


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
    generators (compared as text), each t0 canonical and the next value
    of ``t0_sequence(t_max)``, the order realize tries them in, for the
    t_max read off the entries (``_t_max``), each status
    "accepted" or "rejected", each rejected entry with a non-empty
    reason, at least one accepted specialization, each defining
    polynomial, image list and coordinate vector a JSON array, each
    defining polynomial monic (it defines the field E), of degree
    3 * n! (before any work on E, so that no larger one reaches
    Zassenhaus), of coefficient heights at most n! * h(t0) + 64 and
    image coordinates of heights at most deg q0 times that
    (``_height_checks``, which realize runs too) and
    irreducible, the steps of ``AutomorphismTable`` as it reports them
    (automorphism images are roots; ``Reductions.completeness_failure``
    passes p: it is prime and the defining polynomial is squarefree mod p
    with exactly as many roots mod p as there are images, so the images
    are all the automorphisms), the table recomputes modulo p from the
    images, which it does only when both steps pass, and is G's own
    table over its sorted elements (so the i-th image extends the i-th
    element), and each pair of accepted fields has exactly one
    distinctness entry whose prime separates their Frobenius patterns
    (``Reductions.separates``).  That q0 is q(t0, X) is not among them:
    only ``deep`` checks it.
    With ``deep``, the certificate is rebuilt with the same t_max, and
    must equal the file; it is not rebuilt once a shallow check failed.
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
    """Add the shallow checks of ``data`` to ``report``; (G, the t_max its
    entries' order was read against) once the group is read, None if the
    schema or the group fails."""
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
        G, canonical = parse_generators(texts, n)
        if not texts or canonical != texts:
            raise SpecParseError(f"generators are not in canonical cycle notation: {texts!r}")
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
    specs = data["specializations"]
    t_max = _t_max(specs)
    order = t0_sequence(t_max)
    for spec in specs:
        next_t0 = next(order, None)  # the t0 realize tries at this entry
        if not isinstance(spec, dict):
            report.add("specialization entry is an object", False, repr(spec))
            continue
        label = f"specialization t0={spec.get('t0')}"
        try:
            t0 = parse_rational(spec["t0"])  # must be canonical
            if t0 != next_t0:  # so no forged t0 lifts the height bounds
                listed = "nothing" if next_t0 is None else render_rational(next_t0)
                raise SpecParseError(f"out of order: t0_sequence({t_max}) lists {listed} here")
            status = spec.get("status")
            if status not in ("accepted", "rejected"):
                raise SpecParseError(f"status is neither accepted nor rejected: {status!r}")
            if status == "rejected":
                reason = spec["reason"]
                if not (isinstance(reason, str) and reason):
                    raise SpecParseError(f"reason is not a non-empty string: {reason!r}")
                report.add(f"{label} rejected entry", True)
                continue
            q0 = parse_unipoly(_json_list(spec["defining_polynomial"], "defining_polynomial"))
            E = NumberField(q0)
            # realize writes q0 of degree 3 * n! alone; checked before any
            # work on E, whose Zassenhaus recombination is exponential in
            # the degree, this bounds all of it by n's cap
            want = 3 * factorial(n)
            report.add(f"{label} degree", E.degree == want, f"deg q0 = {E.degree}, 3 * n! = {want}")
            if E.degree != want:
                continue
            images = [
                _coords(E, coords)
                for coords in _json_list(spec["automorphisms"]["generator_images"], "generator_images")
            ]
            # bound the size of every exact step on E below
            heights = list(_height_checks(t0, n, q0, images))
            for name, ok, detail in heights:
                report.add(f"{label} {name}", ok, detail)
            if not all(ok for _, ok, _ in heights):
                continue
            report.add(
                f"{label} irreducible", is_irreducible_Q(q0, reductions=E.reductions)
            )
            aut = AutomorphismTable(
                E, [E.element(c) for c in images], prime=spec["completeness_prime"]
            )
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

    return G, t_max


def _t_max(specs):
    """The t_max whose ``t0_sequence`` the entries are read against: half
    the index of the first t0 that is not an integer string, or half the
    entry count if there is none.  The sequence lists 2 * t_max + 1
    integers before its first half-integer, so the entries realize wrote
    for any height are a prefix of it."""
    texts = [spec.get("t0") if isinstance(spec, dict) else None for spec in specs]
    integers = [isinstance(t, str) and "/" not in t for t in texts]
    return (integers + [False]).index(False) // 2


def _check_group_name(name, n, generators):
    """Raise unless the group's name is one realize writes: null (for
    ``--gens``), or a named group's canonical spelling whose degree is n
    and whose generator text, as ``realize --named`` reads it, is these
    generators.  The degree is compared before any text is written."""
    if name is None:
        return
    if not isinstance(name, str):
        raise SpecParseError(f"not a string: {name!r}")
    canonical, degree, named_gens = named_group(name)
    if name != canonical:
        raise SpecParseError(f"{name!r} is not canonical; realize writes {canonical!r}")
    if degree != n:
        raise SpecParseError(f"{name} has degree {degree}, group.n is {n}")
    named = list(named_gens)
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
    height the shallow checks read the entries' order against
    (``_t_max``); a run stops at its count, so its transcript is a prefix
    of t0_sequence(t_max)."""
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
    obj = certificate_to_json(rebuilt)
    same = dumps_canonical(obj) == dumps_canonical(data)
    differ = "" if same else ", ".join(_differing_keys(obj, data))
    report.add("deep: pipeline rebuild", same, f"differs at {differ}" if differ else "")
