"""Spans and counters recorded around calls into the autrealize modules.

The program itself carries no instrumentation.  `install` rebinds each
traced function, in every loaded ``autrealize`` module that holds the
same function object, to a wrapper that records one span per call.
Modules import kernels by name (``from .exact import poly_gcd``), so
patching only the defining module would miss most calls.

A span is (name, start_ns, end_ns, parent, request, degree, bits):
``parent`` is the index of the enclosing span or -1, ``request`` the
request id (0 until the spans of several requests are merged), and
degree/bits the size of the call's polynomial argument (0 where the call
has none).  Spans are kept in memory and written when the request ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def timed(self, fn, label, size=None, on_result=None):
        """Wrap fn so each call records a span named label(*args) (or label)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(*args) if callable(label) else label
            degree, bits = size(*args) if size else (0, 0)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else NO_PARENT
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, 0, degree, bits)
            if on_result:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, fn, name):
        """Wrap fn so each call only bumps a counter (for hot paths)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# -- sizes of polynomial arguments ------------------------------------------


def _bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    return max((_bits(x) for x in c.coords), default=0)  # NfElement


def _coeff_bits(coeffs):
    return max((_bits(c) for c in coeffs), default=0)


def size_unipoly(f, *_):
    return f.degree, _coeff_bits(f.coeffs)


def size_bipoly(q, *_):
    return q.deg_X, max((_coeff_bits(row) for row in q.rows), default=0)


def size_interpolate(points, values, *_):
    return len(points) - 1, _coeff_bits(values)


def size_table(_self, K, maps):
    return K.degree, _coeff_bits(maps)


def _gcd_label(f, g):
    return "exact.poly_gcd.q" if f.field is None else "exact.poly_gcd.nf"


def _count_accepted(tracer, rec):
    tracer.counts["pipeline.t0_tried"] += 1
    tracer.counts["pipeline.t0_accepted"] += rec.status == "accepted"


#: (module, attribute, span label, size of the arguments, result hook).
#: Every label becomes per-layer metrics <label>.{calls,s,self_s}; labels
#: with a size function also get <label>.{max_degree,max_bits}.
FUNCTIONS = (
    ("cli", "main", "cli.main", None, None),
    ("pipeline", "realize_sn", "pipeline.realize_sn", None, None),
    ("pipeline", "compute_y", "pipeline.compute_y", None, None),
    ("pipeline", "build_E_minpoly", "pipeline.build_E_minpoly", None, None),
    ("pipeline", "specialize_and_verify", "pipeline.specialize_and_verify", None, _count_accepted),
    ("pipeline", "fields_distinct_exact", "pipeline.fields_distinct_exact", None, None),
    ("family", "bad_set", "family.bad_set", size_bipoly, None),
    ("family", "certify_s3", "family.certify_s3", None, None),
    ("exact", "poly_gcd", _gcd_label, size_unipoly, None),
    ("exact", "discriminant", "exact.discriminant", size_unipoly, None),
    ("exact", "interpolate", "exact.interpolate", size_interpolate, None),
    ("factor", "factor_over_Q", "factor.factor_over_Q", size_unipoly, None),
    ("factor", "is_irreducible_Q", "factor.is_irreducible_Q", size_unipoly, None),
    ("numfield", "roots_in_field", "numfield.roots_in_field", size_unipoly, None),
    ("numfield", "factor_over_nf", "numfield.factor_over_nf", size_unipoly, None),
    ("perm", "are_isomorphic", "perm.are_isomorphic", None, None),
    ("certs", "certificate_to_json", "certs.certificate_to_json", None, None),
    ("certs", "validate_certificate", "certs.validate_certificate", None, None),
)

#: Class methods: (module, class, method, label, size).
METHODS = (("numfield", "AutomorphismTable", "__init__", "numfield.AutomorphismTable", size_table),)

#: Hot methods that get a call counter only: (module, class, methods, counter).
COUNTED = (("numfield", "NfElement", ("__mul__", "__rmul__"), "numfield.NfElement.mul.calls"),)



def _names(label):
    return ["exact.poly_gcd.q", "exact.poly_gcd.nf"] if label is _gcd_label else [label]


def labels():
    """Every span label the tracer can produce, in report order, each
    paired with whether its calls carry a polynomial size."""
    out = [(n, size is not None) for _, _, label, size, _ in FUNCTIONS for n in _names(label)]
    return out + [(label, size is not None) for *_, label, size in METHODS]


def install(tracer):
    """Route calls of every traced function through tracer wrappers."""
    import autrealize.cli  # noqa: F401  (loads every module)

    mods = [m for n, m in sys.modules.items() if n == "autrealize" or n.startswith("autrealize.")]
    for module, attr, label, size, hook in FUNCTIONS:
        orig = getattr(sys.modules[f"autrealize.{module}"], attr)
        wrapped = tracer.timed(orig, label, size, hook)
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)
    for module, cls_name, meth, label, size in METHODS:
        cls = getattr(sys.modules[f"autrealize.{module}"], cls_name)
        setattr(cls, meth, tracer.timed(getattr(cls, meth), label, size))
    for module, cls_name, meths, counter in COUNTED:
        cls = getattr(sys.modules[f"autrealize.{module}"], cls_name)
        for meth in meths:
            setattr(cls, meth, tracer.counted(getattr(cls, meth), counter))


# -- aggregation ------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] != NO_PARENT:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def aggregate(spans, requests=None):
    """Per label: calls, inclusive seconds, self seconds, max degree/bits,
    over the spans of the given request ids (default: all).

    Inclusive time counts only the outermost span of a label on each
    path, so a function nested in itself is not counted twice; self
    times partition the traced time and are simply summed.
    """
    selfs = self_times(spans)
    agg = {}
    for i, (name, start, end, parent, req, degree, bits) in enumerate(spans):
        if requests is not None and req not in requests:
            continue
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_degree": 0, "max_bits": 0})
        a["calls"] += 1
        a["self_s"] += selfs[i] / 1e9
        a["max_degree"] = max(a["max_degree"], degree)
        a["max_bits"] = max(a["max_bits"], bits)
        p = parent
        while p != NO_PARENT and spans[p][0] != name:
            p = spans[p][3]
        if p == NO_PARENT:
            a["s"] += (end - start) / 1e9
    return agg
