"""Command-line front end.

Subcommands:

  realize   build verified realizations of a finite group and write a
            JSON certificate
  validate  re-check a certificate file

Each call is its own process, so the two subcommands are read by a
small table-driven parser (``COMMANDS``) rather than ``argparse``, whose
import (with ``gettext``) would be paid on every call.  Options take
``--opt value`` or ``--opt=value``; they are not abbreviated.
``-h``/``--help`` anywhere prints ``USAGE``.

Exit codes: 0 success, 2 parse error, 3 search budget exhausted,
4 size cap exceeded.

A process enters through :func:`run`, the ``autrealize`` console script
and ``python -m autrealize.cli`` alike.  It flushes the standard streams
after :func:`main` returns and ends the process there, skipping the
interpreter's finalization (module teardown and a last garbage
collection), which costs more than the work of a small call.  So
anything a command writes must be closed or flushed before ``main()``
returns: the certificate is written inside a ``with`` block, the package
registers no ``atexit`` handler, and a future ``--stats FILE`` must close
its file the same way.  ``main()`` itself returns its exit code and
leaves the process running, for callers in the same process.
"""

from __future__ import annotations

import os
import sys

from .certs import dumps_canonical, certificate_to_json, validate_certificate
from .errors import BudgetExhaustedError, CapExceededError, SpecParseError
from .perm import check_sn_cap, named_group, parse_generators
from .pipeline import run as pipeline_run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CAP = 4


def parse_group_spec(n, gens_text):
    """Parse ';'-separated cycle-notation generators on {1..n}; the
    caller checks n itself (``check_sn_cap``).  Every part must name a
    generator, so a stray ';' is refused rather than read as a second
    generator ``()``."""
    if n is None:
        raise SpecParseError("--n is required when --gens is used")
    parts = gens_text.split(";")
    if not all(part.strip() for part in parts):
        raise SpecParseError(f"empty generator in {gens_text!r}; the identity is ()")
    return parse_generators(parts, n)


USAGE = """\
usage: autrealize realize [--n N] [--named NAME] [--gens GENS] [--count N]
                          [--t-max H] [--out PATH]
       autrealize validate PATH [--deep]

Realize a finite group as the automorphism group of explicitly computed
number fields, with machine-checkable certificates.

realize: compute verified realizations
  --n N          degree of S_n (n <= 3)
  --named NAME   named group: S_k, C_k, A_k, V4
  --gens GENS    generators in cycle notation, ';'-separated,
                 e.g. '(1 2 3);(1 2)'
  --count N      distinct verified fields to produce (default 2)
  --t-max H      height bound for the specialization search (default 200)
  --out PATH     certificate path (default: standard output)

validate: re-check a certificate
  PATH           certificate file
  --deep         rebuild the certificate and compare

-h, --help prints this text.  Exit codes: 0 success, 2 parse or
validation error, 3 search budget exhausted, 4 size cap exceeded.
"""

#: subcommand -> (positional names, {option: (keyword, type, default)});
#: an option whose type is None is a flag and takes no value.
COMMANDS = {
    "realize": (
        (),
        {
            "--n": ("n", int, None),
            "--named": ("named", str, None),
            "--gens": ("gens", str, None),
            "--count": ("count", int, 2),
            "--t-max": ("t_max", int, 200),
            "--out": ("out", str, None),
        },
    ),
    "validate": (("path",), {"--deep": ("deep", None, False)}),
}


def parse_args(argv):
    """(subcommand, its keyword arguments) from argv; a SpecParseError
    names the first argument that does not fit.  An option's value is
    the next argument or follows '='; only an argument starting with
    '--' is taken for an option, so '--t-max -3' passes -3.  An empty
    value ('--out=' or '--out ""') is refused like a missing one."""
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "nothing"
        raise SpecParseError(f"expected a subcommand (realize or validate), got {got}")
    names, options = COMMANDS[argv[0]]
    kwargs = {key: default for key, _, default in options.values()}
    positional = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("--"):
            positional.append(arg)
            continue
        opt, eq, value = arg.partition("=")
        if opt not in options:
            raise SpecParseError(f"unknown option {opt} for {argv[0]}")
        key, kind, _ = options[opt]
        if kind is None:
            if eq:
                raise SpecParseError(f"{opt} takes no value")
            kwargs[key] = True
            continue
        if not eq:
            value = next(rest, "")
            if value.startswith("--"):  # the next option, not a value
                value = ""
        if not value:
            raise SpecParseError(f"{opt} needs a value")
        try:
            kwargs[key] = kind(value)
        except ValueError:
            raise SpecParseError(f"{opt} needs an integer, got {value!r}") from None
    if len(positional) != len(names):
        want = " ".join(n.upper() for n in names) or "no positional argument"
        raise SpecParseError(f"{argv[0]} takes {want}, got {positional}")
    kwargs.update(zip(names, positional))
    return argv[0], kwargs


def _cmd_realize(n, named, gens, count, t_max, out):
    # a named group is its generator text, read as --n and --gens are;
    # the degree is checked against the cap before any text is written
    # or group built, for either costs time in the degree
    if named is not None:
        named, degree, named_gens = named_group(named)
        if gens is not None:
            raise SpecParseError(f"--gens conflicts with --named {named}")
        if n is not None and n != degree:
            raise SpecParseError(
                f"--n {n} conflicts with --named {named} (n = {degree})"
            )
        check_sn_cap(degree)
        n, gens = degree, ";".join(named_gens)
    elif n is not None:
        check_sn_cap(n)
    if gens is None:
        raise SpecParseError(
            "no group given: use --named NAME, or --n N with --gens GENS"
        )
    G, gen_strings = parse_group_spec(n, gens)
    cert = pipeline_run(
        G,
        count=count,
        t_max=t_max,
        group_generators=gen_strings,
        group_name=named,
    )
    text = dumps_canonical(certificate_to_json(cert))
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecParseError(f"cannot write certificate: {exc}") from exc
        print(f"wrote {out}: {count} verified field(s)")
    return EXIT_OK


def _cmd_validate(path, deep):
    report = validate_certificate(path, deep=deep)
    for line in report.lines():
        print(line)
    if report.ok:
        print("certificate valid")
        return EXIT_OK
    print("certificate INVALID")
    return EXIT_PARSE


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return EXIT_OK
    try:
        command, kwargs = parse_args(argv)
        if command == "realize":
            return _cmd_realize(**kwargs)
        return _cmd_validate(**kwargs)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for rec in exc.transcript:
            print(f"  t0={rec.t0}: {rec.status}" + (f" ({rec.reason})" if rec.reason else ""), file=sys.stderr)
        return EXIT_BUDGET
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def run():
    """Process entry: main()'s exit code, after flushing what it wrote,
    without interpreter finalization.  An exception from main() or from
    a flush propagates, so the process ends the normal way, with a
    traceback and a nonzero exit code (1 for one from main())."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
