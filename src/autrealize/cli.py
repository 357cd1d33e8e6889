"""Command-line front end.

Subcommands:

  realize   build verified realizations of a finite group and write a
            JSON certificate
  validate  re-check a certificate file

Exit codes: 0 success, 2 parse error, 3 search budget exhausted,
4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .certs import dumps_canonical, certificate_to_json, emit_certificate, validate_certificate
from .errors import BudgetExhaustedError, CapExceededError, SpecParseError
from .perm import PermGroup, parse_cycles, render_cycles
from .pipeline import check_sn_cap, run as pipeline_run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CAP = 4


def _parse_named(name: str):
    """(constructor, degree) of S_k, C_k, A_k or V4, read from the name
    alone; the constructor takes the degree."""
    name = name.strip()
    if name.upper() == "V4":
        return lambda n: parse_group_spec(n, "(1 2)(3 4);(1 3)(2 4)")[0], 4
    build = {
        "S": PermGroup.symmetric,
        "C": PermGroup.cyclic,
        "A": PermGroup.alternating,
    }.get(name[:1].upper())
    if build is None:
        raise SpecParseError(f"unknown named group {name!r}")
    try:
        k = int(name[1:])
    except ValueError:
        raise SpecParseError(f"unknown named group {name!r}") from None
    if k < 1:
        raise SpecParseError(f"named group index must be >= 1: {name!r}")
    return build, k


def expand_named(name: str):
    """(group, canonical generator strings) for S_k, C_k, A_k, V4."""
    build, k = _parse_named(name)
    G = build(k)
    return G, [render_cycles(g) for g in G.generators] or ["()"]


def parse_group_spec(n, gens_text):
    """Parse ';'-separated cycle-notation generators on {1..n}."""
    if n is None:
        raise SpecParseError("--n is required when --gens is used")
    if n < 1:
        raise SpecParseError(f"n must be >= 1, got {n}")
    if gens_text is None or not gens_text.strip():
        raise SpecParseError("empty group specification")
    gens = []
    for part in gens_text.split(";"):
        gens.append(parse_cycles(part, n))
    return PermGroup(gens, degree=n), [render_cycles(g) for g in gens]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="autrealize",
        description=(
            "Realize a finite group as the automorphism group of explicitly "
            "computed number fields, with machine-checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_realize = sub.add_parser("realize", help="compute verified realizations")
    p_realize.add_argument("--n", type=int, default=None, help="degree of S_n (n <= 3)")
    p_realize.add_argument(
        "--named", default=None, help="named group: S_k, C_k, A_k, V4"
    )
    p_realize.add_argument(
        "--gens",
        default=None,
        help="generators in cycle notation, ';'-separated, e.g. '(1 2 3);(1 2)'",
    )
    p_realize.add_argument("--count", type=int, default=2)
    p_realize.add_argument("--t-max", type=int, default=200)
    p_realize.add_argument("--out", default=None, help="certificate path")

    p_validate = sub.add_parser("validate", help="re-check a certificate")
    p_validate.add_argument("path")
    p_validate.add_argument(
        "--deep", action="store_true", help="rebuild the certificate and compare"
    )
    return parser


def _cmd_realize(args):
    # the degree is checked against the cap before the group is built:
    # closing a large group costs seconds and would be refused anyway
    if args.named is not None:
        degree = _parse_named(args.named)[1]
        if args.gens is not None:
            raise SpecParseError(f"--gens conflicts with --named {args.named}")
        if args.n is not None and args.n != degree:
            raise SpecParseError(
                f"--n {args.n} conflicts with --named {args.named} (n = {degree})"
            )
        check_sn_cap(degree)
        G, gen_strings = expand_named(args.named)
        name = args.named
    else:
        if args.n is not None:
            check_sn_cap(args.n)
        G, gen_strings = parse_group_spec(args.n, args.gens)
        name = None
    cert = pipeline_run(
        G,
        G.degree,
        count=args.count,
        t_max=args.t_max,
        group_generators=gen_strings,
        group_name=name,
    )
    if args.out:
        emit_certificate(cert, args.out)
        print(f"wrote {args.out}: {len(cert.accepted)} verified field(s)")
    else:
        sys.stdout.write(dumps_canonical(certificate_to_json(cert)))
    return EXIT_OK


def _cmd_validate(args):
    report = validate_certificate(args.path, deep=args.deep)
    for line in report.lines():
        print(line)
    if report.ok:
        print("certificate valid")
        return EXIT_OK
    print("certificate INVALID")
    return EXIT_PARSE


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "realize":
            return _cmd_realize(args)
        return _cmd_validate(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for t0, status, reason in exc.transcript:
            print(f"  t0={t0}: {status}" + (f" ({reason})" if reason else ""), file=sys.stderr)
        return EXIT_BUDGET
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
