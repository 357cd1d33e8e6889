"""Run one autrealize CLI request with tracing on and write its spans.

    python3 perfbench/traced_cli.py SPANS_JSON realize|validate ...

The request runs in this process through ``autrealize.cli.main``; spans
and counters are kept in memory and written to SPANS_JSON when it ends.
The exit code is the CLI's.
"""

import json
import sys

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import autrealize.cli

    code = autrealize.cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
