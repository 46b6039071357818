"""One traced ``insa`` CLI call in a fresh interpreter.

Usage: python perfbench/cli_child.py SUMMARY_JSON ARG...

Runs ``insa ARG...`` exactly as ``python -m insa.cli ARG...`` would, with
every public function of the package wrapped by the span tracer and the
whole call inside a ``cli.main`` span.  Writes the span summary and the
time ``import insa.cli`` took to SUMMARY_JSON, then exits with the CLI's
exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    summary_path, args = Path(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import insa.cli

    import_s = perf_counter() - start

    import spans

    tracer = spans.Tracer()
    code = 0
    with spans.traced(tracer):
        with tracer.span("cli.main"):
            try:
                insa.cli.main.main(args=args, prog_name="insa")
            except SystemExit as exit_:
                code = exit_.code
    sys.stdout.flush()
    summary_path.write_text(
        json.dumps({"summary": tracer.summary(), "import_s": import_s}), encoding="utf-8"
    )
    sys.exit(code)


if __name__ == "__main__":
    main()
