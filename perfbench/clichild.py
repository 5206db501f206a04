"""Run one htlp command with spans around the CLI's calls into each layer.

    python clichild.py OUT.json ARG...

Times `import htlp.cli` and `main(ARGS)`, wraps the layer functions the
CLI module calls (see spans.SPAN_OF), writes the timings and spans to
OUT.json and exits with main's exit code.  Nothing but `sys` and `time`
is imported before `htlp.cli`, so the import is timed as a user pays it.
"""

import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import htlp.cli as cli
    imported = time.perf_counter()

    import json
    from spans import SPAN_OF, Tracer

    tracer = Tracer()
    for name, span in SPAN_OF.items():
        if name in vars(cli):
            setattr(cli, name, tracer.wrap(span, getattr(cli, name)))
    to_theory = cli.Program.to_theory
    cli.Program.to_theory = lambda self: tracer.call("formula.to_theory", to_theory, self)

    began = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        ended = time.perf_counter()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": imported - start, "main_s": ended - began,
                       "spans": tracer.spans}, handle)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
