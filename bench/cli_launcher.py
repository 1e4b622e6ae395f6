"""Run the cubicext CLI the way the installed ``cubicext`` script does.

    PYTHONPATH=src python3 bench/cli_launcher.py [--trace] <cubicext arguments>

With --trace the package is wrapped by bench/tracing.py after its import and
before ``cubicext.cli.main`` runs; the raw per-layer summary, with the import
time as ``import_s``, goes to stderr as one line starting ``BENCHTRACE ``.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    if not (argv and argv[0] == "--trace"):
        from cubicext.cli import main as cli_main
        return cli_main(argv)
    t0 = time.perf_counter()
    import cubicext.cli
    import_s = time.perf_counter() - t0
    import json
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cubicext.cli.main(argv[1:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    sys.stdout.flush()
    print("BENCHTRACE " + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
