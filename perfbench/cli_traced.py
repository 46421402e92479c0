"""Run one qsts command in this fresh interpreter with the span wrappers installed.

Usage: python3 perfbench/cli_traced.py SPANS_PATH <qsts arguments...>

Times ``import qsts.cli``, installs the same wrappers as the in-process
traced run, calls ``qsts.cli.cli_dispatch`` with the arguments, writes the
spans to SPANS_PATH and exits with the command's exit code.  The command's
own stdout and stderr pass through untouched.
"""

import sys
import time

from spans import Tracer
import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qsts.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(layers.targets(), layers.counters())
    rc = 1
    try:
        with tracer.op(0):
            rc = qsts.cli.cli_dispatch(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path, meta={"import_s": import_s})
    return rc


if __name__ == "__main__":
    sys.exit(main())
