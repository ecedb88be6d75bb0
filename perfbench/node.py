"""Launch one service node for the benchmark.

    python3 perfbench/node.py [--spans FILE --role ROLE --clock-zero T] -- ARGS...

runs ``repro ARGS...`` (``serve ...`` or ``store serve ...``) from the
checkout's ``src``.  With ``--spans``, the layer wrappers of :mod:`spans`
are installed before the node starts, and its spans are written to FILE
when it stops: after ``run_server``'s drain returns, or after
``run_keyspace_server`` returns.  Both stop on SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _interrupt(signum, frame):
    # run_keyspace_server stops on KeyboardInterrupt; run_server replaces
    # this handler with its own drain once its event loop runs.
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="write this node's spans here on exit")
    parser.add_argument("--role", default="node", help="role name recorded with the spans")
    parser.add_argument("--clock-zero", type=float, default=0.0, help="monotonic zero of spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the repro CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    signal.signal(signal.SIGTERM, _interrupt)
    log = None
    if args.spans:
        import spans

        log = spans.SpanLog(args.clock_zero)
        spans.install(log)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if log is not None:
            log.dump(Path(args.spans), args.role, os.getpid())


if __name__ == "__main__":
    sys.exit(main())
