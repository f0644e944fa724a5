"""One boundlab process of the benchmark.

    python3 bench/child.py probe <setup_file>
    python3 bench/child.py plain <setup_file> <boundlab argv...>
    python3 bench/child.py trace <setup_file> <trace_file> <boundlab argv...>

The parent puts its CLOCK_MONOTONIC spawn time (ns) in ``BENCH_SPAWN_NS``
and ``<checkout>/src`` on ``PYTHONPATH``.  Every mode writes the set-up time
(interpreter start plus ``import boundlab.cli``) to ``setup_file``.  ``probe``
stops there; ``plain`` runs ``boundlab.cli.main(argv)`` untouched; ``trace``
runs it with the wrappers of ``tracer.py`` installed and writes the span
tables to ``trace_file``.  The exit status is the CLI's.
"""

import json
import os
import sys
import time


def _write_json(path, obj):
    with open(path, "w") as out:
        json.dump(obj, out)


def _traced_main(trace_file, argv):
    import boundlab.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        status = boundlab.cli.main(argv)
    finally:
        tracer.uninstall()
    _write_json(trace_file, tracer.table())
    return status


def main():
    import boundlab.cli

    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(os.environ["BENCH_SPAWN_NS"])) / 1e9
    mode, setup_file = sys.argv[1], sys.argv[2]
    loaded_from = os.path.dirname(os.path.dirname(os.path.abspath(boundlab.cli.__file__)))
    if loaded_from != os.environ["BENCH_EXPECTED_SRC"]:
        print(f"boundlab was imported from {loaded_from}, not the checkout", file=sys.stderr)
        return 97
    _write_json(setup_file, {"setup_s": setup_s})
    if mode == "probe":
        return 0
    if mode == "plain":
        return boundlab.cli.main(sys.argv[3:])
    if mode == "trace":
        return _traced_main(sys.argv[3], sys.argv[4:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
