"""Run ``repro service`` with the benchmark's probes installed.

Usage: ``python -m bench.service_main [--speed FILE] [--spans FILE] service
[repro service flags]``.

``--speed`` samples the :mod:`bench.speed` probe on the server's main
thread from the first line of this module on, so the samples also cover
the server's start-up.  ``--spans`` installs the :mod:`bench.trace`
wrappers before the service is built.  Then :func:`repro.cli.main` runs
unchanged.  SIGINT stops the server the usual way (``repro service``
returns on ``KeyboardInterrupt``), after which the samples and spans are
written to their files.
"""

from __future__ import annotations

import argparse
import sys

from bench.speed import SpeedProbe
from bench.trace import Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.service_main", allow_abbrev=False)
    parser.add_argument("--speed", help="write speed-probe samples here on exit")
    parser.add_argument("--spans", help="write trace spans here on exit")
    args, service_argv = parser.parse_known_args(argv)
    speed = SpeedProbe() if args.speed else None
    if speed is not None:
        speed.start()
    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(service_argv)
    finally:
        if speed is not None:
            speed.stop()
            speed.dump(args.speed)
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
