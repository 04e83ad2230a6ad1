"""Run the qadd CLI under the benchmark's calibrated clock, optionally traced.

    python cli_child.py RESULT_JSON RUN_ID ARG...

ARGs are those of ``python -m qadd.cli``; a RUN_ID of ``-`` turns tracing off.
A one-shot timer signal, re-armed after each reference sample, cuts the run
into segments of ``SEGMENT_S``, so a CLI run of several seconds is calibrated
against the machine's speed during it, not only before and after.  In a
traced run each reference sample is a ``calibrate.reference`` span, so it is
not counted in the self time of the layer it interrupts.  Standard output and
the exit code are the CLI's own, so the payload bytes are unchanged.
RESULT_JSON receives the raw and calibrated seconds, and the spans and counts.
"""

import json
import signal
import sys

from calibrate import SEGMENT_S, CalibratedClock
from tracing import Tracer, install


def main() -> int:
    result_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None if run_id == "-" else Tracer()
    clock = CalibratedClock()

    def on_timer(signum, frame) -> None:
        sid = tracer.begin("calibrate.reference") if tracer else None
        clock.tick(force=True)
        if tracer:
            tracer.end(sid)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    signal.signal(signal.SIGALRM, on_timer)
    clock.start()
    signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
    restore = None
    try:
        if tracer:
            tracer.run_id = run_id
            sid = tracer.begin("cli.import")
        import qadd.cli

        if tracer:
            tracer.end(sid)
            restore = install(tracer)
            sid = tracer.begin("cli.main")
        code = qadd.cli.dispatch(argv)
        if tracer:
            tracer.end(sid)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if restore is not None:
            restore()
    raw, calibrated = clock.stop()
    result = {"raw_s": raw, "calibrated_s": calibrated, "spans": [], "counts": {}}
    if tracer:
        result["spans"], result["counts"] = tracer.spans, dict(tracer.counts)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
