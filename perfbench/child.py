"""One timed process: what a user's CLI run does, through the top-level API.

    python3 child.py CONFIG OUT TIMINGS PAYLOAD [TRACE]

Imports the package, validates CONFIG, runs it and writes the result
file OUT as the CLI does.  With PAYLOAD 1 it then measures
``payload_bytes``, which costs as much as writing OUT.  It writes the
clock readings and the payload size to TIMINGS as JSON.  The readings are
``time.perf_counter`` values, which on Linux come from the system-wide
monotonic clock, so the parent can subtract its own spawn time from
them.  With TRACE, the package's layers are wrapped by ``tracer`` and
the per-layer metrics are written there.
"""

import json
import sys
import time


def main() -> None:
    cfg_path, out_path, timings_path, with_payload = sys.argv[1:5]
    trace_path = sys.argv[5] if len(sys.argv) > 5 else None
    import mfgtiming
    with open(cfg_path) as fh:
        config = json.load(fh)
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer(mfgtiming, config["task"]["kind"])
        tracer.install()
    mfgtiming.validate_config(config)
    ready = time.perf_counter()
    record = mfgtiming.run(config)
    ran = time.perf_counter()
    mfgtiming.write_output(record, out_path, "json")
    written = time.perf_counter()
    payload = len(mfgtiming.payload_bytes(record)) if with_payload == "1" else None
    measured = time.perf_counter()
    with open(timings_path, "w") as fh:
        json.dump({"ready": ready, "ran": ran, "written": written, "measured": measured,
                   "payload_bytes": payload}, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump({"metrics": tracer.metrics(), "missing": tracer.missing}, fh)


if __name__ == "__main__":
    main()
