"""The benchmark's four workloads; each run is one process of its own.

``run.py`` starts this file once per run. The process imports the program
(that import plus one-time set-up is the ``setup_s`` the parent measures),
makes its inputs from ``--seed``, runs the workload for ``--seconds`` and
prints one JSON object as its last line of output.

With ``--trace 0`` the operations run untraced and the end-to-end metrics
come back. With ``--trace 1`` a first pass runs untraced, then the same
operations run again under :class:`layers.Tracer`; per-layer self times and
counts come back with the tracing overhead between the two passes.

The program is driven only through its public entry points:
``sweep_badabing`` (serial), ``repro.io.load_measurement`` +
``repro.io.reestimate`` and ``repro.live.runtime.live_loopback``.

``reference.json`` holds the sim cells' results for the default seed. A
change meant to alter simulated results re-records them with::

    python3 perfbench/workloads.py --workload sim_tcp --record-reference
    python3 perfbench/workloads.py --workload sim_web_faults --record-reference
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("sim_tcp", "sim_web_faults", "offline_remark", "live_loopback")
#: Host-speed samples each process takes once it is set up.
SETUP_SAMPLES = 5


def _import_program(workload: str) -> None:
    """Import what the workload's entry points need: its one-time set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (the program's array paths need it)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}")
    if workload == "offline_remark":
        import repro.io  # noqa: F401
    elif workload == "live_loopback":
        import repro.live.runtime  # noqa: F401
    else:
        import repro.experiments.runner  # noqa: F401


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--synthesize", metavar="PATH", help="write the offline trace and exit")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    _import_program(args.workload)
    ready = time.monotonic()
    sys.path.insert(0, str(HERE))
    import hostspeed

    # Host speed right after set-up, which scales this process's set-up time.
    setup_calibration = hostspeed.samples(SETUP_SAMPLES)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_calibration_ms": setup_calibration}))
        return 0
    import suites

    if args.synthesize:
        print(json.dumps(suites.synthesize_trace(args.seed, Path(args.synthesize))))
        return 0
    if args.record_reference:
        suites.record_reference(args.workload)
        return 0
    result = suites.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["ready"] = ready
    result["setup_calibration_ms"] = setup_calibration
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
