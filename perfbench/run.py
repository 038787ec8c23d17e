"""End-to-end benchmark of the BADABING reproduction.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in a process of its own
(``workloads.py``); this script measures that process's set-up time, adds a
host-noise block, prints every metric by name with its unit, and ends with
one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced second pass.
``setup_s`` and the closed loops' ``cost_ms_p50`` are scaled to a reference
host speed (``hostspeed.py``); their measured values are printed as
``named ..._measured`` lines. The
workloads, metrics and layers are described in ``BENCHMARK.json``,
``suites.py`` and ``layers.py``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_SCRIPT = HERE / "workloads.py"

#: Extra processes that only set up, so ``setup_s`` is a median; half start
#: before the workload's process and half after it ends, so that they span
#: the run.
SETUP_PROBES = 6
#: Host-speed samples of the host-noise block, before and after the run,
#: and taken before each set-up (the process takes as many once set up).
HOST_SAMPLES = 5
#: Every process of a run must end within this many seconds of its start;
#: one that is still running then is killed and the run fails.
RUN_DEADLINE_S = 170.0


def host_block() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_ms_before": hostspeed.samples(HOST_SAMPLES),
    }


def spawn(args: list, deadline: float) -> tuple:
    """Run ``workloads.py`` with ``args``; return (spawn time, parsed last line)."""
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(WORKLOAD_SCRIPT), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"workload process {args} exited with {completed.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its report and returns the result line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    host = host_block()
    common = ["--workload", workload, "--seed", str(seed)]
    setups, scaled_setups = [], []

    def set_up(args: list) -> dict:
        """Start a process; scale its set-up time by the samples taken just
        before it and by the process just after it."""
        before = hostspeed.samples(HOST_SAMPLES)
        spawned, ready = spawn([*common, *args], deadline)
        setups.append(ready["ready"] - spawned)
        scaled_setups.append(setups[-1] * hostspeed.scale(before + ready["setup_calibration_ms"]))
        return ready

    probes = 0 if trace else SETUP_PROBES
    for _ in range(probes // 2):
        set_up(["--setup-only"])
    child = set_up(["--seconds", str(seconds), "--trace", str(trace)])
    for _ in range(probes - probes // 2):
        set_up(["--setup-only"])
    host["calibration_ms_after"] = hostspeed.samples(HOST_SAMPLES)
    host["setup_s_measured_each"] = setups
    if child["calibration_ms"]:
        host["calibration_ms_run_mean"] = statistics.fmean(child["calibration_ms"])
        host["calibration_ms_run_median"] = statistics.median(child["calibration_ms"])

    if trace:
        values = child["layers"]
        wanted = spec["per_layer"]
    else:
        values = dict(child["metrics"], setup_s=statistics.median(scaled_setups))
        child["named"]["setup_s_measured"] = (statistics.median(setups), "s")
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise RuntimeError(f"{workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
    print(f"host {json.dumps(host)}")
    for problem in child["problems"]:
        print(f"problem {problem}")
    for note in child["notes"]:
        print(f"note {note}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in child["named"].items():
        print(f"named {name} {value:.6g} {unit}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"named failed_share {failed / max(1, attempted):.6g} -")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the BADABING reproduction.")
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(spec, workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{workload}.{name}": metric
                        for workload, result in results.items()
                        for name, metric in result["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
