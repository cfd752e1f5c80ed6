"""Record a benchmark point: run perfbench several times per workload and
write the medians and quartiles of each end-to-end metric and of each
battery check's time.

    python3 tools/bench_record.py --pr <n> [--runs 5]

Run from the repository root.  Each run is one ``perfbench/run.py
--workload <w> --seed 1 --seconds <run_seconds> --trace 0`` process on
this checkout, one at a time; the workloads take turns, so that a slow
stretch of the machine spreads over all of them.  The workloads, the
end-to-end metrics and ``run_seconds`` are the ones ``BENCHMARK.json``
lists.  After each round of workloads, one ``python -m bogolib.cli
--suite all`` process runs the battery at the seed the ``suite-all``
workload uses, and each check's ``elapsed_ms`` is taken from its report.
The result goes to ``BENCH_<n>.json`` at the root, with the machine's CPU
count and the Python, numpy and bogolib versions.  A run that is not
correct, fails an operation or exits nonzero, and a battery that does not
pass, stops the recording with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
from run import batch_inputs  # noqa: E402

BATTERY_SEED = batch_inputs("suite-all", SEED)


def run_once(workload: str, seconds: float) -> dict:
    """The metrics of one perfbench run, as {name: value}."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", repr(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload}: incorrect run\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_times() -> dict:
    """Each check's elapsed_ms in one battery report, as {name: ms}."""
    argv = [sys.executable, "-m", "bogolib.cli", "--suite", "all", "--seed", str(BATTERY_SEED)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise RuntimeError(f"battery: exit {out.returncode}\n{out.stderr}")
    report = json.loads(out.stdout)
    if not report["all_passed"]:
        raise RuntimeError("battery: a check failed")
    return {check["name"]: check["elapsed_ms"] for check in report["checks"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def versions() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import bogolib
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bogolib": bogolib.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<n>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload, at least 2")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    samples: dict[str, list[dict]] = {w: [] for w in workloads}
    checks: list[dict] = []
    for i in range(args.runs):
        for w in workloads:
            samples[w].append(run_once(w, seconds))
            print(f"run {i + 1}/{args.runs} {w}", file=sys.stderr)
        checks.append(check_times())
        print(f"run {i + 1}/{args.runs} battery", file=sys.stderr)
    record = {
        "command": f"perfbench/run.py --seed {SEED} --seconds {seconds:g} --trace 0",
        "cpus": os.cpu_count(),
        **versions(),
        "workloads": {
            w: {
                name: {"unit": unit, **summarize([run[name] for run in samples[w]])}
                for name, unit in units.items()
            }
            for w in workloads
        },
        "checks_command": f"python -m bogolib.cli --suite all --seed {BATTERY_SEED}",
        "checks": {
            name: {"unit": "ms", **summarize([run[name] for run in checks])}
            for name in checks[0]
        },
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
