"""Benchmark of bogolib's two user-facing jobs, driven in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Every operation goes through the public
entry point ``bogolib.cli.main(argv)``, in-process, exactly as the
``bogolib`` command would run it, with reports written to
``perfbench/.scratch``.  Workloads (closed loop, one client, no extra
threads; see README.md for why each was chosen):

- ``suite-all``: ``--suite all``, the full seeded verification battery.
  One check is one operation; every round repeats the same battery.
- ``contain-sparse``: containment experiments with short words at low
  density on Z24..Z32, where the whole search ladder runs.
- ``contain-saturated``: the default word at Z256 x Z256, where D = G x H
  and the search is bypassed.

The run repeats the fixed batch in whole rounds until ``--seconds`` have
passed (at least ``MIN_ROUNDS``), times each operation alone and reports
timings from each operation's best round.  It checks every output against
the benchmark's own recomputation outside the timed region, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` the library's layer functions are
wrapped (see spans.py) and the metrics are the per-layer ones, per round.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import below

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = BENCH_DIR / ".scratch"
SCHEMA = SRC / "bogolib" / "schemas" / "report.schema.json"

WORKLOADS = ("suite-all", "contain-sparse", "contain-saturated")
# every operation is timed at least this often; a sparse round is long
MIN_ROUNDS = {"suite-all": 2, "contain-sparse": 6, "contain-saturated": 2}
SETUP_SAMPLES = 5  # this process plus four fresh set-up processes
# highest percentile with at least ten samples beyond it; suite-all reports
# its slowest round instead (see README.md)
TAIL_PERCENTILE = {"contain-sparse": 75, "contain-saturated": 75}
# experiments of the batch whose D and variety are recomputed from scratch
DEEP_CHECKS = {"contain-sparse": 15, "contain-saturated": 4}

SPARSE_ORDERS = (24, 28, 32)
SPARSE_WORDS = ("hv", "vh", "hvh")  # single letters are left out: see CHANGES.md
SPARSE_DELTA = 0.02
SPARSE_SEEDS_PER_CELL = 5
SATURATED_ORDER = 256
SATURATED_WORD = "hvvhvhh"
SATURATED_DELTAS = (0.05, 0.1, 0.2, 0.3)
SATURATED_SEEDS_PER_CELL = 10

# fixed, seed-independent warm-up operation per workload
WARMUP = {
    "suite-all": (16, "hvvhvhh", 0.3, 0),
    "contain-sparse": (24, "hv", 0.02, 0),
    "contain-saturated": (SATURATED_ORDER, SATURATED_WORD, 0.1, 0),
}


def experiment_argv(order: int, word: str, delta: float, seed: int, out: Path) -> list[str]:
    return [
        "--group-g", f"Z{order}",
        "--group-h", f"Z{order}",
        "--delta", repr(delta),
        "--seed", str(seed),
        "--word", word,
        "--out", str(out),
    ]


def batch_inputs(workload: str, seed: int):
    """The run's fixed batch: a grid of experiment kinds with seeded seeds,
    or for suite-all the battery's seed."""
    import numpy as np

    rng = np.random.default_rng([seed])
    if workload == "suite-all":
        return int(rng.integers(0, 1 << 62))
    if workload == "contain-sparse":
        grid = [
            (n, w, SPARSE_DELTA)
            for n in SPARSE_ORDERS
            for w in SPARSE_WORDS
            for _ in range(SPARSE_SEEDS_PER_CELL)
        ]
    else:
        grid = [
            (SATURATED_ORDER, SATURATED_WORD, d)
            for d in SATURATED_DELTAS
            for _ in range(SATURATED_SEEDS_PER_CELL)
        ]
    seeds = rng.integers(0, 1 << 62, size=len(grid))
    return [(n, w, d, int(s)) for (n, w, d), s in zip(grid, seeds)]


class Bench:
    """Set-up state shared by the measured loop and the output checks."""

    def __init__(self, workload: str, seed: int):
        import jsonschema
        import numpy  # noqa: F401  (timed as part of set-up)

        sys.path.insert(0, str(SRC))
        import bogolib.cli

        self.workload = workload
        self.seed = seed
        self.cli = bogolib.cli
        SCRATCH.mkdir(exist_ok=True)
        self.report_path = SCRATCH / f"report-{workload}.json"
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.batch = batch_inputs(workload, seed)
        order, word, delta, s = WARMUP[workload]
        _elapsed, rc, text = self.call(experiment_argv(order, word, delta, s, self.report_path))
        report = json.loads(text)
        self.validator.validate(report)
        if rc != 0 or not report["verified"]:
            raise RuntimeError("warm-up experiment did not verify")

    def call(self, argv: list[str]) -> tuple[float, int, str | None]:
        """One timed call of the public entry point.

        Returns (seconds, exit code, report text); reading the report back
        is not timed.
        """
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation that raises counts as failed
            print(f"operation raised {exc!r}", file=sys.stderr)
            rc = -1
        elapsed = time.perf_counter() - start
        text = None
        if self.report_path.exists():
            text = self.report_path.read_text()
            self.report_path.unlink()
        return elapsed, rc, text


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Round:
    """Timings and outputs of one pass over the batch."""

    def __init__(self) -> None:
        self.ops: list[float] = []  # seconds per operation, batch order
        self.cells: list[int] = []  # variety size per battery experiment
        self.outputs: list[tuple[int, str | None]] = []  # (exit code, report)


def measure(bench: Bench, seconds: float, tracer=None, between_rounds=None) -> list[Round]:
    """Repeat the batch in whole rounds until ``seconds`` have passed.

    Each operation is timed alone; ``between_rounds`` runs untimed after
    each round, and the output checks run after the loop.
    """
    rounds: list[Round] = []
    restore = _observe_suite(rounds) if bench.workload == "suite-all" else None
    loop_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[bench.workload] or time.perf_counter() - loop_start < seconds:
        cur = Round()
        rounds.append(cur)
        if bench.workload == "suite-all":
            argv = ["--suite", "all", "--seed", str(bench.batch), "--out", str(bench.report_path)]
            batch = [argv]
        else:
            batch = [experiment_argv(*inp, bench.report_path) for inp in bench.batch]
        for argv in batch:
            span = tracer.open("op") if tracer else None
            elapsed, rc, text = bench.call(argv)
            if span:
                tracer.close(span)
            cur.outputs.append((rc, text))
            if bench.workload == "suite-all":
                # the checks were timed one by one; the rest is CLI overhead
                cur.ops.append(elapsed - sum(cur.ops))
            else:
                cur.ops.append(elapsed)
        if between_rounds:
            between_rounds()
    if restore:
        restore()
    return rounds


def _observe_suite(rounds: list[Round]):
    """Time each check of the battery; record its containment experiments' varieties."""
    from bogolib import suites

    def timed(fn, on_done):
        @functools.wraps(fn)  # run_suite de-duplicates checks by __name__
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            on_done(time.perf_counter() - start, out)
            return out

        return wrapper

    def check_done(elapsed, _result):
        rounds[-1].ops.append(elapsed)

    def experiment_done(_elapsed, outcome):
        rounds[-1].cells.append(outcome.report["variety_size"])

    saved_registry = {name: list(fns) for name, fns in suites.SUITES.items()}
    saved_experiment = suites.main_theorem_experiment
    wrapped = {}
    for fns in suites.SUITES.values():
        fns[:] = [wrapped.setdefault(fn, timed(fn, check_done)) for fn in fns]
    suites.main_theorem_experiment = timed(saved_experiment, experiment_done)

    def restore():
        for name, fns in saved_registry.items():
            suites.SUITES[name][:] = fns
        suites.main_theorem_experiment = saved_experiment

    return restore


def best_of_rounds(rounds: list[Round], problems: list[str]) -> list[float]:
    """Each operation's fastest repetition, in batch order."""
    if len({len(r.ops) for r in rounds}) != 1:
        problems.append("rounds ran different numbers of operations")
    return [min(times) for times in zip(*(r.ops for r in rounds))]


def check_containment(bench: Bench, rounds: list[Round]) -> tuple[int, int, list[str], int]:
    """Returns (attempted, failed, problems, variety cells of the batch)."""
    import numpy as np
    from bogolib.bilinear import (
        main_theorem_experiment,
        sample_biset,
        variety_membership_bruteforce,
    )
    from bogolib.groups import make_group

    import verify

    attempted = failed = cells = 0
    problems: list[str] = []
    deep = set(
        np.random.default_rng([bench.seed, 1]).choice(
            len(bench.batch), size=DEEP_CHECKS[bench.workload], replace=False
        ).tolist()
    )
    first = [text for _rc, text in rounds[0].outputs]
    for rnd in rounds:
        for i, (rc, text) in enumerate(rnd.outputs):
            attempted += 1
            report = json.loads(text) if text else None
            if rc != 0 or report is None or report.get("verified") is not True:
                failed += 1
            elif verify.strip_elapsed(report) != verify.strip_elapsed(json.loads(first[i])):
                problems.append(f"experiment {i}: report differs between rounds")
    for i, ((order, word, delta, s), text) in enumerate(zip(bench.batch, first)):
        report = json.loads(text) if text else None
        if report is None or report.get("verified") is not True:
            continue
        cells += report["variety_size"]
        tag = f"Z{order} {word} delta={delta} seed={s}"
        problems += [f"{tag}: schema: {e.message}" for e in bench.validator.iter_errors(report)]
        if (report["group_g"], report["delta"], report["seed"], report["word"]) != (
            f"Z{order}", delta, s, word
        ):
            problems.append(f"{tag}: report echoes other inputs")
        g = make_group([order])
        a = sample_biset(g, g, delta, s)
        if a.size != verify.expected_sample_size(report):
            problems.append(f"{tag}: |A| = {a.size}, want ceil(delta |G||H|)")
        mapped = report["variety"]["maps"] > 0
        if i not in deep and not mapped:
            continue
        d = verify.direct_difference(a.matrix, word)
        problems += [f"{tag}: {p}" for p in verify.check_experiment(report, d)]
        if mapped:
            var = main_theorem_experiment(g, g, delta, s, search_budget=6, word=word).variety
            brute = variety_membership_bruteforce(var).matrix
            problems += [f"{tag}: {p}" for p in verify.check_mapped_variety(report, brute, d)]
    return attempted, failed, problems, cells


def check_suite(bench: Bench, rounds: list[Round]) -> tuple[int, int, list[str], int]:
    import verify

    attempted = failed = 0
    problems: list[str] = []
    canonical = set()
    for rnd in rounds:
        ((rc, text),) = rnd.outputs
        attempted += len(verify.SUITE_PINNED)
        report = json.loads(text) if text else None
        if report is None:
            failed += len(verify.SUITE_PINNED)
            continue
        failed += sum(not c["passed"] for c in report["checks"])
        problems += [f"schema: {e.message}" for e in bench.validator.iter_errors(report)]
        problems += verify.check_suite_report(report)
        if rc != 0:
            problems.append(f"exit code {rc}")
        canonical.add(json.dumps(verify.strip_elapsed(report), sort_keys=True))
    if len(canonical) > 1:
        problems.append("suite reports differ between repetitions apart from elapsed_ms")
    if len({tuple(r.cells) for r in rounds}) > 1:
        problems.append("the battery's containment experiments differ between repetitions")
    return attempted, failed, problems, sum(rounds[0].cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bogolib" / "__init__.py").is_file():
        print(f"error: no bogolib sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))

    bench = Bench(args.workload, args.seed)
    setup_samples = [time.perf_counter() - T0]
    if args.setup_probe:
        print(repr(setup_samples[0]))
        return 0

    def probe():
        # spread over the run, so that the samples see different machine load
        if not args.trace and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup(args.workload, args.seed))

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    rounds = measure(bench, args.seconds, tracer, between_rounds=probe)
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.workload == "suite-all":
        attempted, failed, problems, cells = check_suite(bench, rounds)
    else:
        attempted, failed, problems, cells = check_containment(bench, rounds)
    best_ops = best_of_rounds(rounds, problems)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith(("_s", ".s")) else "count"}
            for name, value in tracer.summary(len(rounds)).items()
        }
        metrics["trace.wall_s"] = {"value": sum(best_ops), "unit": "s"}
        tracer.write(SCRATCH / f"trace-{args.workload}-{args.seed}.json")
    else:
        import numpy as np

        if args.workload == "suite-all":
            # one battery run is the experiment a user waits for
            battery_s = [sum(r.ops) for r in rounds]
            p50, tail = statistics.median(battery_s), max(battery_s)
        else:
            p50 = statistics.median(best_ops)
            tail = float(np.percentile(best_ops, TAIL_PERCENTILE[args.workload]))
        metrics = {
            "wall_s": {"value": sum(best_ops), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "exp_p50_ms": {"value": 1000 * p50, "unit": "ms"},
            "exp_tail_ms": {"value": 1000 * tail, "unit": "ms"},
            "variety_cells": {"value": cells, "unit": "count"},
        }
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(best_ops)} operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
