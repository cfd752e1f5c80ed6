"""Command-line harness: verification suites and containment experiments.

Usage patterns:

    bogolib --suite all --seed 1 --out report.json
    bogolib --group-g Z16 --group-h Z16 --delta 0.3 --seed 7 --out run.json

Exit codes: 0 all checks/verifications passed, 1 an assertion failed,
2 usage error.  The group-order ceiling defaults to 2^24 and may be set
through BOGO_CEILING (a positive order) or, for one run, ``--ceiling`` (bits).
``--word``, ``--budget`` and ``--ceiling`` apply to experiments only and are
rejected together with ``--suite``; ``--seed`` must lie in [0, 2^64), the
range seeds are derived over (``rng.derive_seed``).  Reports validate
against the JSON schema shipped at ``bogolib/schemas/report.schema.json``;
identical seeds reproduce identical reports apart from elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from importlib import resources
from typing import Optional

from .bilinear import DEFAULT_BUDGET, DEFAULT_WORD, main_theorem_experiment
from .errors import BogolibError, GroupSpecSyntaxError, GroupTooLargeError
from .groups import group_order_ceiling, make_group, parse_group_spec
from .suites import run_suite, suite_names

EXPERIMENT_CSV_COLUMNS = [
    "schema_version",
    "group_g",
    "group_h",
    "delta",
    "seed",
    "word",
    "d_size",
    "variety_size",
    "gamma_size",
    "rho",
    "progression_rank",
    "maps",
    "verified",
    "elapsed_ms",
]

SUITE_CSV_COLUMNS = ["schema_version", "suite", "seed", "check", "passed", "elapsed_ms"]


def load_report_schema() -> dict:
    with resources.files("bogolib.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _report_validator():
    """The schema is loaded and checked once per process."""
    import jsonschema

    schema = load_report_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(report: dict) -> None:
    _report_validator().validate(report)


def run_experiment(
    group_g: str,
    group_h: str,
    delta: float,
    seed: int,
    word: str = DEFAULT_WORD,
    search_budget: int = DEFAULT_BUDGET,
    ceiling: Optional[int] = None,
) -> dict:
    """One containment experiment; ``ceiling`` (an order) defaults to the
    configured group-order ceiling and bounds |G|, |H| and |G| |H|."""
    limit = group_order_ceiling() if ceiling is None else ceiling
    gx = make_group(parse_group_spec(group_g), limit)
    gy = make_group(parse_group_spec(group_h), limit)
    if gx.order * gy.order > limit:
        raise GroupTooLargeError(
            f"group too large: |G| |H| = {gx.order * gy.order} exceeds ceiling {limit}"
        )
    out = main_theorem_experiment(
        gx, gy, delta, seed, search_budget=search_budget, word=word
    )
    return out.report


def experiment_csv_row(report: dict) -> dict:
    variety = report.get("variety") or {}
    progression = variety.get("progression") or {}
    return {
        "schema_version": report["schema_version"],
        "group_g": report["group_g"],
        "group_h": report["group_h"],
        "delta": report["delta"],
        "seed": report["seed"],
        "word": report["word"],
        "d_size": report["d_size"],
        "variety_size": report["variety_size"],
        "gamma_size": len(variety.get("gamma", [])),
        "rho": variety.get("rho", ""),
        "progression_rank": len(progression.get("arms", [])),
        "maps": variety.get("maps", 0),
        "verified": report["verified"],
        "elapsed_ms": report["elapsed_ms"],
    }


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    if report.get("kind") == "suite":
        writer = csv.DictWriter(buf, fieldnames=SUITE_CSV_COLUMNS)
        writer.writeheader()
        for check in report["checks"]:
            writer.writerow(
                {
                    "schema_version": report["schema_version"],
                    "suite": report["suite"],
                    "seed": report["seed"],
                    "check": check["name"],
                    "passed": check["passed"],
                    "elapsed_ms": check["elapsed_ms"],
                }
            )
    else:
        writer = csv.DictWriter(buf, fieldnames=EXPERIMENT_CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(experiment_csv_row(report))
    return buf.getvalue()


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing reads the parser and leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bogolib",
        description="Verification suites and difference-set containment "
        "experiments over finite abelian groups.",
    )
    parser.add_argument("--suite", choices=suite_names(), help="run a named check suite")
    parser.add_argument("--group-g", help="left group spec, e.g. Z16 or Z4xZ2x Z9")
    parser.add_argument("--group-h", help="right group spec")
    parser.add_argument("--delta", type=float, help="sample density in (0, 1]")
    parser.add_argument("--word", help=f"h/v operator word (default {DEFAULT_WORD})")
    parser.add_argument("--seed", type=int, default=0, help="master seed in [0, 2^64)")
    parser.add_argument("--out", help="report file path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--ceiling", type=int, help="group-order ceiling in bits")
    parser.add_argument(
        "--budget", type=int, help=f"search/cover rounds, >= 0 (default {DEFAULT_BUDGET})"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        env_ceiling = group_order_ceiling()
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2^64)")
    try:
        if args.suite:
            for flag in ("word", "budget", "ceiling"):
                if getattr(args, flag) is not None:
                    parser.error(f"--{flag} applies to experiments, not to --suite")
            report = run_suite(args.suite, args.seed)
            passed = report["all_passed"]
        else:
            if not args.group_g or not args.group_h or args.delta is None:
                parser.error("experiment mode needs --group-g, --group-h and --delta")
            if not (0 < args.delta <= 1):
                parser.error("--delta must lie in (0, 1]")
            if args.ceiling is not None and not 0 <= args.ceiling <= 62:
                parser.error("--ceiling must lie in [0, 62] bits")
            if args.budget is not None and args.budget < 0:
                parser.error("--budget must be >= 0")
            word = DEFAULT_WORD if args.word is None else args.word
            if any(ch not in "hv" for ch in word):
                parser.error("--word may only contain h and v")
            report = run_experiment(
                args.group_g,
                args.group_h,
                args.delta,
                args.seed,
                word=word,
                search_budget=DEFAULT_BUDGET if args.budget is None else args.budget,
                ceiling=env_ceiling if args.ceiling is None else 1 << args.ceiling,
            )
            passed = report["verified"]
            if not passed:
                # (0, y0) fits under {0} whenever D meets x = 0
                print(
                    "not verified: D has no point with x = 0, and every "
                    "bilinear Bohr variety contains (0, y) for each of its rows",
                    file=sys.stderr,
                )
        validate_report(report)
    except GroupSpecSyntaxError as exc:
        parser.error(str(exc))  # exits 2
    except BogolibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = render_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
