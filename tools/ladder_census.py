"""Census of the containment search's winners, batch by batch.

    python3 tools/ladder_census.py OUT.json [BEFORE.json]

Run from any directory; the library is imported from this checkout's
``src``.  Every instance's ``variety_size`` and the SHA-256 of its report
without ``elapsed_ms`` (keys sorted) go to OUT.json.  With BEFORE.json, a
census of another checkout, each batch's winners are counted as shrunk,
grown, re-described (same size, another report) or unchanged; every
instance that is not unchanged is listed, and the exit code is 1 when any
winner shrank.  The batches:

- ``planted``: the 21 planted zero sets of ``tests/oracles.py``, fed to the
  experiment in place of its sample, word ``hv``;
- ``contain-sparse``: the benchmark batch at seeds 1-3 (135 runs);
- ``contain-saturated``: the benchmark batch at seed 1 (40 runs);
- ``criterion-12``: the battery's main-theorem runs at seeds 0-2 (270);
- ``non-cyclic``: Z2^5, Z2xZ4xZ4 and Z4xZ8, G = H, words hv, vh and hvh,
  delta 0.1, seeds 0-2 (27);
- ``short-words``: Z16 with h, hh, v and vv at delta 0.05, seeds 0-39, and
  Z24 to Z32 with h and v at delta 0.02, seeds 0-9 (340);
- ``non-cyclic-gh``: G from the ten shapes of ``SHAPES`` and H from the
  first five, words h, v, hv, vh and hvh, delta 0.05 and 0.1, seeds 0-1
  (1,000).

A batch that BEFORE.json lacks is printed as having no baseline.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]

import bogolib as bg  # noqa: E402
from bogolib import bilinear, suites  # noqa: E402
from bogolib.bilinear import main_theorem_experiment  # noqa: E402
from run import batch_inputs  # noqa: E402
from tests.oracles import planted_zero_set  # noqa: E402

PLANTED = [  # (moduli, forms), each at seeds 0-2
    ([2, 2, 2, 2], 1),
    ([2, 2, 2, 2, 2], 1),
    ([3, 3, 3], 1),
    ([2, 2, 2, 2, 2], 2),
    ([3, 3, 3], 2),
    ([4, 4], 1),
    ([4, 4], 2),
]

# non-cyclic shapes of order 16-64; H is drawn from the first five
SHAPES = (
    [2, 2, 2, 2],
    [2, 2, 2, 2, 2],
    [4, 4],
    [2, 8],
    [4, 8],
    [2, 4, 4],
    [3, 3, 3],
    [2, 2, 16],
    [4, 4, 4],
    [2, 2, 2, 2, 2, 2],
)


def spec(moduli) -> str:
    return "x".join(f"Z{q}" for q in moduli)


def entry(report: dict) -> dict:
    report = {k: v for k, v in report.items() if k != "elapsed_ms"}
    text = json.dumps(report, sort_keys=True)
    return {
        "variety_size": report["variety_size"],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def experiments(instances) -> dict:
    """{key: entry} of main_theorem_experiment on (moduli, word, delta, seed)
    with G = H, or on (moduli of G, moduli of H, word, delta, seed)."""
    out = {}
    for *shapes, word, delta, seed in instances:
        gx, gy = bg.make_group(shapes[0]), bg.make_group(shapes[-1])
        key = f"{' '.join(spec(m) for m in shapes)} {word} {delta!r} {seed}"
        out[key] = entry(main_theorem_experiment(gx, gy, delta, seed, word=word).report)
    return out


def planted() -> dict:
    out = {}
    real = bilinear.sample_biset
    try:
        for moduli, forms in PLANTED:
            for seed in (0, 1, 2):
                a = planted_zero_set(moduli, forms, seed)
                bilinear.sample_biset = lambda *args, a=a: a
                g = a.group_x
                report = main_theorem_experiment(g, g, a.size / g.order**2, seed, word="hv").report
                out[f"{spec(moduli)} forms={forms} {seed}"] = entry(report)
    finally:
        bilinear.sample_biset = real
    return out


def criterion_12() -> dict:
    """Every run of check_main_theorem at seeds 0-2, in the battery's order."""
    out = {}
    real = suites.main_theorem_experiment

    def recording(gx, gy, delta, seed, **kwargs):
        res = real(gx, gy, delta, seed, **kwargs)
        out[f"{len(out)} Z{gx.order} {delta!r} {seed}"] = entry(res.report)
        return res

    suites.main_theorem_experiment = recording
    try:
        for seed in (0, 1, 2):
            suites.check_main_theorem(seed)
    finally:
        suites.main_theorem_experiment = real
    return out


def census() -> dict:
    def benchmark(workload, seeds):
        return [([n], w, d, s) for seed in seeds for n, w, d, s in batch_inputs(workload, seed)]

    short = [([16], w, 0.05, s) for w in ("h", "hh", "v", "vv") for s in range(40)]
    short += [([n], w, 0.02, s) for n in range(24, 33) for w in ("h", "v") for s in range(10)]
    non_cyclic = [
        (moduli, w, 0.1, s)
        for moduli in ([2] * 5, [2, 4, 4], [4, 8])
        for w in ("hv", "vh", "hvh")
        for s in range(3)
    ]
    non_cyclic_gh = [
        (g, h, w, d, s)
        for g in SHAPES
        for h in SHAPES[:5]
        for w in ("h", "v", "hv", "vh", "hvh")
        for d in (0.05, 0.1)
        for s in range(2)
    ]
    return {
        "planted": planted(),
        "contain-sparse": experiments(benchmark("contain-sparse", (1, 2, 3))),
        "contain-saturated": experiments(benchmark("contain-saturated", (1,))),
        "criterion-12": criterion_12(),
        "non-cyclic": experiments(non_cyclic),
        "short-words": experiments(short),
        "non-cyclic-gh": experiments(non_cyclic_gh),
    }


def compare(now: dict, before: dict) -> int:
    """Print each batch's counts and changed instances; the number of shrinks."""
    shrinks = 0
    for batch, entries in now.items():
        if batch not in before:
            print(f"{batch} ({len(entries)}): no baseline")
            continue
        counts = {"shrunk": 0, "grown": 0, "re-described": 0, "unchanged": 0}
        lines = []
        for key, e in entries.items():
            old = before[batch][key]
            if e["variety_size"] < old["variety_size"]:
                kind = "shrunk"
            elif e["variety_size"] > old["variety_size"]:
                kind = "grown"
            elif e["sha256"] != old["sha256"]:
                kind = "re-described"
            else:
                kind = "unchanged"
            counts[kind] += 1
            if kind != "unchanged":
                lines.append(f"  {kind}: {key}: {old['variety_size']} -> {e['variety_size']}")
        shrinks += counts["shrunk"]
        print(f"{batch} ({len(entries)}): " + ", ".join(f"{v} {k}" for k, v in counts.items()))
        for line in lines:
            print(line)
    return shrinks


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    now = census()
    Path(argv[0]).write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    if len(argv) == 1:
        return 0
    return 1 if compare(now, json.loads(Path(argv[1]).read_text())) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
