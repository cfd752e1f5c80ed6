"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces each
traced function of the library with a wrapper at every module binding that
refers to it (``from .x import y`` copies the reference into the importing
module, so wrapping only the defining module would undercount).  Nothing in
the library itself is changed.

Each span holds a name, start, end, parent span and optional counts.  Calls,
self times (duration minus the time covered by child spans) and counts are
derived from the span list after the run; the list is written to a file
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Optional

# (module, attribute path) of every traced function.  A class name alone
# traces its constructor; the span is named after the class.
TRACED = [
    ("groups", "is_subgroup"),
    ("groups", "bounded_span"),
    ("groups", "invariant_factors"),
    ("groups", "GroupSubset.sumset"),
    ("fourier", "quadruple_count_all"),
    ("fourier", "dft"),
    ("fourier", "bogolyubov_bohr_in_2A2A"),
    ("bohr", "bohr_size_estimate"),
    ("bohr", "large_spectrum_certify"),
    ("bohr", "weak_regular_radius_search"),
    ("bohr", "bohr_mask"),
    ("lattices", "annihilator_points"),
    ("lattices", "span_cover"),
    ("intmat", "row_hermite"),
    ("progressions", "CosetProgression"),
    ("progressions", "grow_progression_inside"),
    ("progressions", "extract_subprogression"),
    ("progressions", "popular_difference_progression"),
    ("bilinear", "iterated_difference"),
    ("bilinear", "linear_cover"),
    ("bilinear", "exhaustive_hom_finder"),
    ("bilinear", "variety_contained_in"),
    ("bilinear", "qr_property_check"),
    ("bilinear", "regularity_partition"),
    ("bilinear", "main_theorem_experiment"),
    ("quasirandom", "correlation_bound_check"),
    ("cli", "validate_report"),
    ("cli", "run_experiment"),
]

# The twelve checks of ``--suite all``, traced as ``suites.<function>``.
SUITE_CHECKS = [
    "check_main_theorem",
    "check_bohr_size_bounds",
    "check_size_formula",
    "check_large_spectrum",
    "check_bohr_sum",
    "check_dense_difference",
    "check_lattice_spanning",
    "check_quadruple_counting",
    "check_partial_projectivity",
    "check_extraction_and_basis_moves",
    "check_quasirandom_appendix",
    "check_regularity",
]


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_hooks() -> dict[str, Callable]:
    """Counts recorded on a span, from the call's arguments and result."""
    from bogolib import bilinear, lattices

    box_sig = inspect.signature(lattices.annihilator_points)
    word_sig = inspect.signature(bilinear.iterated_difference)

    def box_points(args, kwargs, result):
        k = len(_arg(box_sig, args, kwargs, "elements"))
        radius = _arg(box_sig, args, kwargs, "radius")
        # computed from the arguments: the box the call enumerates or splits
        return {"lattices.annihilator_points.box_points": (2 * radius + 1) ** k}

    return {
        "lattices.annihilator_points": box_points,
        # each letter of the word is one forward and one inverse FFT pass
        "bilinear.iterated_difference": lambda a, kw, r: {
            "bilinear.fft_passes": len(_arg(word_sig, a, kw, "word"))
        },
        "bilinear.linear_cover": lambda a, kw, r: {
            "bilinear.linear_cover.rounds": r.rounds
        },
        "bilinear.variety_contained_in": lambda a, kw, r: {
            "bilinear.variety_contained_in.accepted": int(bool(r))
        },
        "bilinear.regularity_partition": lambda a, kw, r: {
            "bilinear.regularity_partition.steps": r.steps
        },
        "bilinear.main_theorem_experiment": lambda a, kw, r: {
            "bilinear.cover_maps_won": int(
                r.variety is not None and len(r.variety.maps) > 0
            )
        },
    }


COUNT_NAMES = [
    "lattices.annihilator_points.box_points",
    "bilinear.fft_passes",
    "bilinear.linear_cover.rounds",
    "bilinear.variety_contained_in.accepted",
    "bilinear.regularity_partition.steps",
    "bilinear.cover_maps_won",
]


def span_names() -> list[str]:
    return [f"{module}.{path}" for module, path in TRACED]


class Tracer:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> list:
        rec = [
            self._name_id(name),
            time.perf_counter(),
            0.0,
            self._stack[-1] if self._stack else -1,
            None,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding in the library."""
        from bogolib import suites

        hooks = _count_hooks()
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "bogolib" or name.startswith("bogolib."))
        ]
        for module_name, path in TRACED:
            module = sys.modules[f"bogolib.{module_name}"]
            span = f"{module_name}.{path}"
            head, _, method = path.partition(".")
            if method:
                cls = getattr(module, head)
                setattr(cls, method, self.wrap(span, cls.__dict__[method], hooks.get(span)))
                continue
            orig = getattr(module, head)
            if inspect.isclass(orig):
                # constructions: every classmethod ends in cls(...) -> __init__
                orig.__init__ = self.wrap(span, orig.__init__, hooks.get(span))
                continue
            wrapped = self.wrap(span, orig, hooks.get(span))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        # run_suite iterates the registry, which holds its own references
        for fn_name in SUITE_CHECKS:
            orig = getattr(suites, fn_name)
            wrapped = self.wrap(f"suites.{fn_name}", orig)
            setattr(suites, fn_name, wrapped)
            for checks in suites.SUITES.values():
                checks[:] = [wrapped if fn is orig else fn for fn in checks]

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics from the spans, per round of the workload."""
        n = len(self.spans)
        child = [0.0] * n
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        counts: dict[str, int] = {name: 0 for name in COUNT_NAMES}
        for i, rec in enumerate(self.spans):
            name = self.names[rec[0]]
            dur = rec[2] - rec[1]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            if rec[4]:
                for key, value in rec[4].items():
                    counts[key] += value
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls.get(name, 0) / rounds
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
        for key in COUNT_NAMES:
            out[key] = counts[key] / rounds
        for fn_name in SUITE_CHECKS:
            out[f"suites.{fn_name}.s"] = total_s.get(f"suites.{fn_name}", 0.0) / rounds
        out["trace.spans"] = n / rounds
        # time inside operations, the base for each layer's share of a round
        out["trace.op_s"] = total_s.get("op", 0.0) / rounds
        return out

    def write(self, path) -> None:
        """Write the span list: names table plus [name, start, end, parent, counts]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
