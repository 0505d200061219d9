"""Per-module spans timed from outside lcnsyn.

``Tracer.install`` replaces each listed public function, wherever an
``lcnsyn.*`` module namespace binds it, with a wrapper that records a
span: name, start, end, parent span and solve id. Calls that go through
a module global (``synthesis.is_observable``, ``cli.synthesize_observability``,
``impl.sweep_first_observable``) therefore all show up, and nested
calls become child spans. Spans stay in memory; ``uninstall`` restores
the originals.

A function listed in ``FUNCTIONS`` that the installed lcnsyn no longer
has is skipped, and every metric built on it reads ``None``.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

#: (layer, defining module, function). The kernel layer is the sweep in
#: whichever backend module ``kernel.get_backend`` returns.
FUNCTIONS = (
    ("cli", "lcnsyn.cli", "main"),
    ("files", "lcnsyn.files", "load_network"),
    ("files", "lcnsyn.files", "network_from_dict"),
    ("files", "lcnsyn.files", "load_controller"),
    ("files", "lcnsyn.files", "save_network"),
    ("files", "lcnsyn.files", "save_controller"),
    ("analysis", "lcnsyn.analysis", "is_observable"),
    ("analysis", "lcnsyn.analysis", "is_controllable"),
    ("analysis", "lcnsyn.analysis", "observability_graph"),
    ("analysis", "lcnsyn.analysis", "transition_graph"),
    ("analysis", "lcnsyn.analysis", "export_dot"),
    ("synthesis", "lcnsyn.synthesis", "synthesize_observability"),
    ("synthesis", "lcnsyn.synthesis", "output_partition"),
    ("synthesis", "lcnsyn.synthesis", "injective_choice_count"),
    ("synthesis", "lcnsyn.synthesis", "candidate_bounds"),
    ("synthesis", "lcnsyn.synthesis", "structural_obstruction"),
    ("synthesis", "lcnsyn.synthesis", "find_zero_choice_class"),
    ("kernel", "lcnsyn._kernel_py", "sweep_first_observable"),
    ("kernel", "lcnsyn._kernel_cy", "sweep_first_observable"),
    ("feedback", "lcnsyn.feedback", "apply_feedback"),
)

#: Count taken from a function's return value: name -> (counter, extractor).
COUNTERS = {
    "observability_graph": (("analysis.pair_vertices", lambda r: len(r.vertices)),),
    "injective_choice_count": (("synthesis.bounds_choices", lambda r: r),),
    "sweep_first_observable": (("kernel.leaves", lambda r: r[1]),
                               ("kernel.witnesses", lambda r: int(r[0] == 0))),
}

ROOT = "solve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    solve: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()  # short names of wrapped functions
        self._stack: list[int] = []
        self._solve = -1
        self._patched: list[tuple[object, str, object]] = []

    def install(self, functions=FUNCTIONS) -> None:
        homes = {}
        for _layer, home, _fname in functions:
            try:
                homes[home] = importlib.import_module(home)
            except ImportError:  # e.g. the compiled kernel is not built
                homes[home] = None
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "lcnsyn" or name.startswith("lcnsyn."))]
        for layer, home, fname in functions:
            target = getattr(homes[home], fname, None)
            if target is None:
                continue
            wrapper = self._wrap(f"{layer}.{fname}", fname, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            self.installed.add(fname)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, span_name: str, fname: str, fn):
        counters = COUNTERS.get(fname, ())

        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for counter, extract in counters:
                self.counts[counter] = self.counts.get(counter, 0) + extract(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._solve))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def solve(self, fn, *args):
        """Run one solve under a root span."""
        self._solve += 1
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-solve means (seconds, counts) and shares of the traced solve time."""
    spans = tracer.spans
    own = self_times(spans)
    solves = sum(1 for s in spans if s.name == ROOT)
    total = sum(s.duration for s in spans if s.name == ROOT)
    have = tracer.installed

    def need(*fnames):
        return all(f in have for f in fnames)

    def inclusive(*names):
        return sum(s.duration for s in spans if s.name in names)

    def self_of(pred):
        return sum(t for s, t in zip(spans, own) if pred(s.name))

    def per_solve(value, *fnames):
        return value / solves if need(*fnames) and solves else None

    count = tracer.counts.get
    sweep = inclusive("kernel.sweep_first_observable")
    leaves = count("kernel.leaves", 0)
    bounds = inclusive("synthesis.injective_choice_count")
    named = ("synthesis.output_partition", "synthesis.injective_choice_count",
             "synthesis.structural_obstruction")
    file_calls = sum(1 for s in spans if s.name.startswith("files.")
                     and not (s.parent >= 0 and spans[s.parent].name.startswith("files.")))
    has_sweep = need("sweep_first_observable")
    return {
        "cli.main_self_s": per_solve(self_of(lambda n: n.startswith("cli.")), "main"),
        "files.load_s": per_solve(self_of(lambda n: n in (
            "files.load_network", "files.network_from_dict", "files.load_controller")),
            "load_network", "network_from_dict", "load_controller"),
        "files.save_s": per_solve(self_of(lambda n: n in (
            "files.save_network", "files.save_controller")), "save_network", "save_controller"),
        "files.calls": per_solve(file_calls, "load_network", "network_from_dict"),
        "analysis.is_observable_s": per_solve(inclusive("analysis.is_observable"), "is_observable"),
        "analysis.pair_vertices": per_solve(count("analysis.pair_vertices", 0),
                                            "observability_graph"),
        "analysis.is_controllable_s": per_solve(inclusive("analysis.is_controllable"),
                                                "is_controllable"),
        "synthesis.output_partition_s": per_solve(inclusive("synthesis.output_partition"),
                                                  "output_partition"),
        "synthesis.bounds_s": per_solve(bounds, "injective_choice_count"),
        "synthesis.bounds_choices": per_solve(count("synthesis.bounds_choices", 0),
                                              "injective_choice_count"),
        "synthesis.bounds_share": bounds / total if need("injective_choice_count") and total
        else None,
        "synthesis.obstruction_s": per_solve(inclusive("synthesis.structural_obstruction"),
                                             "structural_obstruction"),
        "synthesis.self_s": per_solve(self_of(lambda n: n.startswith("synthesis.")
                                              and n not in named), "synthesize_observability"),
        "kernel.sweep_s": per_solve(sweep, "sweep_first_observable"),
        "kernel.leaves": per_solve(leaves, "sweep_first_observable"),
        "kernel.leaf_us": (sweep / leaves * 1e6 if leaves else 0.0) if has_sweep else None,
        "kernel.hit_ratio": (count("kernel.witnesses", 0) / leaves if leaves else 0.0)
        if has_sweep else None,
        "kernel.sweep_share": sweep / total if has_sweep and total else None,
        "feedback.apply_s": per_solve(inclusive("feedback.apply_feedback"), "apply_feedback"),
    }
