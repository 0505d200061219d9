#!/usr/bin/env python3
"""lcnsyn benchmark: time from a network to its verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for how each is generated and why):

* ``synth-first-hit``  -- seeded random 12-state networks plus BIG84 and
  random_network(0, 12, 4, 2); all SYNTHESIZED. Medians are pre-checks,
  the tail is the candidate sweep.
* ``synth-exhaustive`` -- NOT_SYNTHESIZABLE networks with a planted
  doomed cycle, plus random_network(146863, 14, 3, 5): the sweep does
  all the work.
* ``synth-wide``       -- 40-48 states whose first candidate is the
  witness: the candidate bounds do almost all the work.
* ``cli-fixtures``     -- ``python -m lcnsyn.cli`` processes over the test
  fixtures and all six subcommands: process start, import, files and
  report output.

Load is one closed loop in one process: the next solve starts when the
previous one returns. The loop runs whole passes over the workload's
pool until ``--seconds`` have passed, so every run weighs every pool
member equally. Correctness checks run after the timed loop, against
the benchmark's own reference code (``reference.py``), the repository's
brute-force oracles (``tests/oracles.py``) and the pinned results in
``expected.json``. Time metrics are seconds at a reference host speed,
read from calibration chunks run between the solves (``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around lcnsyn's public functions (``spantrace.py``). The last
line of standard output is the result object; the line before it gives
details (backend, tail percentile, samples, wall-clock figures).
Spans and the pool manifest go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import reference
import spantrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".perfbench"
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = ("synth-first-hit", "synth-exhaustive", "synth-wide", "cli-fixtures")
SETUP_REPEATS = {"synth-first-hit": 9, "synth-exhaustive": 9, "synth-wide": 9,
                 "cli-fixtures": 9}
#: Fewest solves per timed loop. It keeps the tail percentile on one rung
#: (p99 for first-hit, p90 elsewhere) however the pass time varies; the
#: passes that MIN_PASSES asks for already do so for the other two.
MIN_SAMPLES = {"synth-first-hit": 1000, "synth-exhaustive": 0, "synth-wide": 0,
               "cli-fixtures": 100}
#: Fewest passes, so that every item's best time is taken over several.
MIN_PASSES = 3
#: Rungs far apart, so that a run that makes one more pass stays on its rung.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
PROC_REPEATS = 7
CLI_TIMEOUT_S = 60


# --- timing ------------------------------------------------------------------

def closed_loop(items, run_one, seconds: float, min_samples: int, meter=None):
    """Solve ``items`` in order, whole passes, until ``seconds`` have passed
    and at least ``min_samples`` solves were made. Returns the samples
    ``(item index, seconds, outcome or exception)``. A ``meter``
    (``hostspeed.Meter``) runs its calibration chunks between solves."""
    samples = []
    start = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                outcome = run_one(item)
            except Exception as exc:  # a failed solve is counted, not fatal
                outcome = exc
            elapsed = time.perf_counter() - t0
            samples.append((i, elapsed, outcome))
            if meter is not None:
                meter.after(elapsed)
        if time.perf_counter() - start >= seconds and len(samples) >= min_samples:
            return samples


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    best = (50.0, statistics.median(ordered))  # too few samples for any rung
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= 10:
            best = (p, ordered[int(rank) - 1])
    return best


def end_to_end(samples, meter, setup: list[float], rss_kb: int) -> tuple[dict, dict]:
    """Time metrics at reference host speed (``hostspeed``), each solve
    counted at its pool member's mean time over the run's passes.

    The host flips between fast and slow stretches a fraction of a second
    long, so one solve of a heavy member may catch either; the member's
    mean over the passes does not, and the percentiles then rank the
    pool's networks by cost rather than the host's stretches. The
    wall-clock figures and the host speed go to the details."""
    wall = [t for _i, t, _o in samples]
    by_item: dict[int, list[float]] = {}
    for i, t, _o in samples:
        by_item.setdefault(i, []).append(t)
    f = meter.factor()
    mean = {i: statistics.fmean(ts) * f for i, ts in by_item.items()}
    times = [mean[i] for i, _t, _o in samples]
    pct, value = tail(times)
    return {
        "setup_s": statistics.median(setup),
        "solves_per_s": len(times) / sum(times),
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": value,
        "peak_rss_mb": rss_kb / 1024,
    }, {"tail_percentile": pct, "samples": len(samples), "host_speed": f,
        "calibration_chunks": len(meter.chunks),
        "wall_solves_per_s": len(wall) / sum(wall), "wall_verdict_s_p50": statistics.median(wall),
        "wall_verdict_s_tail": tail(wall)[1]}


UNITS = {
    "setup_s": "s", "solves_per_s": "1/s", "verdict_s_p50": "s", "verdict_s_tail": "s",
    "peak_rss_mb": "MB", "error_rate": "frac",
    "proc.python_start_s": "s", "proc.import_s": "s", "cli.main_self_s": "s",
    "files.load_s": "s", "files.save_s": "s", "files.calls": "count/solve",
    "analysis.is_observable_s": "s", "analysis.pair_vertices": "count/solve",
    "analysis.is_controllable_s": "s", "synthesis.output_partition_s": "s",
    "synthesis.bounds_s": "s", "synthesis.bounds_choices": "count/solve",
    "synthesis.bounds_share": "frac", "synthesis.obstruction_s": "s", "synthesis.self_s": "s",
    "kernel.sweep_s": "s", "kernel.leaves": "count/solve", "kernel.leaf_us": "us",
    "kernel.hit_ratio": "frac", "kernel.sweep_share": "frac", "feedback.apply_s": "s",
    "trace.overhead_frac": "frac",
}


# --- lcnsyn in process ---------------------------------------------------------

def fresh_import():
    """Import lcnsyn from scratch (dropping any loaded copy); return the
    modules the solves call."""
    for name in [n for n in sys.modules if n == "lcnsyn" or n.startswith("lcnsyn.")]:
        del sys.modules[name]
    return (importlib.import_module("lcnsyn.files"),
            importlib.import_module("lcnsyn.synthesis"),
            importlib.import_module("lcnsyn.kernel"))


def solver(files, synthesis, backend: str = "auto"):
    def solve(net: dict):
        report = synthesis.synthesize_observability(files.network_from_dict(net),
                                                    backend=backend)
        g = None if report.witness is None else tuple(report.witness.g)
        return report.verdict.value, report.candidates_checked, g
    return solve


# --- checks ----------------------------------------------------------------------

def oracles():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    return importlib.import_module("oracles")


def synth_error(inst: workloads.Instance, outcome, oracle) -> str | None:
    """Why ``outcome`` is not the reference result for ``inst``, or None."""
    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    verdict, checked, g = outcome
    if verdict != inst.verdict or checked != inst.leaves:
        return f"got {verdict} after {checked}, want {inst.verdict} after {inst.leaves}"
    if inst.verdict != "SYNTHESIZED":
        return None if g is None else f"unexpected witness {g}"
    if g is None or len(g) != inst.net["N"] or not all(1 <= u <= inst.net["M"] for u in g):
        return f"malformed witness {g}"
    if inst.witness is not None and g != inst.witness:
        return f"witness {g}, want {inst.witness}"
    succ = reference.closed_loop(inst.net, list(g))
    if list(g) != reference.least_inputs(inst.net, succ):
        return f"witness {g} is not the least-input controller of its map"
    if reference.candidate_rank(inst.net, succ) != inst.leaves:
        return f"witness {g} is not candidate {inst.leaves}"
    if not oracle.oracle_observable(reference.Plain(reference.closed_loop_net(inst.net, list(g)))):
        return f"closed loop of witness {g} is not observable"
    return None


def count_failures(samples, items, names, error_of) -> tuple[int, list[str]]:
    """Check every sample; identical outcomes of one item are checked once."""
    verdicts: dict = {}
    messages = []
    failed = 0
    for i, _t, outcome in samples:
        key = (i, repr(outcome))
        if key not in verdicts:
            verdicts[key] = error_of(items[i], outcome)
        if verdicts[key] is not None:
            failed += 1
            if len(messages) < 20:
                messages.append(f"{names[i]}: {verdicts[key]}")
    return failed, messages


def pool_mismatches(workload: str, seed: int, pool) -> list[str]:
    """For the default seed, the pool must be the one pinned in expected.json."""
    if seed != EXPECTED["default_seed"]:
        return []
    pinned = EXPECTED["pools"][workload]
    got = [{"name": i.name, "verdict": i.verdict, "leaves": i.leaves} for i in pool]
    want = [{k: e[k] for k in ("name", "verdict", "leaves")} for e in pinned]
    return [] if got == want else [f"{workload} pool for seed {seed} differs from expected.json"]


# --- synth-* workloads -------------------------------------------------------------

def setup_synth(workload: str, seed: int):
    """Import, generate the pool and make a first solve, several times over.
    Returns the setup times (at reference host speed) and what the last
    round built."""
    built = {}

    def round_():
        files, synthesis, kernel = fresh_import()
        pool = workloads.build_pool(workload, seed, EXPECTED["pinned"])
        solver(files, synthesis)(min(pool, key=lambda inst: inst.leaves).net)
        built.update(files=files, synthesis=synthesis, kernel=kernel, pool=pool)

    times = [hostspeed.scaled_setup(round_) for _ in range(SETUP_REPEATS[workload])]
    files, synthesis, kernel, pool = (built[k] for k in ("files", "synthesis", "kernel", "pool"))
    if seed == EXPECTED["default_seed"]:
        pinned = {e["name"]: e["witness"] for e in EXPECTED["pools"][workload]}
        pool = [inst if inst.witness is not None or pinned.get(inst.name) is None else
                dataclasses.replace(inst, witness=tuple(pinned[inst.name])) for inst in pool]
    return times, pool, files, synthesis, kernel


def run_synth(workload: str, seed: int, seconds: float, traced: bool):
    setup, pool, files, synthesis, kernel = setup_synth(workload, seed)
    mismatches = pool_mismatches(workload, seed, pool)
    # a seeded order spreads the heavy members over each pass, so that one
    # burst of host contention cannot hit all of them
    random.Random(f"{workload}/order/{seed}").shuffle(pool)
    samples, metrics, detail, tracer, overhead = measure(
        workload, [inst.net for inst in pool], solver(files, synthesis), seconds, setup,
        resource.RUSAGE_SELF, traced)
    detail.update(backend=kernel.DEFAULT_BACKEND,
                  available_backends=list(kernel.available_backends()),
                  pool=[inst.manifest() for inst in pool])
    oracle = oracles()
    failed, messages = count_failures(samples, pool, [inst.name for inst in pool],
                                      lambda inst, o: synth_error(inst, o, oracle))
    attempted = len(samples)
    # backend parity: every backend must give the same status, count and witness
    if len(kernel.available_backends()) > 1:
        for inst in pool:
            outcomes = {b: solver(files, synthesis, b)(inst.net)
                        for b in kernel.available_backends()}
            attempted += 1
            if len(set(outcomes.values())) != 1:
                failed += 1
                messages.append(f"{inst.name}: backends disagree {outcomes}")
    messages += mismatches
    return metrics, detail, attempted, failed, messages, tracer, overhead


def measure(workload: str, items, run_one, seconds: float, setup: list[float], rusage_who,
            traced: bool):
    """The timed closed loop, or with ``traced`` alternating untraced and
    traced passes. Returns the samples, the end-to-end metrics (untraced only),
    details, and the tracer and tracing overhead (traced only)."""
    if not traced:
        meter = hostspeed.Meter()
        samples = closed_loop(items, run_one, seconds,
                              max(MIN_SAMPLES[workload], MIN_PASSES * len(items)), meter)
        rss = resource.getrusage(rusage_who).ru_maxrss
        metrics, detail = end_to_end(samples, meter, setup, rss)
        return samples, metrics, detail, None, None
    # alternate untraced and traced passes, so that a drift of the host
    # speed weighs on both sides of the overhead alike
    tracer = spantrace.Tracer()
    plain, traced_samples = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) + len(traced_samples) < MIN_SAMPLES[workload]):
        plain += closed_loop(items, run_one, 0, 0)
        tracer.install()
        try:
            traced_samples += closed_loop(items, lambda item: tracer.solve(run_one, item), 0, 0)
        finally:
            tracer.uninstall()

    def one_pass(samples):  # from per-item medians
        by_item: dict[int, list[float]] = {}
        for i, t, _o in samples:
            by_item.setdefault(i, []).append(t)
        return sum(statistics.median(ts) for ts in by_item.values())

    overhead = one_pass(traced_samples) / one_pass(plain) - 1
    return plain + traced_samples, {}, {}, tracer, overhead


def per_layer(tracer, overhead: float, failed: int, attempted: int) -> dict:
    metrics = proc_metrics()
    metrics.update(spantrace.layer_metrics(tracer))
    metrics["trace.overhead_frac"] = overhead
    metrics["error_rate"] = failed / attempted
    return metrics


def proc_metrics() -> dict:
    """Bare interpreter start, and ``import lcnsyn.cli`` on top of it:
    medians of alternating runs."""
    runs: dict[str, list[float]] = {"pass": [], "import lcnsyn.cli": []}
    for _ in range(PROC_REPEATS):
        for code, times in runs.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                           timeout=CLI_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
    bare = statistics.median(runs["pass"])
    return {"proc.python_start_s": bare,
            "proc.import_s": statistics.median(runs["import lcnsyn.cli"]) - bare}


# --- cli-fixtures ------------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # warm-up fills the bytecode cache
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: The call each setup round makes once, to fill the bytecode cache.
WARM_UP = ("synthesize", "big84.json", "--out", "{out}")


def cli_argv(command: tuple[str, ...], out: Path) -> list[str]:
    return [str(out) if a == "{out}" else str(FIXTURES / a) if a.endswith(".json") else a
            for a in command]


def run_process(argv: list[str]):
    proc = subprocess.run([sys.executable, "-m", "lcnsyn.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(cli):
    def run(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return run


def cli_runner(work: Path, run):
    """Each call writes to a fresh path; the outcome is
    ``(output path, exit code, stdout, stderr)``."""
    serial = itertools.count()

    def run_one(command: tuple[str, ...]):
        out = work / f"{next(serial)}.out"
        return (out, *run(cli_argv(command, out)))
    return run_one


def parse_report(text: str) -> dict:
    """A JSON report, or ``--format text`` key/value lines."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    return {key: json.loads(val) for key, val in
            (line.split(": ", 1) for line in text.splitlines())}


def cli_error(command: tuple[str, ...], outcome) -> str | None:
    """Compare exit code and report fields with expected.json, and written
    or printed graphs, networks and controllers with the reference code."""
    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    out, code, stdout, stderr = outcome
    want = EXPECTED["cli"][" ".join(command)]
    if code != want["exit"]:
        return f"exit {code}, want {want['exit']}: {stderr.strip()[:200]}"
    if code == 2:
        return None if "error:" in stderr else "no diagnostics on stderr"
    sub = command[0]
    net = reference.load(json.loads((FIXTURES / command[1]).read_text()))
    try:
        if sub == "export-graph":
            text = out.read_text() if "--out" in command else stdout
            kind = command[command.index("--graph") + 1] if "--graph" in command else "transition"
            edges = reference.pair_edges(net) if kind == "observability" \
                else reference.transition_edges(net)
            return None if reference.dot_edges(text) == edges else "DOT edges differ"
        report = parse_report(stdout)
        for key, val in want["fields"].items():
            if report.get(key) != val:
                return f"{key} = {report.get(key)!r}, want {val!r}"
        if "--dot" in command and reference.dot_edges(out.read_text()) != reference.pair_edges(net):
            return "DOT edges differ"
        if sub == "apply-feedback":
            ctrl = json.loads((FIXTURES / command[2]).read_text())
            closed = reference.apply_controller(net, ctrl)
            written = json.loads(out.read_text())
            if any(written.get(k) != closed[k] for k in ("N", "M", "Q", "L", "H")):
                return "written network differs from the reference closed loop"
        if sub == "synthesize" and "--out" in command:
            if json.loads(out.read_text()) != {"g": want["fields"]["witness"]}:
                return "written controller differs from the witness"
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def run_cli(seed: int, seconds: float, traced: bool):
    """Setup rounds clear the work directory and run WARM_UP as a process.
    The untraced loop runs processes; the traced one calls ``cli.main`` in
    this process, so that spans can be taken."""
    work = OUT / f"cli-work-{os.getpid()}"
    try:
        def round_():
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            run_process(cli_argv(WARM_UP, work / "warm-up.out"))

        setup = [hostspeed.scaled_setup(round_) for _ in range(SETUP_REPEATS["cli-fixtures"])]
        commands = list(workloads.CLI_COMMANDS)
        random.Random(f"cli-fixtures/{seed}").shuffle(commands)
        run = in_process(importlib.import_module("lcnsyn.cli")) if traced else run_process
        samples, metrics, detail, tracer, overhead = measure(
            "cli-fixtures", commands, cli_runner(work, run), seconds, setup,
            resource.RUSAGE_CHILDREN, traced)
        failed, messages = count_failures(samples, commands, [" ".join(c) for c in commands],
                                          cli_error)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kernel = importlib.import_module("lcnsyn.kernel")  # the children's backend
    detail.update(backend=kernel.DEFAULT_BACKEND,
                  available_backends=list(kernel.available_backends()))
    return metrics, detail, len(samples), failed, messages, tracer, overhead


# --- main ------------------------------------------------------------------------

def pin_to_one_core() -> None:
    """Keep this process and its CLI children on one core, so that the
    calibration chunks read the speed of the core the solves run on."""
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lcnsyn" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: run from a checkout of the repository: {SRC / 'lcnsyn'} "
              f"or {FIXTURES} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Installed packages run from bytecode; let the warm-up write it even
    # where PYTHONDONTWRITEBYTECODE is set, so no round compiles lcnsyn.
    sys.dont_write_bytecode = False
    pin_to_one_core()
    traced = bool(args.trace)
    if args.workload == "cli-fixtures":
        result = run_cli(args.seed, args.seconds, traced)
    else:
        result = run_synth(args.workload, args.seed, args.seconds, traced)
    metrics, detail, attempted, failed, messages, tracer, overhead = result
    if traced:
        metrics = per_layer(tracer, overhead, failed, attempted)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "detail": detail, "errors": messages, "metrics": metrics}
    if tracer is not None:
        doc["spans"] = [[s.name, s.start, s.end, s.parent, s.solve] for s in tracer.spans]
    record.write_text(json.dumps(doc) + "\n")
    for line in messages:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in detail.items() if k != "pool"}))
    print(json.dumps({
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
