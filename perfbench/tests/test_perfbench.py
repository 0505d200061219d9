"""Tests of the benchmark itself: its metrics, generators, references and tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import make_data  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())
SYNTH = ("synth-first-hit", "synth-exhaustive", "synth-wide")


def run_bench(workload: str, traced: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("traced", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimum_run_emits_every_metric_with_its_unit(workload, traced):
    result = run_bench(workload, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)), (m["name"], value)
        if not traced:
            assert value > 0, m["name"]


@pytest.mark.parametrize("workload", SYNTH)
def test_pools_are_deterministic_per_seed(workload):
    def names(seed):
        return [(i.name, i.net, i.leaves) for i in
                workloads.build_pool(workload, seed, EXPECTED["pinned"])]

    assert names(3) == names(3)
    assert names(3) != names(4)


def test_default_pools_are_the_pinned_ones():
    for workload in SYNTH:
        pool = workloads.build_pool(workload, EXPECTED["default_seed"], EXPECTED["pinned"])
        assert [(i.name, i.verdict, i.leaves) for i in pool] == \
            [(e["name"], e["verdict"], e["leaves"]) for e in EXPECTED["pools"][workload]]


def test_pinned_counts_match_the_roadmap():
    pinned = EXPECTED["pinned"]
    assert pinned["BIG84"]["leaves"] == 829
    assert pinned["random_network(0, 12, 4, 2)"]["leaves"] == 22455
    assert pinned["random_network(146863, 14, 3, 5)"] == {
        "verdict": "NOT_SYNTHESIZABLE", "leaves": 129792, "witness": None}
    assert reference.refined_bound(reference.random_network(146863, 14, 3, 5)) == 129792
    assert reference.synthesis_result(workloads.BIG84) == {
        "verdict": "SYNTHESIZED", "candidates_checked": 829,
        "witness": pinned["BIG84"]["witness"]}


def test_host_speed_factor_weights_chunks_by_solve_time():
    meter = hostspeed.Meter()
    with pytest.raises(ValueError):
        meter.factor()
    meter.after(hostspeed.CAL_EVERY_S / 2)
    assert meter.chunks == []
    meter.after(hostspeed.CAL_EVERY_S / 2)
    assert len(meter.chunks) == 1 and meter.chunks[0][1] > 0
    meter.chunks = [(0.01, 0.002), (0.03, 0.004)]
    assert meter.factor() == pytest.approx(hostspeed.NOMINAL_S * 0.04 / (0.01 * 0.002 + 0.03 * 0.004))
    assert hostspeed.scaled_setup(lambda: None) >= 0


@pytest.mark.parametrize("workload", ("synth-first-hit", "synth-exhaustive"))
def test_same_top_strata_for_every_seed(workload):
    def top(seed):
        pool = workloads.build_pool(workload, seed, EXPECTED["pinned"])
        fixed = (len(workloads.PINNED[workload]) + workloads.CORE[workload]
                 + workloads.FIXED_STRATA[workload])
        return [i.name for i in pool[:fixed]], [i.name for i in pool[fixed:]]

    assert top(3)[0] == top(4)[0] == top(EXPECTED["default_seed"])[0]
    assert top(3)[1] != top(4)[1]


def test_gadget_construction_holds():
    keys = workloads.load_keys("synth-exhaustive")
    small = [sub for sub, k in enumerate(keys) if k < 1500][:3]
    for sub in small + [0, 1, 2]:
        net = workloads.gadget_network(sub)
        assert not reference.obstruction(net)
        assert 0 not in reference.class_counts(net)
        assert reference.refined_bound(net) == keys[sub]
        assert not reference.observable(net)
    for sub in small:  # every candidate of these is walked
        assert reference.first_observable(workloads.gadget_network(sub)) == (keys[sub], None)


def test_wide_construction_holds():
    for sub in range(5):
        net = workloads.wide_network(sub)
        workloads.check_wide(net)
        first = [net["L"][(x - 1) * net["M"]] for x in range(1, net["N"] + 1)]
        assert reference.first_observable(net) == (1, first)
        assert not reference.observable(net) and not reference.obstruction(net)


def test_first_hit_table_entries():
    keys = workloads.load_keys("synth-first-hit")
    for sub in range(1, 40):
        if keys[sub] < 3000:
            assert reference.first_observable(workloads.first_hit_network(sub))[0] == keys[sub]


def test_random_network_is_the_bench_backends_formula():
    import bench_backends

    for seed in (0, 5, 146863):
        lcn = bench_backends.random_network(seed, 12, 4, 2)
        net = reference.random_network(seed, 12, 4, 2)
        assert list(lcn.L.col_indices) == net["L"] and list(lcn.H.col_indices) == net["H"]


def test_reference_agrees_with_the_oracles():
    rng = random.Random(11)
    for _ in range(300):
        n, m, q = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
        net = {"N": n, "M": m, "Q": q, "L": [rng.randint(1, n) for _ in range(n * m)],
               "H": [rng.randint(1, q) for _ in range(n)]}
        plain = reference.Plain(net)
        assert reference.observable(net) == oracles.oracle_observable(plain)
        assert reference.controllable(net) == oracles.oracle_controllable(plain)
        g = [rng.randint(1, m) for _ in range(n)]
        closed = reference.closed_loop_net(net, g)
        assert reference.closed_loop_observable(closed["L"], net["H"]) == \
            oracles.oracle_observable(reference.Plain(closed))


def test_cli_expectations_come_from_the_reference():
    for command in workloads.CLI_COMMANDS:
        assert EXPECTED["cli"][" ".join(command)] == make_data.cli_expectation(command)


def traced_solves(functions=spantrace.FUNCTIONS):
    from lcnsyn import files, synthesis

    tracer = spantrace.Tracer()
    tracer.install(functions)
    try:
        for net in (workloads.BIG84, reference.random_network(3, 12, 4, 2),
                    workloads.gadget_network(0), workloads.wide_network(0)):
            tracer.solve(lambda d: synthesis.synthesize_observability(files.network_from_dict(d)),
                         net)
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_are_nonnegative_and_within_the_solve():
    tracer = traced_solves()
    own = spantrace.self_times(tracer.spans)
    assert min(own) >= 0
    for solve in range(4):
        root = next(s for s in tracer.spans if s.name == spantrace.ROOT and s.solve == solve)
        inner = sum(t for s, t in zip(tracer.spans, own)
                    if s.solve == solve and s.name != spantrace.ROOT)
        assert inner <= root.duration
    metrics = spantrace.layer_metrics(tracer)
    assert metrics["kernel.leaves"] > 0 and metrics["synthesis.bounds_choices"] > 0
    assert 0 < metrics["kernel.sweep_share"] + metrics["synthesis.bounds_share"] <= 1


def test_uninstall_restores_every_function():
    from lcnsyn import cli, synthesis

    before = (synthesis.is_observable, cli.synthesize_observability)
    traced_solves()
    assert (synthesis.is_observable, cli.synthesize_observability) == before


def test_missing_function_yields_null():
    functions = [f for f in spantrace.FUNCTIONS if f[2] != "injective_choice_count"]
    functions.append(("synthesis", "lcnsyn.synthesis", "no_longer_there"))
    functions.append(("kernel", "lcnsyn._no_such_module", "sweep_first_observable"))
    metrics = spantrace.layer_metrics(traced_solves(functions))
    assert metrics["synthesis.bounds_s"] is None
    assert metrics["synthesis.bounds_choices"] is None
    assert metrics["synthesis.bounds_share"] is None
    assert metrics["kernel.sweep_s"] is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
