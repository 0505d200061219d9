#!/usr/bin/env python3
"""Rebuild the cost tables in ``data/`` with the benchmark's own code.

For each ``synth-*`` workload and each sub-seed in ``range(COUNT[w])``
it builds the workload's network and stores one key (see
``workloads``):

* ``synth-first-hit``: the rank of the first observable closed loop, by
  ``reference.first_observable``; 0 when the network is observable
  already, -1 when no closed loop is observable.
* ``synth-exhaustive``: the refined bound, by ``reference.refined_bound``.
* ``synth-wide``: the same product's factors summed, the number of
  choices a per-class count enumerates.

With ``expected`` it instead rebuilds ``expected.json``: the results
lcnsyn must report for the pinned networks, for every network of each
pool at the default seed (decided by ``reference.synthesis_result``,
which walks every candidate of the NOT_SYNTHESIZABLE ones) and, per
command of the ``cli-fixtures`` loop, the exit code and report fields.

Takes a few minutes in pure Python.

Usage: python3 perfbench/make_data.py [workload ... | expected]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "tests" / "fixtures"
DEFAULT_SEED = 0
EXIT = {"SYNTHESIZED": 0, "NOT_SYNTHESIZABLE": 3, "DECISION_INCOMPLETE": 4}

COUNT = {"synth-first-hit": 3000, "synth-exhaustive": 2000, "synth-wide": 1200}


def key(workload: str, sub: int) -> int:
    net = workloads.GENERATORS[workload](sub)
    if workload == "synth-first-hit":
        if reference.observable(net):
            return 0
        rank, succ = reference.first_observable(net)
        return rank if succ is not None else -1
    if workload == "synth-exhaustive":
        return reference.refined_bound(net)
    return sum(reference.class_counts(net))


def pinned_results() -> dict:
    results = {}
    for networks in workloads.PINNED.values():
        for name, make in networks.items():
            r = reference.synthesis_result(make())
            results[name] = {"verdict": r["verdict"], "leaves": r["candidates_checked"],
                             "witness": r["witness"]}
    return results


def pool_results(workload: str, pinned: dict) -> list[dict]:
    rows = []
    for inst in workloads.build_pool(workload, DEFAULT_SEED, pinned):
        r = reference.synthesis_result(inst.net)
        if (r["verdict"], r["candidates_checked"]) != (inst.verdict, inst.leaves):
            raise SystemExit(f"{inst.name}: reference gives {r}, pool says "
                             f"{inst.verdict} after {inst.leaves}")
        rows.append({"name": inst.name, "verdict": inst.verdict, "leaves": inst.leaves,
                     "witness": r["witness"]})
    return rows


def cli_expectation(command: tuple[str, ...]) -> dict:
    sub = command[0]
    net = reference.load(json.loads((FIXTURES / command[1]).read_text()))
    if net is None:
        return {"exit": 2, "fields": {}}
    if sub == "check-controllability":
        ok = reference.controllable(net)
        return {"exit": 0 if ok else 3, "fields": {"controllable": ok}}
    if sub == "check-observability":
        ok = reference.observable(net)
        return {"exit": 0 if ok else 3, "fields": {"observable": ok}}
    if sub == "apply-feedback":
        ctrl = json.loads((FIXTURES / command[2]).read_text())
        closed = reference.apply_controller(net, ctrl)
        return {"exit": 0, "fields": {"N": closed["N"], "M": closed["M"]}}
    if sub == "synthesize":
        cap = int(command[command.index("--max-candidates") + 1]) \
            if "--max-candidates" in command else None
        r = reference.synthesis_result(net, cap)
        return {"exit": EXIT[r["verdict"]], "fields": r}
    if sub == "bounds":
        return {"exit": 0, "fields": {"naive": reference.naive_bound(net),
                                      "refined": reference.refined_bound(net),
                                      "num_factors": reference.class_counts(net)}}
    return {"exit": 0, "fields": {}}


def expected() -> dict:
    pinned = pinned_results()
    return {
        "default_seed": DEFAULT_SEED,
        "pinned": pinned,
        "pools": {w: pool_results(w, pinned) for w in workloads.STRATA},
        "cli": {" ".join(c): cli_expectation(c) for c in workloads.CLI_COMMANDS},
    }


def render(doc: dict) -> str:
    """JSON with one pinned result, pool entry or CLI command per line."""
    def obj(pairs, pad: str) -> str:
        return "{\n" + ",\n".join(f"{pad} {json.dumps(k)}: {v}" for k, v in pairs) + f"\n{pad}}}"

    def lines(values) -> str:
        return "[\n" + ",\n".join(f"   {json.dumps(v)}" for v in values) + "\n  ]"

    return obj([
        ("default_seed", json.dumps(doc["default_seed"])),
        ("pinned", obj(((k, json.dumps(v)) for k, v in doc["pinned"].items()), " ")),
        ("pools", obj(((w, lines(rows)) for w, rows in doc["pools"].items()), " ")),
        ("cli", obj(((k, json.dumps(v)) for k, v in doc["cli"].items()), " ")),
    ], "") + "\n"


def main(names: list[str]) -> None:
    if names == ["expected"]:
        (HERE / "expected.json").write_text(render(expected()))
        return
    for workload in names or COUNT:
        keys = [key(workload, sub) for sub in range(COUNT[workload])]
        doc = {"workload": workload, "sub_seeds": f"0..{COUNT[workload] - 1}", "keys": keys}
        (workloads.DATA / f"{workload}.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
