"""Command-line front end.

Subcommands: check-controllability, check-observability, apply-feedback,
synthesize, bounds, export-graph. Exit codes are a total function of the
verdict: 0 affirmative, 3 negative verdict, 2 input error, 4 decision
incomplete (candidate cap hit). Reports default to JSON (``--format
structured``); ``--format text`` prints key/value lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

from . import files
from .analysis import (
    DIAG,
    _pair_name,
    export_dot,
    is_controllable,
    observability_graph,
    transition_graph,
)
from .feedback import apply_feedback
from .stp import MatrixSizeError
from .synthesis import Verdict, _Problem, synthesize_observability

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NEGATIVE = 3
EXIT_INCOMPLETE = 4


def _vertex_doc(v):
    return "DIAG" if v is DIAG else list(v)


def _print_report(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2))
        return
    for key, val in doc.items():
        print(f"{key}: {json.dumps(val)}")


def _obs_witness_doc(witness):
    if witness is None:
        return None
    return {
        "pair": list(witness.pair),
        "path": [_vertex_doc(v) for v in witness.path],
        "cycle_entry": _vertex_doc(witness.cycle_entry),
    }


def _obs_witness_text(witness, lcn) -> str:
    path = list(witness.path)
    entry = witness.cycle_entry
    # DIAG always loops; a pair loops when some input maps it onto itself
    if entry is DIAG or any({lcn.step(entry[0], u), lcn.step(entry[1], u)} == set(entry)
                            for u in range(1, lcn.input_dim + 1)):
        path.append(entry)
    return " -> ".join(_pair_name(v, v is not DIAG and max(v) > 9) for v in path)


def _load_network(path):
    try:
        return files.load_network(path)
    except files.FileFormatError as exc:
        for line in exc.violations:
            print(f"error: {line}", file=sys.stderr)
        return None


def cmd_check_controllability(args) -> int:
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    result = is_controllable(lcn)
    doc = {
        "controllable": result.controllable,
        "witness": None
        if result.witness is None
        else {"source": result.witness[0], "target": result.witness[1]},
        "adjacency": transition_graph(lcn).adjacency.to_rows(),
    }
    _print_report(doc, args.format)
    return EXIT_OK if result.controllable else EXIT_NEGATIVE


def cmd_check_observability(args) -> int:
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    graph = observability_graph(lcn)  # one pair graph for the verdict and the DOT text
    result = graph._decide()
    doc = {"observable": result.observable, "witness": _obs_witness_doc(result.witness)}
    if result.witness is not None and args.format == "text":
        doc["witness_path"] = _obs_witness_text(result.witness, lcn)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(graph))
    _print_report(doc, args.format)
    return EXIT_OK if result.observable else EXIT_NEGATIVE


def cmd_apply_feedback(args) -> int:
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    try:
        ctrl = files.load_controller(args.controller, lcn.input_dim)
        closed = apply_feedback(lcn, ctrl)
    except (files.FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    files.save_network(closed, args.out)
    _print_report({"out": args.out, "N": closed.state_dim, "M": closed.input_dim},
                  args.format)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    if args.max_candidates is not None and args.max_candidates < 0:
        print(f"error: --max-candidates must be non-negative, got {args.max_candidates}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    report = synthesize_observability(lcn, max_candidates=args.max_candidates)
    doc = {
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else list(report.witness.g),
        "already_observable": report.already_observable,
        "naive_bound": report.naive_bound,
        "refined_bound": report.refined_bound,
        "num_factors": list(report.num_factors),
        "candidates_checked": report.candidates_checked,
        "pruned_by": dict(report.pruned_by),
        "obstruction": None
        if report.obstruction is None
        else {
            "kind": report.obstruction.kind,
            "states": [report.obstruction.j, report.obstruction.k],
            "target": report.obstruction.target,
        },
        "zero_choice_class": report.zero_choice_class,
    }
    if report.verdict is Verdict.SYNTHESIZED and args.out:
        files.save_controller(report.witness, args.out)
    _print_report(doc, args.format)
    if report.verdict is Verdict.SYNTHESIZED:
        return EXIT_OK
    if report.verdict is Verdict.DECISION_INCOMPLETE:
        return EXIT_INCOMPLETE
    return EXIT_NEGATIVE


def cmd_bounds(args) -> int:
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    problem = _Problem(lcn)
    nums = problem.class_counts()
    _print_report({"naive": problem.naive, "refined": prod(nums), "num_factors": list(nums)},
                  args.format)
    return EXIT_OK


def cmd_export_graph(args) -> int:
    lcn = _load_network(args.network)
    if lcn is None:
        return EXIT_INPUT_ERROR
    graph = transition_graph(lcn) if args.graph == "transition" else observability_graph(lcn)
    text = export_dot(graph)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcnsyn",
        description="Analyze logical control networks and synthesize "
        "state feedback for observability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("network", help="network file (JSON)")
        p.add_argument("--format", choices=("text", "structured"), default="structured")
        p.set_defaults(func=func)
        return p

    add("check-controllability", cmd_check_controllability,
        help="decide controllability (strong connectivity)")

    p = add("check-observability", cmd_check_observability,
            help="decide observability via the pair graph")
    p.add_argument("--dot", metavar="PATH", help="also write the pair graph as DOT")

    p = add("apply-feedback", cmd_apply_feedback,
            help="apply a state-feedback controller and write the result")
    p.add_argument("controller", help="controller file (JSON)")
    p.add_argument("--out", required=True, metavar="PATH", help="output network file")

    p = add("synthesize", cmd_synthesize,
            help="search closed-loop controllers enforcing observability")
    p.add_argument("--max-candidates", type=int, default=None, metavar="N",
                   help="evaluate at most N candidates (exit 4 when hit)")
    p.add_argument("--out", metavar="PATH", help="write the witness controller here")

    add("bounds", cmd_bounds, help="report naive and refined candidate bounds")

    p = add("export-graph", cmd_export_graph, help="write a graph as DOT")
    p.add_argument("--graph", choices=("transition", "observability"),
                   default="transition")
    p.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MatrixSizeError) as exc:  # unwritable output, oversized input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
