"""Command-line front end.

Subcommands: check-controllability, check-observability, apply-feedback,
synthesize, bounds, export-graph. Exit codes are a total function of the
verdict: 0 affirmative, 3 negative verdict, 2 input error, 4 decision
incomplete (candidate cap hit, or for ``bounds`` a class's count over its
budget). Reports default to JSON (``--format structured``); ``--format
text`` prints key/value lines.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import files
from .analysis import (
    DIAG,
    _pair_name,
    _pair_targets,
    export_dot,
    is_controllable,
    is_observable,
    observability_graph,
    output_partition,
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
    # a bound can run past the interpreter's 4 300-digit limit on int to
    # str; lift it for the report only, so input files stay held to it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = (json.dumps(doc, indent=2) if fmt == "structured"
                else "\n".join(f"{key}: {json.dumps(val)}" for key, val in doc.items()))
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


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
    m, cols, out = lcn.input_dim, lcn.L.col_indices, lcn.H.col_indices
    if entry is DIAG or entry in _pair_targets(m, cols, out, *entry):  # a self-loop closes it
        path.append(entry)
    top = max((ms[-1] for ms in output_partition(lcn).values() if len(ms) > 1), default=0)
    return " -> ".join(_pair_name(v, top) for v in path)


def cmd_check_controllability(args) -> int:
    result = is_controllable(files.load_network(args.network))
    doc = {
        "controllable": result.controllable,
        "witness": None
        if result.witness is None
        else {"source": result.witness[0], "target": result.witness[1]},
    }
    _print_report(doc, args.format)
    return EXIT_OK if result.controllable else EXIT_NEGATIVE


def cmd_check_observability(args) -> int:
    lcn = files.load_network(args.network)
    graph = args.dot and observability_graph(lcn)  # first: an over-cap --dot exits 2 at once
    result = is_observable(lcn)
    doc = {"observable": result.observable, "witness": _obs_witness_doc(result.witness)}
    if result.witness is not None and args.format == "text":
        doc["witness_path"] = _obs_witness_text(result.witness, lcn)
    if graph:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(graph))
    _print_report(doc, args.format)
    return EXIT_OK if result.observable else EXIT_NEGATIVE


def cmd_apply_feedback(args) -> int:
    lcn = files.load_network(args.network)
    ctrl = files.load_controller(args.controller, lcn.input_dim)  # main lists its violations
    try:
        closed = apply_feedback(lcn, ctrl)
    except ValueError as exc:  # a controller that does not fit the network
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    files.save_network(closed, args.out)
    _print_report({"out": args.out, "N": closed.state_dim, "M": closed.input_dim},
                  args.format)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    lcn = files.load_network(args.network)
    report = synthesize_observability(lcn, max_candidates=args.max_candidates)
    doc = {
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else list(report.witness.g),
        "already_observable": report.already_observable,
        "naive_bound": report.naive_bound,
        "refined_bound": report.refined_bound,
        "num_factors": list(report.num_factors),
        "candidates_checked": report.candidates_checked,
        "pruned_by": report.pruned_by,
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
    lcn = files.load_network(args.network)
    naive, refined, nums = _Problem(lcn).bounds()
    _print_report({"naive": naive, "refined": refined, "num_factors": list(nums)}, args.format)
    return EXIT_INCOMPLETE if refined is None else EXIT_OK


def cmd_export_graph(args) -> int:
    lcn = files.load_network(args.network)
    graph = transition_graph(lcn) if args.graph == "transition" else observability_graph(lcn)
    text = export_dot(graph)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


#: subcommand -> (handler, positionals, options, help line); every one also
#: takes ``_FORMAT``. An option's kind is ``str`` (a path) or ``int``, both
#: None when absent, ``REQUIRED`` (a path), or a tuple of choices, default first.
REQUIRED = "required"
_FORMAT = {"--format": ("structured", "text")}
COMMANDS = {
    "check-controllability": (cmd_check_controllability, ("network",), {},
                              "decide controllability (strong connectivity)"),
    "check-observability": (cmd_check_observability, ("network",), {"--dot": str},
                            "decide observability via the pair graph (--dot writes it as DOT)"),
    "apply-feedback": (cmd_apply_feedback, ("network", "controller"), {"--out": REQUIRED},
                       "apply a state-feedback controller and write the result"),
    "synthesize": (cmd_synthesize, ("network",), {"--max-candidates": int, "--out": str},
                   "search closed-loop controllers enforcing observability "
                   "(exit 4 after --max-candidates N)"),
    "bounds": (cmd_bounds, ("network",), {},
               "report naive and refined candidate bounds (exit 4 if a count is over budget)"),
    "export-graph": (cmd_export_graph, ("network",),
                     {"--graph": ("transition", "observability"), "--out": str},
                     "write a graph as DOT (default stdout)"),
}


class _Stop(Exception):
    """Ends parsing with ``(subcommand or None, reason)``; no reason asks for help."""


def _parse(argv: list[str]) -> SimpleNamespace:
    command, *rest = argv or [None]
    if command in ("-h", "--help"):
        raise _Stop(None)
    if command not in COMMANDS:
        raise _Stop(None, f"unknown command {command!r}" if argv else "a command is required")
    positionals, options = COMMANDS[command][1], {**_FORMAT, **COMMANDS[command][2]}
    values = {name: kind[0] if type(kind) is tuple else None for name, kind in options.items()}
    given, tokens = [], iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Stop(command)
        if not token.startswith("-"):
            given.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise _Stop(command, f"unrecognized option {token!r}")
        kind, value = options[name], value if eq else next(tokens, None)
        if value is None:
            raise _Stop(command, f"{name} needs a value")
        if value == "" and kind in (str, REQUIRED):
            raise _Stop(command, f"{name} needs a non-empty path")
        if type(kind) is tuple and value not in kind:
            raise _Stop(command, f"{name}: invalid choice {value!r}, choose from {kind}")
        try:
            values[name] = int(value) if kind is int else value
        except ValueError:
            raise _Stop(command, f"{name}: invalid int value {value!r}") from None
        if kind is int and values[name] < 0:
            raise _Stop(command, f"{name} must be non-negative, got {values[name]}")
    missing = [*positionals[len(given):], *(name for name, kind in options.items()
                                            if kind is REQUIRED and values[name] is None)]
    if missing:
        raise _Stop(command, f"the following arguments are required: {', '.join(missing)}")
    if len(given) > len(positionals):
        raise _Stop(command, f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    return SimpleNamespace(func=COMMANDS[command][0], **dict(zip(positionals, given)),
                           **{name[2:].replace("-", "_"): v for name, v in values.items()})


def _usage(command) -> str:
    if command is None:
        return "usage: lcnsyn <command> <network> ... [options]"
    words = [command, *COMMANDS[command][1]]
    for name, kind in {**_FORMAT, **COMMANDS[command][2]}.items():
        meta = f"{{{','.join(kind)}}}" if type(kind) is tuple else "N" if kind is int else "PATH"
        words.append(f"{name} {meta}" if kind is REQUIRED else f"[{name} {meta}]")
    return " ".join(["usage: lcnsyn", *words])


def _help(command) -> str:
    if command is not None:
        return f"{_usage(command)}\n\n{COMMANDS[command][3]}"
    rows = "".join(f"\n  {name:<21}  {spec[3]}" for name, spec in COMMANDS.items())
    return (f"{_usage(None)}\n\nAnalyze logical control networks and synthesize state "
            f"feedback for observability.\n\ncommands:{rows}\n\n'lcnsyn <command> -h' lists "
            "its options.")


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        command, *error = stop.args
        if not error:
            print(_help(command))
            return EXIT_OK
        print(f"{_usage(command)}\nlcnsyn: error: {error[0]}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except files.FileFormatError as exc:  # a malformed network file
        for line in exc.violations:
            print(f"error: {line}", file=sys.stderr)
    except (OSError, MatrixSizeError) as exc:  # unwritable output, oversized input
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
