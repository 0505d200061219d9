"""Command-line interface: exit codes, report schemas, file outputs."""

import contextlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcnsyn import analysis, cli, synthesis
from lcnsyn.cli import main
from lcnsyn.files import load_network, network_to_dict

import nets


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_args(capsys, *argv):
    """Like :func:`run`, for argument handling: a parser may end an
    argument error or ``--help`` with ``SystemExit`` instead of returning."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def loads_exact(text):
    """``json.loads``, reading integers past the interpreter's 4 300-digit
    limit on str to int as Decimals, which compare with ints exactly."""
    return json.loads(text, parse_int=lambda s: int(s) if len(s) <= 4300 else Decimal(s))


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestCheckControllability:
    def test_funnel_negative_with_witness(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "check-controllability", fixtures_dir / "funnel44.json")
        assert code == 3
        assert doc["controllable"] is False
        assert doc["witness"] == {"source": 3, "target": 2}
        assert "adjacency" not in doc

    def test_ring_affirmative(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "check-controllability", fixtures_dir / "ring42.json")
        assert code == 0
        assert doc["controllable"] is True and doc["witness"] is None

    def test_malformed_input(self, capsys, fixtures_dir):
        code, _out, err = run(capsys, "check-controllability", fixtures_dir / "bad_short_L.json")
        assert code == 2
        assert "L column count 7 != 8" in err

    def test_text_format(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "check-controllability", fixtures_dir / "ring42.json",
                           "--format", "text")
        assert code == 0
        assert "controllable: true" in out


class TestCheckObservability:
    def test_mix_closed_loop_affirmative(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "check-observability", fixtures_dir / "big84_cl_mix.json")
        assert code == 0
        assert doc == {"observable": True, "witness": None}

    def test_ones_closed_loop_negative_with_self_loop_witness(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "check-observability", fixtures_dir / "big84_cl_ones.json")
        assert code == 3
        assert doc["witness"]["pair"] == [1, 2]
        assert doc["witness"]["path"] == [[1, 2]]
        assert doc["witness"]["cycle_entry"] == [1, 2]

    def test_ones_text_witness_path_renders_self_loop(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "check-observability", fixtures_dir / "big84_cl_ones.json",
                           "--format", "text")
        assert code == 3
        assert "12 -> 12" in out

    def test_tri_affirmative(self, capsys, fixtures_dir):
        code, _doc, _ = run_json(capsys, "check-observability", fixtures_dir / "tri32.json")
        assert code == 0

    def test_tri_closed_loop_negative(self, capsys, fixtures_dir):
        code, _doc, _ = run_json(capsys, "check-observability", fixtures_dir / "tri32_cl.json")
        assert code == 3

    def test_malformed_truth_table(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"N": 2, "M": 1, "Q": 1, "truth_table": {
            "transition": [[5], [1]], "output": [1, 1]}}))
        code, out, err = run(capsys, "check-observability", path)
        assert code == 2 and out == ""
        assert "transition(1, 1) = 5 outside [1, 2]" in err

    def test_builds_the_pair_graph_once(self, capsys, fixtures_dir, monkeypatch, tmp_path):
        calls = []
        build = analysis.observability_graph
        counted = lambda lcn: calls.append(lcn) or build(lcn)  # noqa: E731
        monkeypatch.setattr(analysis, "observability_graph", counted)
        monkeypatch.setattr(cli, "observability_graph", counted)
        for fmt in ("structured", "text"):
            code, _out, _ = run(capsys, "check-observability",
                                fixtures_dir / "big84_cl_ones.json", "--format", fmt)
            assert code == 3
        assert calls == []  # the decision walks the pair graph from L
        dot = tmp_path / "graph.dot"
        code, _out, _ = run(capsys, "check-observability", fixtures_dir / "big84_cl_ones.json",
                            "--dot", dot)
        assert code == 3
        assert len(calls) == 1
        assert dot.read_text() == analysis.export_dot(build(nets.BIG84_CL_ONES))

    def test_dot_dump(self, capsys, fixtures_dir, tmp_path):
        dot = tmp_path / "graph.dot"
        code, _doc, _ = run_json(capsys, "check-observability",
                                 fixtures_dir / "ring42_fb_out2.json", "--dot", dot)
        assert code == 0
        text = dot.read_text()
        assert '"12" -> "23" [label="1,2"];' in text


class TestApplyFeedback:
    def test_mix_controller_writes_closed_loop(self, capsys, fixtures_dir, tmp_path):
        out_file = tmp_path / "closed.json"
        code, doc, _ = run_json(capsys, "apply-feedback", fixtures_dir / "big84.json",
                                fixtures_dir / "ctrl_big84_mix.json", "--out", out_file)
        assert code == 0
        assert doc["M"] == 1
        written = load_network(out_file)
        assert written == nets.BIG84_CL_MIX

    def test_two_input_controller_on_ring(self, capsys, fixtures_dir, tmp_path):
        out_file = tmp_path / "fed.json"
        code, _doc, _ = run_json(capsys, "apply-feedback", fixtures_dir / "ring42.json",
                                 fixtures_dir / "ctrl_ring42_p2.json", "--out", out_file)
        assert code == 0
        written = load_network(out_file)
        assert written.L.col_indices == (2, 2, 3, 3, 4, 4, 2, 2)
        assert written.input_dim == 2

    def test_dimension_mismatch(self, capsys, fixtures_dir, tmp_path):
        # an 8-state controller whose indices all fit the 2 inputs: the file
        # loads, and apply_feedback refuses it
        code, out, err = run(capsys, "apply-feedback", fixtures_dir / "tri32.json",
                             fixtures_dir / "ctrl_big84_ones.json",
                             "--out", tmp_path / "x.json")
        assert code == 2 and out == ""
        assert err == "error: feedback for N=8, M=2 does not fit network with N=3, M=2\n"
        assert not (tmp_path / "x.json").exists()

    def test_controller_file_lists_every_violation(self, capsys, fixtures_dir, tmp_path):
        ctrl = tmp_path / "ctrl.json"
        ctrl.write_text(json.dumps({"g": "x", "G": "y"}))
        code, out, err = run(capsys, "apply-feedback", fixtures_dir / "big84.json", ctrl,
                             "--out", tmp_path / "x.json")
        assert code == 2 and out == ""
        assert err == "error: g must be a list of integers\nerror: G must be a list of integers\n"
        assert not (tmp_path / "x.json").exists()


#: BIG84, and BIG84 with states 1-8 renamed 1, 3, 5, 7, 8, 2, 4, 6, whose
#: output classes interleave: the same bounds, but candidates ordered by
#: the renamed successors. Each fixture's candidates_checked and witness,
#: from tests/sweeps.reference_sweep; the oracle finds each witness observable
BIG84_FIXTURES = (("big84.json", 829, [1, 2, 2, 1, 3, 1, 1, 4]),
                  ("big84_interleaved.json", 783, [1, 1, 2, 3, 4, 2, 2, 1]))


class TestSynthesize:
    def test_big_network(self, capsys, fixtures_dir, tmp_path):
        for name, checked, witness in BIG84_FIXTURES:
            out_file = tmp_path / "controller.json"
            code, doc, _ = run_json(capsys, "synthesize", fixtures_dir / name, "--out", out_file)
            assert code == 0
            assert doc["verdict"] == "SYNTHESIZED"
            assert doc["naive_bound"] == 49152
            assert doc["refined_bound"] == 7038
            assert doc["num_factors"] == [153, 46]
            assert (doc["candidates_checked"], doc["witness"]) == (checked, witness)
            g = json.loads(out_file.read_text())["g"]
            assert doc["witness"] == g

    def test_sink_not_synthesizable(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "synthesize", fixtures_dir / "sink42_out2.json")
        assert code == 3
        assert doc["verdict"] == "NOT_SYNTHESIZABLE"
        assert doc["refined_bound"] == 0
        assert doc["zero_choice_class"] == 1
        assert doc["obstruction"] == {"kind": "constant_blocks", "states": [1, 2], "target": 1}

    def test_candidate_cap(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "synthesize", fixtures_dir / "big84.json",
                                "--max-candidates", "1")
        assert code == 4
        assert doc["verdict"] == "DECISION_INCOMPLETE"
        assert doc["candidates_checked"] == 1

    def test_negative_candidate_cap_is_an_input_error(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "synthesize", fixtures_dir / "big84.json",
                             "--max-candidates", "-5")
        assert code == 2
        assert out == ""
        assert "--max-candidates must be non-negative" in err
        assert err.startswith("usage: lcnsyn synthesize network")
        assert "lcnsyn: error: --max-candidates must be non-negative, got -5" in err


class TestBounds:
    def test_big_network(self, capsys, fixtures_dir):
        for name, _checked, _witness in BIG84_FIXTURES:
            code, doc, _ = run_json(capsys, "bounds", fixtures_dir / name)
            assert code == 0
            assert doc == {"naive": 49152, "refined": 7038, "num_factors": [153, 46]}

    def test_counts_each_class_once(self, capsys, fixtures_dir, monkeypatch):
        calls = []
        count = synthesis.injective_choice_count
        monkeypatch.setattr(synthesis, "injective_choice_count",
                            lambda options: calls.append(count(options)) or calls[-1])
        code, _doc, _ = run_json(capsys, "bounds", fixtures_dir / "big84.json")
        assert code == 0
        assert calls == [153, 46]

    def test_count_over_budget_is_incomplete(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setattr(synthesis, "COUNT_BUDGET", 0)
        code, doc, err = run_json(capsys, "bounds", fixtures_dir / "big84.json")
        assert code == 4 and err == ""
        assert doc == {"naive": 49152, "refined": None, "num_factors": [None, None]}
        # synthesize keeps its verdict's exit code
        code, doc, err = run_json(capsys, "synthesize", fixtures_dir / "big84.json")
        assert code == 0 and err == ""
        assert doc["verdict"] == "SYNTHESIZED" and doc["candidates_checked"] == 829
        assert doc["refined_bound"] is None and doc["num_factors"] == [None, None]

    def test_sink(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "bounds", fixtures_dir / "sink42_out2.json")
        assert code == 0
        assert doc["refined"] == 0

    def test_identity_output_singleton_classes(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "bounds", fixtures_dir / "ring42.json")
        assert code == 0
        assert doc["num_factors"] == [1, 2, 1, 1]
        assert doc["naive"] == doc["refined"] == 2


class TestExportGraph:
    def test_transition_to_stdout(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "export-graph", fixtures_dir / "ring42.json")
        assert code == 0
        assert out.startswith("digraph transitions {")

    def test_observability_to_file(self, capsys, fixtures_dir, tmp_path):
        dot = tmp_path / "obs.dot"
        code, _out, _ = run(capsys, "export-graph", fixtures_dir / "big84_cl_ones.json",
                            "--graph", "observability", "--out", dot)
        assert code == 0
        assert dot.read_text().count("->") == 10

    def test_bad_file(self, capsys, fixtures_dir):
        code, _out, err = run(capsys, "export-graph", fixtures_dir / "bad_short_L.json")
        assert code == 2


WITNESS_NAMES_NET = {"N": 13, "M": 2, "Q": 2,
                     "L": [5, 9, 8, 7, 13, 5, 8, 6, 10, 4, 9, 3, 5, 3, 13, 2, 10, 13, 5, 9, 12,
                           13, 10, 3, 5, 2],
                     "H": [1, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 1, 1]}


@pytest.mark.parametrize("make", [lambda: WITNESS_NAMES_NET,
                                  *(lambda s=s: network_to_dict(nets.random_network(s, 12, 2, 3))
                                    for s in range(40))],
                         ids=["names-13", *(f"random-{s}" for s in range(40))])
def test_text_witness_path_names_nodes_of_the_dot_file(capsys, tmp_path, make):
    # the text path and the DOT file pick short ("14") or wide ("1-4") pair
    # names by one rule: wide when some equal-output pair has a state above 9
    path, dot = tmp_path / "net.json", tmp_path / "g.dot"
    path.write_text(json.dumps(make()))
    code, out, _ = run(capsys, "check-observability", path, "--dot", dot, "--format", "text")
    nodes = {line.strip()[1:-2] for line in dot.read_text().splitlines()
             if line.endswith('";') and " -> " not in line}
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    if code == 0:
        assert "witness_path" not in lines
        return
    names = json.loads(lines["witness_path"]).split(" -> ")
    assert set(names) <= nodes


def test_exit_codes_are_deterministic(capsys, fixtures_dir):
    for _ in range(3):
        code, _doc, _ = run_json(capsys, "synthesize", fixtures_dir / "sink42_out2.json")
        assert code == 3


@pytest.mark.parametrize("command, inputs, flag", [
    ("synthesize", ["big84.json"], "--out"),
    ("apply-feedback", ["big84.json", "ctrl_big84_mix.json"], "--out"),
    ("check-observability", ["big84_cl_ones.json"], "--dot"),
    ("export-graph", ["ring42.json"], "--out"),
], ids=["synthesize", "apply-feedback", "check-observability", "export-graph"])
def test_unwritable_output_is_an_input_error(capsys, fixtures_dir, tmp_path, command, inputs,
                                             flag):
    missing = tmp_path / "no_such_dir"
    code, out, err = run(capsys, command, *(fixtures_dir / f for f in inputs), flag,
                         missing / "out")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "no_such_dir" in err


@pytest.mark.parametrize("argv", [["check-observability"],
                                  ["export-graph", "--graph", "observability"],
                                  ["synthesize"],
                                  ["bounds"]],
                         ids=lambda argv: argv[0])
def test_oversized_pair_graph_is_an_input_error(capsys, tmp_path, argv):
    # 1449 states with one output have 1 049 076 equal-output pairs, past CELL_CAP
    n = 1449
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"N": n, "M": 1, "Q": 1, "L": list(range(1, n + 1)),
                                "H": [1] * n}))
    if argv == ["check-observability"]:
        # only --dot materialises the graph, and it is refused before the decision
        code, out, err = run(capsys, *argv, path)
        assert code == 3 and json.loads(out)["witness"]["pair"] == [1, 2] and err == ""
        argv = [*argv, "--dot", tmp_path / "wide.dot"]
    code, out, err = run(capsys, *argv, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds cap" in err
    assert not (tmp_path / "wide.dot").exists()


@pytest.mark.parametrize("command, code", [("bounds", 0), ("synthesize", 3)])
def test_deep_component_is_counted(capsys, tmp_path, command, code):
    # one output class of 1100 states passes the pair cap; state x offers x
    # and x mod N + 1, so the class is one component of 1100 members with
    # two choices, which a count recursing once per member could not reach
    n = 1100
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"N": n, "M": 2, "Q": 1, "H": [1] * n,
                                "L": [t for x in range(1, n + 1) for t in (x, x % n + 1)]}))
    limit = sys.getrecursionlimit()
    for lowered in (False, True):
        if lowered:
            sys.setrecursionlimit(200)
        try:
            got = run(capsys, command, path)
        finally:
            sys.setrecursionlimit(limit)
        assert got[0] == code and got[2] == ""
        doc = loads_exact(got[1])
        assert doc["refined_bound" if command == "synthesize" else "refined"] == 2
        assert doc["num_factors"] == [2]


@pytest.mark.parametrize("command, code", [("bounds", 0), ("synthesize", 3)])
def test_class_of_many_small_components_is_counted(capsys, tmp_path, command, code):
    # the identity on 1100 states with one output: 1100 one-member components
    n = 1100
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"N": n, "M": 1, "Q": 1, "L": list(range(1, n + 1)),
                                "H": [1] * n}))
    got, doc, err = run_json(capsys, command, path)
    assert got == code and err == ""
    assert doc["refined_bound" if command == "synthesize" else "refined"] == 1
    assert doc["num_factors"] == [1]
    if command == "synthesize":
        assert doc["verdict"] == "NOT_SYNTHESIZABLE"
        assert doc["obstruction"] == {"kind": "locked_pair", "states": [1, 2], "target": None}


@pytest.mark.parametrize("argv", [["bounds"], ["bounds", "--format", "text"],
                                  ["synthesize", "--max-candidates", "1"]],
                         ids=["bounds", "bounds-text", "synthesize"])
def test_bounds_past_the_int_digit_limit_print_in_full(capsys, tmp_path, argv):
    # 8 000 two-state classes: a naive bound of 2^16000, 4 817 digits; the
    # interpreter's limit on int to str stays in force for the next input
    path = tmp_path / "paired.json"
    path.write_text(json.dumps(network_to_dict(nets.paired_classes(16_000))))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert sys.get_int_max_str_digits() == limit
    assert code == (4 if argv[0] == "synthesize" else 0) and err == ""
    if "text" in argv:
        doc = {key: loads_exact(val)
               for key, val in (line.split(": ", 1) for line in out.splitlines())}
    else:
        doc = loads_exact(out)
    naive, refined = ("naive_bound", "refined_bound") if argv[0] == "synthesize" else \
        ("naive", "refined")
    assert (doc[naive], doc[refined]) == (2 ** 16_000, 2 ** 8_000)
    assert doc["num_factors"] == [2] * 8_000


# files whose decoding fails with an error other than JSONDecodeError
MALFORMED = {
    "deep": b"[" * 100_000 + b"]" * 100_000,  # RecursionError
    "long_int": b'{"N": ' + b"1" * 5000 + b"}",  # ValueError: past the 4300-digit limit
    "undecodable": b'\xff\xfe{"N": 1}',  # UnicodeDecodeError while reading the text
}


@pytest.mark.parametrize("name", MALFORMED)
@pytest.mark.parametrize("argv", [["bounds", "FILE"], ["synthesize", "FILE", "--out", "OUT"],
                                  ["apply-feedback", "big84.json", "FILE", "--out", "OUT"]],
                         ids=["bounds", "synthesize", "apply-feedback"])
def test_undecodable_file_is_an_input_error(capsys, fixtures_dir, tmp_path, argv, name):
    # as the network file, or as the controller file of apply-feedback
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED[name])
    where = {"FILE": path, "OUT": tmp_path / "out.json", "big84.json": fixtures_dir / "big84.json"}
    code, out, err = run(capsys, *(where.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "out.json").exists()


def test_import_loads_no_dataclass_or_typing_machinery(fixtures_dir):
    # -S keeps the interpreter's site hook from preloading typing; a whole
    # call must not load argparse either, nor the gettext and locale it uses
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing", "argparse", "gettext", "locale")
    code = (f"import sys, lcnsyn.cli; lcnsyn.cli.main(['bounds', "
            f"{str(fixtures_dir / 'big84.json')!r}]); "
            f"print([m for m in {heavy!r} if m in sys.modules], file=sys.stderr)")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(proc.stdout)["refined"] == 7038
    assert proc.stderr.strip() == "[]"


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "{net}"],
    ["bounds", "{net}", "--bogus"],
    ["synthesize", "{net}", "--out"],
    ["bounds", "{net}", "--format", "yaml"],
    ["export-graph", "{net}", "--graph", "foo"],
    ["synthesize", "{net}", "--max-candidates", "abc"],
    ["apply-feedback", "{net}", "{ctrl}"],
    ["bounds"],
    ["apply-feedback", "{net}", "--out", "{out}"],
    ["bounds", "{net}", "{net}"],
    ["check-observability", "{net}", "--dot="],
    ["synthesize", "{net}", "--out="],
    ["export-graph", "{net}", "--out", ""],
    ["apply-feedback", "{net}", "{ctrl}", "--out="],
], ids=["no-arguments", "unknown-subcommand", "unknown-option", "missing-value",
        "bad-format", "bad-graph", "bad-int", "missing-required-option",
        "missing-positional", "missing-second-positional", "extra-positional",
        "empty-dot-path", "empty-out-path", "empty-spaced-out-path", "empty-required-path"])
def test_argument_errors_exit_2_with_empty_stdout(capsys, fixtures_dir, tmp_path, argv):
    paths = {"{net}": fixtures_dir / "big84.json", "{ctrl}": fixtures_dir / "ctrl_big84_mix.json",
             "{out}": tmp_path / "out.json"}
    code, out, err = run_args(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert "error:" in err
    assert not (tmp_path / "out.json").exists()


def test_option_value_may_follow_an_equals_sign(capsys, fixtures_dir):
    net = fixtures_dir / "big84.json"
    for command in ("bounds", "check-observability"):
        spaced = run_args(capsys, command, net, "--format", "text")
        assert run_args(capsys, command, net, "--format=text") == spaced
        assert spaced[0] in (0, 3) and spaced[1].startswith(("naive: ", "observable: "))


def test_options_may_precede_positionals_and_the_last_repeat_wins(capsys, fixtures_dir):
    code, doc, _ = run_json(capsys, "synthesize", "--max-candidates", "5",
                            "--max-candidates=1", fixtures_dir / "big84.json")
    assert code == 4 and doc["candidates_checked"] == 1


def test_option_prefixes_are_not_expanded(capsys, fixtures_dir):
    code, out, err = run_args(capsys, "synthesize", fixtures_dir / "big84.json", "--max", "5")
    assert code == 2 and out == ""
    assert "error:" in err and "--max" in err


def test_help_lists_subcommands_and_options(capsys):
    code, out, err = run_args(capsys, "--help")
    assert code == 0 and err == ""
    for command in ("check-controllability", "check-observability", "apply-feedback",
                    "synthesize", "bounds", "export-graph"):
        assert command in out
    code, out, err = run_args(capsys, "synthesize", "--help")
    assert code == 0 and err == ""
    for option in ("--format", "--max-candidates", "--out"):
        assert option in out


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _run_limited(command, path, *options):
    """``python -m lcnsyn command path *options`` in a child limited to
    512 MB of address space and 60 s."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "lcnsyn", command, str(path), *map(str, options)],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("command", ["check-controllability", "export-graph"])
def test_transition_commands_on_a_100k_state_ring(tmp_path, command):
    n = 100_000
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"N": n, "M": 1, "Q": 1, "L": [*range(2, n + 1), 1],
                                "H": [1] * n}))
    proc = _run_limited(command, path)
    assert proc.returncode == 0, proc.stderr
    if command == "check-controllability":
        assert json.loads(proc.stdout) == {"controllable": True, "witness": None}
        return
    lines = proc.stdout.splitlines()
    edges = [line for line in lines if " -> " in line]
    assert len(edges) == n and edges[-1] == f'  "{n}" -> "1" [label="1"];'
    assert sum(line.startswith('  "') and " -> " not in line for line in lines) == n


def _ring_1400():
    # both inputs step x -> x mod N + 1; two output classes of 700 states,
    # 2 * 700 * 699 / 2 = 489 300 equal-output pairs, none reaching a cycle
    n = 1400
    return {"N": n, "M": 2, "Q": 2, "L": [x % n + 1 for x in range(1, n + 1) for _ in (1, 2)],
            "H": [1] * 700 + [2] * 700}


@pytest.mark.parametrize("make, code, witness", [
    (lambda: network_to_dict(nets.random_network(0, 2000, 2, 2)), 3, ([1, 21], 23)),
    (_ring_1400, 0, None),
], ids=["random-2000", "ring-1400"])
def test_check_observability_on_large_networks(tmp_path, make, code, witness):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(make()))
    proc = _run_limited("check-observability", path)
    assert proc.returncode == code, proc.stderr
    got = json.loads(proc.stdout)["witness"]
    assert (got and (got["pair"], len(got["path"]))) == witness


def test_check_observability_holding_too_many_pairs_is_an_input_error(tmp_path):
    # 4 498 500 equal-output pairs; the exploration from pair (1, 2) passes
    # CELL_CAP before it finds a cycle, and left to go on it exhausts the
    # 512 MB address space
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(nets.random_network(0, 3000, 2, 1))))
    proc = _run_limited("check-observability", path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exceeds cap" in proc.stderr
    assert "Traceback" not in proc.stderr


#: The per-class counts of ``random_network(3, 64, 4, 8)``, as the
#: recursive count gave them with a raised recursion limit.
RANDOM_64_COUNTS = [3058784, 35446689, 571, 836, 192, 37620, 348809, 3104]


def _one_class(n, targets):
    # n states with one output; every state's block is ``targets``
    return {"N": n, "M": len(targets), "Q": 1, "L": list(targets) * n, "H": [1] * n}


@pytest.mark.parametrize("command, make, code, check", [
    # 22 states share 11 successors: no injective choice, decided by matching
    ("bounds", lambda: _one_class(22, range(1, 12)), 0,
     lambda doc: doc["refined"] == 0 and doc["num_factors"] == [0]),
    ("synthesize", lambda: _one_class(22, range(1, 12)), 3,
     lambda doc: doc["verdict"] == "NOT_SYNTHESIZABLE" and doc["zero_choice_class"] == 1),
    # 1448 states in one class: 1 047 628 equal-output pairs, at most CELL_CAP
    ("bounds", lambda: _one_class(1448, [1]), 0,
     lambda doc: doc["refined"] == 0 and doc["num_factors"] == [0]),
    ("synthesize", lambda: _one_class(1448, [1]), 3,
     lambda doc: doc["verdict"] == "NOT_SYNTHESIZABLE" and doc["zero_choice_class"] == 1),
    # 1449 states in one class: past CELL_CAP equal-output pairs, refused first
    ("bounds", lambda: _one_class(1449, [1]), 2, None),
    ("synthesize", lambda: _one_class(1449, [1]), 2, None),
    # 200 states in 16 classes of up to 19 states, whose member-value graphs
    # split into components of at most 10 members
    ("bounds", lambda: network_to_dict(nets.random_network(4, 200, 4, 16)), 0,
     lambda doc: doc["refined"] == prod(doc["num_factors"])),
    ("synthesize", lambda: network_to_dict(nets.random_network(4, 200, 4, 16)), 0,
     lambda doc: doc["verdict"] == "SYNTHESIZED"
     and doc["refined_bound"] == prod(doc["num_factors"])),
    # two classes of 111 and 89 states, each one component: both counts run
    # over the budget, so both are unknown and so is the refined bound
    ("bounds", lambda: network_to_dict(nets.random_network(4, 200, 4, 2)), 4,
     lambda doc: doc["refined"] is None and doc["num_factors"] == [None, None]),
    # six classes of 90-109 states, whose largest components have 12, 11,
    # 16, 49, 18 and 43 members: the last three run over the budget
    ("bounds", lambda: network_to_dict(nets.random_network(3, 600, 3, 6)), 4,
     lambda doc: doc["refined"] is None
     and [n is None for n in doc["num_factors"]] == [False] * 3 + [True] * 3
     and all(n > 0 for n in doc["num_factors"][:3])),
    # eight classes with components of up to 13 members, all within the budget
    ("bounds", lambda: network_to_dict(nets.random_network(3, 64, 4, 8)), 0,
     lambda doc: doc["num_factors"] == RANDOM_64_COUNTS
     and doc["refined"] == prod(RANDOM_64_COUNTS)),
    # 20 000 two-state classes: the walk keeps one row of choices per
    # class, and the naive bound 2^40000 prints in full
    ("bounds", lambda: network_to_dict(nets.paired_classes(40_000)), 0,
     lambda doc: doc["naive"] == 2 ** 40_000 and doc["num_factors"] == [2] * 20_000),
    ("synthesize --max-candidates 1", lambda: network_to_dict(nets.paired_classes(40_000)), 4,
     lambda doc: doc["verdict"] == "DECISION_INCOMPLETE" and doc["candidates_checked"] == 1),
    # classes of 75-118 states, whose largest components have 3-28
    # members: an early member takes a value that a much later one needs,
    # and without the walk's dead-end rule no first choice comes in time
    ("synthesize", lambda: network_to_dict(nets.random_network(5, 300, 2, 3)), 0,
     lambda doc: doc["verdict"] == "SYNTHESIZED" and doc["candidates_checked"] == 1),
    ("synthesize", lambda: network_to_dict(nets.random_network(0, 2000, 3, 20)), 0,
     lambda doc: doc["verdict"] == "SYNTHESIZED" and doc["candidates_checked"] == 1),
    ("synthesize --max-candidates 1000",
     lambda: network_to_dict(nets.random_network(0, 1000, 2, 10)), 4,
     lambda doc: doc["verdict"] == "DECISION_INCOMPLETE" and doc["candidates_checked"] == 1000),
], ids=["bounds-pigeonhole-22", "synthesize-pigeonhole-22", "bounds-1448", "synthesize-1448",
        "bounds-1449", "synthesize-1449",
        "bounds-random-200", "synthesize-random-200", "bounds-giant-200", "bounds-giant-600",
        "bounds-random-64", "bounds-paired-40000",
        "synthesize-paired-40000", "synthesize-thrashing-300", "synthesize-thrashing-2000",
        "synthesize-thrashing-1000-capped"])
def test_synthesis_commands_on_hard_classes(tmp_path, command, make, code, check):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(make()))
    name, *options = command.split()
    proc = _run_limited(name, path, *options)
    assert proc.returncode == code, proc.stderr
    if check is None:
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "exceeds cap" in proc.stderr
    else:
        assert check(loads_exact(proc.stdout)) and proc.stderr == ""


@pytest.mark.parametrize("command, options", [
    ("check-observability", ["--dot", "net.dot"]),
    ("export-graph", ["--graph", "observability"]),
], ids=["check-observability-dot", "export-graph-observability"])
def test_pair_graph_over_its_memory_cap_is_an_input_error(tmp_path, command, options):
    # 999 036 equal-output pairs and 2 inputs: under CELL_CAP, but the graph
    # and its DOT text would exhaust the 512 MB address space
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(nets.random_network(0, 2000, 2, 2))))
    proc = _run_limited(command, path, *(tmp_path / o if o.endswith(".dot") else o
                                         for o in options))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exceeds cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "net.dot").exists()


# --- robustness: generated network documents through every subcommand ------

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 7), st.floats(allow_nan=False),
                  st.text(max_size=3), st.lists(st.integers(-1, 7), max_size=5),
                  st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))
_KEYS = ("N", "M", "Q", "L", "H", "truth_table", "state_factors", "input_factors",
         "output_factors")


@st.composite
def network_documents(draw):
    """A network document and a controller document, each well-formed or
    not. The network has up to three faults: a key missing or added, a
    value of the wrong type (bools included), an index out of range, a
    bad factor list, or a truth table of the wrong shape."""
    n, m, q = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lcols = draw(st.lists(st.integers(1, n), min_size=n * m, max_size=n * m))
    hcols = draw(st.lists(st.integers(1, q), min_size=n, max_size=n))
    doc = {"N": n, "M": m, "Q": q}
    if draw(st.booleans()):
        doc.update(L=lcols, H=hcols)
        index_lists = [lcols, hcols]
    else:
        index_lists = [lcols[x * m:(x + 1) * m] for x in range(n)] + [hcols]
        doc["truth_table"] = {"transition": index_lists[:-1], "output": hcols}
    for key, dim in (("state_factors", n), ("input_factors", m), ("output_factors", q)):
        if draw(st.integers(0, 3)) == 0:
            valid = [dim] if dim > 1 else []
            doc[key] = draw(st.just(valid) | st.lists(st.integers(0, 6), max_size=3))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        fault = draw(st.sampled_from(["drop", "add", "junk", "range", "shape"]))
        if fault == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif fault == "add":
            doc[draw(st.sampled_from(_KEYS + ("x",)))] = draw(_JUNK)
        elif fault == "junk":
            doc[draw(st.sampled_from(_KEYS))] = draw(_JUNK)
        elif fault == "range":
            target = draw(st.sampled_from(index_lists))
            if target:
                target[draw(st.integers(0, len(target) - 1))] = draw(
                    st.sampled_from([0, -1, n + 1, q + 1, 10 ** 6]))
        elif fault == "shape" and isinstance(doc.get("truth_table"), dict):
            rows = doc["truth_table"].get("transition")
            if isinstance(rows, list) and rows:
                draw(st.sampled_from([rows.pop, lambda: rows[0].append(1),
                                      lambda: rows.append([]), lambda: rows[-1].clear()]))()
            else:
                doc["truth_table"].pop("output", None)
    p = draw(st.integers(1, 2))
    ctrl = draw(st.sampled_from([
        {"g": draw(st.lists(st.integers(1, m), min_size=n, max_size=n))},
        {"P": p, "G": draw(st.lists(st.integers(1, m), min_size=n * p, max_size=n * p))},
        {"g": draw(st.lists(st.integers(0, 4), max_size=6))},
        {"P": draw(_JUNK), "G": draw(st.lists(st.integers(0, 4), max_size=12))},
        draw(_JUNK),
    ]))
    return doc, ctrl


@given(docs=network_documents(),
       fmt=st.sampled_from(["structured", "text"]), cap=st.one_of(st.none(), st.integers(-1, 6)),
       graph=st.sampled_from(["transition", "observability"]), to_file=st.booleans())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_generated_documents_end_in_an_exit_code(tmp_path_factory, docs, fmt, cap, graph,
                                                 to_file):
    # every subcommand, in process: an exit code of 0, 2, 3 or 4, never an exception
    doc, ctrl = docs
    d = tmp_path_factory.mktemp("doc")
    net, ctrl_path = d / "net.json", d / "ctrl.json"
    net.write_text(json.dumps(doc))
    ctrl_path.write_text(json.dumps(ctrl))
    dot = ["--dot", d / "g.dot"] if to_file else []
    calls = [
        ["check-controllability", net],
        ["check-observability", net, *dot],
        ["apply-feedback", net, ctrl_path, "--out", d / "closed.json"],
        ["synthesize", net, *([] if cap is None else ["--max-candidates", cap]),
         *(["--out", d / "witness.json"] if to_file else [])],
        ["bounds", net],
        ["export-graph", net, "--graph", graph, *(["--out", d / "graph.dot"] if to_file else [])],
    ]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in [*argv, "--format", fmt]])
        assert code in (0, 2, 3, 4), argv
