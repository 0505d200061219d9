"""Command-line interface: exit codes, report schemas, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcnsyn import analysis, cli, synthesis
from lcnsyn.cli import main
from lcnsyn.files import load_network

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
            calls.clear()
            code, _out, _ = run(capsys, "check-observability",
                                fixtures_dir / "big84_cl_ones.json", "--format", fmt)
            assert code == 3
            assert len(calls) == 1
        calls.clear()
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
        code, _out, err = run(capsys, "apply-feedback", fixtures_dir / "tri32.json",
                              fixtures_dir / "ctrl_big84_mix.json",
                              "--out", tmp_path / "x.json")
        assert code == 2
        assert err


class TestSynthesize:
    def test_big_network(self, capsys, fixtures_dir, tmp_path):
        out_file = tmp_path / "controller.json"
        code, doc, _ = run_json(capsys, "synthesize", fixtures_dir / "big84.json",
                                "--out", out_file)
        assert code == 0
        assert doc["verdict"] == "SYNTHESIZED"
        assert doc["naive_bound"] == 49152
        assert doc["refined_bound"] == 7038
        assert doc["num_factors"] == [153, 46]
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


class TestBounds:
    def test_big_network(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "bounds", fixtures_dir / "big84.json")
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
    code, out, err = run(capsys, *argv, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds cap" in err


@pytest.mark.parametrize("command", ["bounds", "synthesize"])
def test_class_too_large_to_count_is_an_input_error(capsys, tmp_path, command):
    # one output class of 1100 states passes the pair cap, but its count
    # recurses deeper than the interpreter's default limit
    n = 1100
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"N": n, "M": 1, "Q": 1, "L": list(range(1, n + 1)),
                                "H": [1] * n}))
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err == "error: output class 1 of 1100 states is too large to count\n"


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
], ids=["no-arguments", "unknown-subcommand", "unknown-option", "missing-value",
        "bad-format", "bad-graph", "bad-int", "missing-required-option",
        "missing-positional", "missing-second-positional", "extra-positional"])
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


@pytest.mark.parametrize("command", ["check-controllability", "export-graph"])
def test_transition_commands_on_a_100k_state_ring(tmp_path, command):
    # each call runs in a child limited to 512 MB of address space and 60 s
    n = 100_000
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"N": n, "M": 1, "Q": 1, "L": [*range(2, n + 1), 1],
                                "H": [1] * n}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "lcnsyn", command, str(path)],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    if command == "check-controllability":
        assert json.loads(proc.stdout) == {"controllable": True, "witness": None}
        return
    lines = proc.stdout.splitlines()
    edges = [line for line in lines if " -> " in line]
    assert len(edges) == n and edges[-1] == f'  "{n}" -> "1" [label="1"];'
    assert sum(line.startswith('  "') and " -> " not in line for line in lines) == n
