"""Network/controller file formats: loading, saving, round trips, errors."""

import json
import tracemalloc
from enum import IntEnum

import pytest

import nets

from lcnsyn import (ClosedLoopController, Lcn, LogicalMatrix, StateFeedback, files,
                    logical_identity, validate)
from lcnsyn.files import (
    FileFormatError,
    load_controller,
    load_network,
    network_from_dict,
    network_to_dict,
    controller_from_dict,
    controller_to_dict,
    save_controller,
    save_network,
)


class TestNetworkFiles:
    def test_load_reference_fixtures(self, fixtures_dir):
        # every network fixture equals its reference net, and an Lcn built
        # straight from its JSON fields, an omitted H read as the identity
        expected = {"funnel44": nets.FUNNEL44, "ring42": nets.RING42,
                    "ring42_out2": nets.RING42_OUT2, "ring42_fb_out2": nets.RING42_FB_OUT2,
                    "sink42_out2": nets.SINK42_OUT2, "big84": nets.BIG84,
                    "big84_cl_ones": nets.BIG84_CL_ONES, "big84_cl_mix": nets.BIG84_CL_MIX,
                    "big84_interleaved": nets.BIG84_INTERLEAVED,
                    "tri32": nets.TRI32, "tri32_cl": nets.TRI32_CL}
        loaded = set()
        for path in sorted(fixtures_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            if "N" not in doc or path.stem == "bad_short_L":
                continue  # a controller, or refused (test_short_l_reports_violation)
            n, q = doc["N"], doc["Q"]
            h = LogicalMatrix(q, doc["H"]) if "H" in doc else logical_identity(n)
            lcn = load_network(path)
            assert lcn == Lcn(n, doc["M"], q, LogicalMatrix(n, doc["L"]), h), path.name
            assert lcn == expected[path.stem]
            assert validate(lcn) == []
            loaded.add(path.stem)
        assert loaded == set(expected)

    def test_returns_the_network_it_validated(self, monkeypatch):
        # with H given, the network checked is the one returned; with H
        # omitted, the identity is built once, and only after L passes
        validated, built = [], []
        monkeypatch.setattr(files, "validate",
                            lambda lcn, check=files.validate: validated.append(lcn) or check(lcn))
        monkeypatch.setattr(files, "logical_identity",
                            lambda n, make=files.logical_identity: built.append(n) or make(n))
        doc = {"N": 3, "M": 2, "Q": 2, "L": [1, 3, 3, 2, 1, 1], "H": [1, 1, 2]}
        assert network_from_dict(doc) is validated[-1]
        assert network_from_dict(doc) == nets.TRI32
        assert built == []
        for bad_l in ([1, 3, 3, 2, 1], [1, 3, 3, 2, 1, 4]):
            with pytest.raises(FileFormatError, match="^L "):
                network_from_dict({"N": 3, "M": 2, "Q": 3, "L": bad_l})
        assert built == []
        lcn = network_from_dict({"N": 3, "M": 2, "Q": 3, "L": [1, 3, 3, 2, 1, 1]})
        assert built == [3]
        assert lcn.H == logical_identity(3)
        assert validated[-1].H is None

    @pytest.mark.parametrize("key", ["N", "M", "Q"])
    @pytest.mark.parametrize("value", [True, False, 2.0, "2", None, [2]])
    def test_rejects_a_dimension_that_is_not_an_integer(self, key, value):
        doc = {"N": 2, "M": 1, "Q": 2, "L": [2, 1], "H": [1, 2], key: value}
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict(doc)
        assert exc_info.value.violations == [f"{key} must be an integer, got {value!r}"]

    @pytest.mark.parametrize("key", ["L", "H", "state_factors", "input_factors", "output_factors"])
    @pytest.mark.parametrize("value", [[2, True], [False], [1, 2.0], ["2"], [1, None], [[2]],
                                       True, 2, "21", {"1": 2}, (2, 1)])
    def test_rejects_a_list_that_is_not_of_integers(self, key, value):
        doc = {"N": 2, "M": 1, "Q": 2, "L": [2, 1], "H": [1, 2], key: value}
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict(doc)
        assert exc_info.value.violations == [f"{key} must be a list of integers"]

    def test_reports_every_entry_that_is_not_an_integer_in_key_order(self):
        doc = {"N": 2, "M": True, "Q": 2.5, "L": [2, False], "H": [1, 2], "input_factors": ["1"]}
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict(doc)
        assert exc_info.value.violations == ["M must be an integer, got True",
                                             "Q must be an integer, got 2.5",
                                             "input_factors must be a list of integers",
                                             "L must be a list of integers"]

    def test_accepts_integer_subclasses_other_than_bool(self):
        class Index(IntEnum):
            ONE = 1
            TWO = 2

        doc = {"N": Index.TWO, "M": 1, "Q": 2, "L": [Index.TWO, 1], "H": [Index.ONE, 2],
               "state_factors": [Index.TWO]}
        assert network_from_dict(doc) == Lcn(2, 1, 2, LogicalMatrix(2, (2, 1)),
                                             LogicalMatrix(2, (1, 2)), (2,))

    def test_round_trip(self, tmp_path):
        for lcn in nets.ALL_REFERENCE_NETS:
            path = tmp_path / "net.json"
            save_network(lcn, path)
            assert load_network(path) == lcn

    def test_missing_h_defaults_to_identity(self):
        lcn = network_from_dict({"N": 2, "M": 1, "Q": 2, "L": [2, 1]})
        assert lcn.H.col_indices == (1, 2)

    def test_missing_h_requires_square_output(self):
        with pytest.raises(FileFormatError, match="Q == N"):
            network_from_dict({"N": 2, "M": 1, "Q": 1, "L": [2, 1]})

    def test_exactly_one_of_l_and_truth_table(self):
        with pytest.raises(FileFormatError, match="exactly one"):
            network_from_dict({"N": 1, "M": 1, "Q": 1})
        with pytest.raises(FileFormatError, match="exactly one"):
            network_from_dict(
                {"N": 1, "M": 1, "Q": 1, "L": [1],
                 "truth_table": {"transition": [[1]], "output": [1]}}
            )

    def test_truth_table_form(self):
        lcn = network_from_dict(
            {"N": 3, "M": 2, "Q": 2,
             "truth_table": {"transition": [[1, 3], [3, 2], [1, 1]],
                             "output": [1, 1, 2]}}
        )
        assert lcn == nets.TRI32

    def test_truth_table_conflicts_with_h(self):
        with pytest.raises(FileFormatError, match="drop H"):
            network_from_dict(
                {"N": 1, "M": 1, "Q": 1, "H": [1],
                 "truth_table": {"transition": [[1]], "output": [1]}}
            )

    @pytest.mark.parametrize("table, message", [
        ({"transition": [[1, 2], [2]], "output": [1, 1]}, "2 transition rows of 2 entries"),
        ({"transition": [[1, 2], [2, 1, 9]], "output": [1, 1]}, "2 transition rows"),
        ({"transition": [[1, 2], [2, 1], [1, 1]], "output": [1, 1]}, "2 transition rows"),
        ({"transition": [[1, 2], [2, 1]], "output": [1]}, "and 2 outputs"),
        ({"transition": [[1, 2], [5, 1]], "output": [1, 1]}, "outside"),
        ({"transition": [[1, 2], [2, "1"]], "output": [1, 1]}, "list of integer lists"),
        ({"transition": {"1": [1, 2]}, "output": [1, 1]}, "list of integer lists"),
        ({"transition": [[1, 2], [2, 1]], "output": [1, True]}, "output must be a list"),
        ({"transition": [[1, 2], [2, 1]], "output": [1, 3]}, "outside"),
        ([[1, 2], [2, 1]], "must hold transition and output tables"),
        ({"transition": [[1, 2], [2, 1]]}, "must hold transition and output tables"),
    ])
    def test_malformed_truth_table(self, table, message):
        with pytest.raises(FileFormatError, match=message):
            network_from_dict({"N": 2, "M": 2, "Q": 2, "truth_table": table})

    @pytest.mark.parametrize("doc, violation", [
        ([{"N": 1, "M": 1, "Q": 1, "L": [1]}], "network file must hold a JSON object"),
        ({"N": 0, "M": 1, "Q": 1, "L": []}, "dimensions must be positive, got N=0 M=1 Q=1"),
        ({"N": 1, "M": 0, "Q": 1, "L": []}, "dimensions must be positive, got N=1 M=0 Q=1"),
        ({"N": 1, "M": 1, "Q": -1, "L": [1], "H": [1]},
         "dimensions must be positive, got N=1 M=1 Q=-1"),
    ], ids=["array", "no-states", "no-inputs", "negative-outputs"])
    def test_refused_document(self, doc, violation):
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict(doc)
        assert exc_info.value.violations == [violation]

    def test_truth_table_reports_every_index_out_of_range(self):
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict({"N": 2, "M": 2, "Q": 2, "truth_table": {
                "transition": [[1, 9], [7, 1]], "output": [1, 5]}})
        assert exc_info.value.violations == [
            "transition(1, 2) = 9 outside [1, 2]",
            "transition(2, 1) = 7 outside [1, 2]",
            "output(2) = 5 outside [1, 2]",
        ]

    def test_short_l_reports_violation(self, fixtures_dir):
        with pytest.raises(FileFormatError) as exc_info:
            load_network(fixtures_dir / "bad_short_L.json")
        assert any("L column count 7 != 8" in v for v in exc_info.value.violations)

    def test_short_l_is_refused_before_building_the_identity_output(self):
        # H omitted means the N x N identity; a file declaring a huge N with a
        # short L is refused before anything proportional to N is allocated
        n = 200_000
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError) as exc_info:
                network_from_dict({"N": n, "M": 1, "Q": n, "L": [1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc_info.value.violations == [f"L column count 1 != {n} (N*M)"]
        assert peak < 1 << 20

    def test_all_violations_reported(self):
        with pytest.raises(FileFormatError) as exc_info:
            network_from_dict({"N": 2, "M": 1, "Q": 2, "L": [3, 1, 1], "H": [1, 5]})
        text = "\n".join(exc_info.value.violations)
        assert "L column count" in text
        assert "L index out of range" in text
        assert "H index out of range" in text

    def test_factors_preserved(self, tmp_path):
        doc = {"N": 4, "M": 2, "Q": 4, "L": [2, 2, 1, 3, 4, 4, 2, 2],
               "state_factors": [2, 2]}
        lcn = network_from_dict(doc)
        assert lcn.state_factors == (2, 2)
        assert network_to_dict(lcn)["state_factors"] == [2, 2]

    def test_bad_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="not valid JSON"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            load_network(tmp_path / "nope.json")


class TestControllerFiles:
    def test_closed_loop(self, fixtures_dir):
        ctrl = load_controller(fixtures_dir / "ctrl_big84_mix.json", 4)
        assert ctrl == ClosedLoopController((1, 2, 2, 1, 3, 1, 1, 1))

    def test_general(self, fixtures_dir):
        ctrl = load_controller(fixtures_dir / "ctrl_ring42_p2.json", 2)
        assert ctrl == nets.RING42_FB

    def test_round_trip(self, tmp_path):
        for ctrl in (ClosedLoopController((2, 1, 2)), nets.RING42_FB):
            path = tmp_path / "ctrl.json"
            save_controller(ctrl, path)
            input_dim = 2
            assert load_controller(path, input_dim) == ctrl

    def test_exactly_one_form(self):
        with pytest.raises(FileFormatError, match="exactly one"):
            controller_from_dict({}, 2)
        with pytest.raises(FileFormatError, match="exactly one"):
            controller_from_dict({"g": [1], "P": 1, "G": [1]}, 2)

    def test_range_checks(self):
        with pytest.raises(FileFormatError, match=r"g indices"):
            controller_from_dict({"g": [1, 3]}, 2)
        with pytest.raises(FileFormatError, match=r"G indices"):
            controller_from_dict({"P": 1, "G": [1, 3]}, 2)
        with pytest.raises(FileFormatError, match=r"^P must be positive, got 0$"):
            controller_from_dict({"P": 0, "G": [1, 2]}, 2)

    def test_g_length_multiple_of_p(self):
        with pytest.raises(FileFormatError, match="multiple of P"):
            controller_from_dict({"P": 2, "G": [1, 1, 1]}, 2)

    def test_general_dict_shape(self):
        doc = controller_to_dict(nets.RING42_FB)
        assert set(doc) == {"P", "G"}
        assert doc["P"] == 2

    def test_state_feedback_dimensions_bind_to_network(self):
        ctrl = controller_from_dict({"P": 2, "G": [1, 2, 2, 2, 1, 2, 1, 2]}, 2)
        assert isinstance(ctrl, StateFeedback)
        assert (ctrl.state_dim, ctrl.input_dim, ctrl.new_input_dim) == (4, 2, 2)
