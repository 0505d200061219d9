"""Value semantics of the immutable result and model classes."""

from types import MappingProxyType

import pytest

from lcnsyn import (
    DIAG,
    ClosedLoopController,
    ControllabilityResult,
    DenseMatrix,
    Lcn,
    LogicalMatrix,
    ObservabilityGraph,
    ObservabilityResult,
    ObservabilityWitness,
    Obstruction,
    OutputClass,
    OutputClassPartition,
    StateFeedback,
    StateTransitionGraph,
    SynthesisReport,
    Verdict,
)

M = LogicalMatrix(2, (1, 2))
WITNESS = ObservabilityWitness((1, 2), ((1, 2), DIAG), DIAG)

# class, its fields in constructor order, and one field with another value
CASES = [
    (DenseMatrix, {"rows": 1, "cols": 2, "entries": (3, 4)}, ("entries", (3, 5))),
    (LogicalMatrix, {"rows": 2, "col_indices": (1, 2)}, ("col_indices", (2, 1))),
    (Lcn, {"state_dim": 2, "input_dim": 1, "output_dim": 2, "L": M, "H": M,
           "state_factors": (2,), "input_factors": None, "output_factors": (2,)},
     ("H", LogicalMatrix(2, (1, 1)))),
    (StateFeedback, {"state_dim": 2, "input_dim": 2, "new_input_dim": 1, "G": M},
     ("new_input_dim", 2)),
    (ClosedLoopController, {"g": (1, 2)}, ("g", (2, 1))),
    (StateTransitionGraph, {"n_vertices": 1, "edges": ((1, 1, 1),)}, ("edges", ())),
    (ObservabilityGraph, {"vertices": ((1, 2),),
                          "edges": (((1, 2), DIAG, (1,)), (DIAG, DIAG, (1,))), "n_inputs": 1},
     ("n_inputs", 2)),
    (ControllabilityResult, {"controllable": False, "witness": (2, 1)}, ("witness", (1, 2))),
    (ObservabilityWitness, {"pair": (1, 2), "path": ((1, 2), DIAG), "cycle_entry": DIAG},
     ("cycle_entry", (1, 2))),
    (ObservabilityResult, {"observable": False, "witness": WITNESS}, ("observable", True)),
    (OutputClass, {"output_index": 1, "members": (1, 2)}, ("members", (1, 3))),
    (OutputClassPartition, {"classes": (OutputClass(1, (1, 2)),)}, ("classes", ())),
    (Obstruction, {"kind": "constant_blocks", "j": 1, "k": 2, "target": 3}, ("target", None)),
    (SynthesisReport, {"verdict": Verdict.SYNTHESIZED, "witness": ClosedLoopController((1,)),
                       "naive_bound": 4, "refined_bound": 2, "num_factors": (2,),
                       "candidates_checked": 1,
                       "pruned_by": MappingProxyType({"locked_pair": 1}),
                       "already_observable": False, "obstruction": None,
                       "zero_choice_class": None},
     ("candidates_checked", 2)),
]

#: ``pruned_by`` is a mappingproxy, which has no hash.
UNHASHABLE = (SynthesisReport,)


@pytest.mark.parametrize("cls, fields, change", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, change):
    value = cls(*fields.values())
    same = cls(**fields)
    assert value == same
    if cls not in UNHASHABLE:
        assert hash(value) == hash(same)

    name, other = change
    assert value != cls(**{**fields, name: other})
    subclass = type(cls.__name__, (cls,), {})
    assert value != subclass(**fields)
    assert cls.__eq__(value, subclass(**fields)) is NotImplemented
    assert value != tuple(fields.values())

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == same

    args = ", ".join(f"{field}={val!r}" for field, val in fields.items())
    assert repr(value) == f"{cls.__name__}({args})"


def test_keyword_construction_with_defaults():
    lcn = Lcn(2, 1, 2, M, M, output_factors=[2])
    assert (lcn.state_factors, lcn.input_factors, lcn.output_factors) == (None, None, (2,))
    assert Lcn(state_dim=2, input_dim=1, output_dim=2, L=M, H=M) == Lcn(2, 1, 2, M, M, None)

    report = SynthesisReport(Verdict.NOT_SYNTHESIZABLE, None, 1, 0, (0,), candidates_checked=0)
    assert isinstance(report.pruned_by, MappingProxyType) and report.pruned_by == {}
    assert report.already_observable is False
    assert report.obstruction is None and report.zero_choice_class is None
    pruned = {"zero_choice_class": 1}
    report = SynthesisReport(verdict=Verdict.NOT_SYNTHESIZABLE, witness=None, naive_bound=1,
                             refined_bound=0, num_factors=(0,), candidates_checked=0,
                             pruned_by=pruned, zero_choice_class=1)
    pruned["other"] = 2
    assert report.pruned_by == {"zero_choice_class": 1} and report.zero_choice_class == 1

    assert Obstruction("locked_pair", 1, 2).target is None
    assert Obstruction(kind="constant_blocks", j=1, k=2, target=3).target == 3
