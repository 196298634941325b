"""LP container, config validation, and JSON round-trips."""

import json
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

import physlp
from physlp import (SolverConfig, StandardFormLP, backward, errors, initial_state, jvp, linalg,
                    load_lp, prepare_lp, problems, save_lp, solve, solve_with_tape, solver,
                    validate)
from physlp.errors import DimensionMismatch, InvalidConfig, NonFiniteEntry
from physlp.linalg import WeightedOperator

from .conftest import svm_feasible_point


def toy_lp():
    return StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array([1.0, 2.0]))


def test_validate_accepts_consistent_shapes():
    lp = toy_lp()
    assert validate(lp) is lp
    assert lp.m == 1 and lp.n == 2


def test_validate_is_idempotent():
    lp = toy_lp()
    assert validate(validate(lp)) is validate(lp)


def test_validate_rejects_bad_b_length():
    with pytest.raises(DimensionMismatch):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0, 2.0]),
                       np.array([1.0, 2.0]))


def test_validate_rejects_bad_c_length():
    with pytest.raises(DimensionMismatch):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([1.0, 2.0, 3.0]))


def test_validate_rejects_nan():
    with pytest.raises(NonFiniteEntry):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([1.0, np.nan]))


def test_validate_rejects_inf_in_A():
    with pytest.raises(NonFiniteEntry):
        StandardFormLP(np.array([[np.inf, 1.0]]), np.array([1.0]),
                       np.array([1.0, 2.0]))


@pytest.mark.parametrize("entry", [1e200, -1.35e154, 1e308])
def test_validate_rejects_an_A_entry_whose_square_overflows(entry):
    # each entry of the Gram map is a product of two entries of a column
    # of A; 1e200 once reached the solver and ended, after overflow
    # warnings, as a solver outcome
    with pytest.raises(NonFiniteEntry):
        StandardFormLP(np.array([[entry, 1.0]]), np.array([1.0]), np.array([1.0, 2.0]))
    assert StandardFormLP(np.array([[1.34e154, 1.0]]), np.array([1.0]),
                          np.array([1.0, 2.0])).A.data[0] == 1.34e154


@pytest.mark.parametrize("name", ["b", "c", "potentials"])
@pytest.mark.parametrize("entry", [1.35e154, -1e200])
def test_validate_holds_every_entry_to_A_MAX(name, entry):
    # the rule of A holds for b, c and potentials too: backward squares
    # the working cost, and a cost of 1e200 once came back from it as
    # wrong gradients, after an overflow warning
    data = {"b": [1.0], "c": [1.0, 2.0], "potentials": [0.0]}
    data[name] = [entry] + data[name][1:]
    with pytest.raises(NonFiniteEntry, match=f"^{name} contains .* above"):
        StandardFormLP([[1.0, 1.0]], **data)
    data[name][0] = 1.34e154 if entry > 0 else -1.34e154
    assert getattr(StandardFormLP([[1.0, 1.0]], **data), name)[0] == data[name][0]


# Every entry point that takes an array from the caller, as "function-
# argument": each passes it through core.checked_array
ENTRY_POINTS = ["validate-b", "validate-c", "validate-potentials", "initial_state-x0",
                "backward-grad_x", "jvp-dc", "jvp-dA", "jvp-db", "decode_matching-x",
                "decode_matching-C", "matching_cost_gradient-grad_c", "decode_svm-x",
                "build_l1svm_lp-labels", "decision-X", "predict-X", "step_detail-start"]


def entry_point(case):
    """(call, a well-formed value) of the entry point case: call(value)
    hands value to the function as the argument."""
    lp = problems.build_matching_lp(problems.MatchingInstance(
        np.random.default_rng(0).uniform(size=(3, 5))))
    cfg = SolverConfig(max_iters=3)
    tape = solve_with_tape(lp, cfg)[1]
    points = np.array([[1.0], [2.0]])
    svm = problems.SvmInstance(points, np.array([1.0, -1.0]))
    A, b, c, m, n = lp.A, lp.b, lp.c, lp.m, lp.n
    return {
        "validate-b": (lambda v: StandardFormLP(A, v, c), b),
        "validate-c": (lambda v: StandardFormLP(A, b, v), c),
        "validate-potentials": (lambda v: StandardFormLP(A, b, c, v), np.zeros(m)),
        "initial_state-x0": (lambda v: initial_state(prepare_lp(lp), cfg, v), np.ones(n)),
        "backward-grad_x": (lambda v: backward(tape, v), np.ones(n)),
        "jvp-dc": (lambda v: jvp(tape, dc=v), np.ones(n)),
        "jvp-dA": (lambda v: jvp(tape, dA=v), A.toarray()),
        "jvp-db": (lambda v: jvp(tape, db=v), np.ones(m)),
        "decode_matching-x": (lambda v: problems.decode_matching(v, 3, 5), np.ones(n)),
        "decode_matching-C": (lambda v: problems.decode_matching(np.ones(n), 3, 5, C=v),
                              np.ones((3, 5))),
        "matching_cost_gradient-grad_c": (lambda v: problems.matching_cost_gradient(v, 3, 5),
                                          np.ones(n)),
        "decode_svm-x": (lambda v: problems.decode_svm(v, svm), np.ones(20)),
        "build_l1svm_lp-labels": (lambda v: problems.build_l1svm_lp(
            problems.SvmInstance(points, v)), svm.labels),
        # a NaN point once gave a silent -1, a wrong width numpy's own error
        "decision-X": (problems.decode_svm(np.ones(20), svm).decision, np.ones((3, 1))),
        "predict-X": (problems.decode_svm(np.ones(20), svm).predict, np.ones((3, 1))),
        # a wrong length once failed inside a CG product, or was ignored
        # by a factored gram
        "step_detail-start": (lambda v: solver.step_detail(
            prepare_lp(lp), np.ones(n), cfg, 1e-10, v), np.ones(m)),
    }[case]


@pytest.mark.parametrize("case", ENTRY_POINTS)
def test_every_array_entry_point_checks_shape_and_finiteness(case):
    # one check, core.checked_array, whose errors name the argument;
    # jvp once named no direction, and the decoders took NaN
    call, good = entry_point(case)
    name = case.split("-")[1]
    call(good)
    with pytest.raises(DimensionMismatch, match=f"^{name} has shape"):
        call(good[..., 1:])
    bad = np.array(good, dtype=float)
    bad.flat[0] = np.nan
    with pytest.raises(NonFiniteEntry, match=f"^{name} contains a non-finite entry"):
        call(bad)


def test_validate_rejects_empty():
    with pytest.raises(DimensionMismatch):
        StandardFormLP(np.zeros((0, 2)), np.zeros(0), np.array([1.0, 2.0]))


@pytest.mark.parametrize("potentials, error", [
    ([], DimensionMismatch), ([-2.0, 0.0], DimensionMismatch), (-2.0, DimensionMismatch),
    ([[-2.0]], DimensionMismatch), ([float("nan")], NonFiniteEntry),
    ([float("inf")], NonFiniteEntry), ([float("-inf")], NonFiniteEntry),
], ids=["empty", "too-long", "scalar", "2-D", "nan", "inf", "-inf"])
def test_validate_rejects_bad_potentials(potentials, error):
    # one potential per row of A, finite
    with pytest.raises(error):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([-1.0, 2.0]), potentials)
    lp = toy_lp()
    with pytest.raises(error):
        validate(SimpleNamespace(A=lp.A, b=lp.b, c=lp.c,
                                 potentials=np.asarray(potentials, dtype=float)))


def test_potentials_are_owned_and_read_only():
    given = np.array([-2.0])
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([-1.0, 2.0]), given)
    assert toy_lp().potentials is None
    assert np.array_equal(lp.potentials, given) and not np.shares_memory(lp.potentials, given)
    with pytest.raises(ValueError):
        lp.potentials[0] = 3.0
    assert replace(lp, c=[1.0, 2.0]).potentials is lp.potentials


def test_from_operator_takes_the_operator_and_its_matrix():
    A = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]])
    op = StandardFormLP(A, [1.0, 1.0], [1.0, 1.0, 1.0]).operator
    lp = StandardFormLP.from_operator(op, [1.0, 2.0], [1.0, 2.0, 3.0], [0.5, -0.5])
    assert lp.operator is op and lp.A is op.A
    assert np.array_equal(lp.A.toarray(), A)
    assert np.array_equal(lp.potentials, [0.5, -0.5])
    assert not any(arr.flags.writeable for arr in (lp.A.data, lp.A.indices, lp.A.indptr))


def test_from_operator_copies_a_writable_matrix():
    # an operator built on the caller's writable CSR is not shared: the
    # LP keeps a read-only copy and builds its own operator from it
    A = scipy.sparse.csr_array(np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]]))
    op = WeightedOperator(A)
    lp = StandardFormLP.from_operator(op, [1.0, 2.0], [1.0, 2.0, 3.0])
    assert lp.A is not A and lp.operator is not op and lp.operator.A is lp.A
    A.data[0] = 5.0
    assert lp.A.toarray()[0, 0] == 1.0


def test_from_operator_lps_drop_only_their_own_operator():
    # an LP made from one of them with a new A builds its own operator
    op = toy_lp().operator
    first = StandardFormLP.from_operator(op, [1.0], [1.0, 2.0])
    second = StandardFormLP.from_operator(op, [2.0], [3.0, 1.0])
    # LPs of one operator share its read-only A
    assert first.A is second.A and first.operator is second.operator
    changed = replace(first, A=np.array([[2.0, 1.0]]))
    assert changed.operator is not op
    assert first.operator is op and second.operator is op
    assert np.array_equal(changed.operator.A.toarray(), [[2.0, 1.0]])


@pytest.mark.parametrize("b, c, error", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], DimensionMismatch),
    ([1.0, 2.0], [1.0, 2.0], DimensionMismatch),
    ([1.0, 2.0], [1.0, np.nan, 3.0], NonFiniteEntry),
    ([1.0, 2.0], [1.0, 2.0, np.inf], NonFiniteEntry),
])
def test_from_operator_validates(b, c, error):
    op = StandardFormLP([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]], [1.0, 1.0], [1.0, 1.0, 1.0]).operator
    with pytest.raises(error):
        StandardFormLP.from_operator(op, b, c)


@pytest.mark.parametrize("name", [f.name for f in fields(StandardFormLP)] + ["operator"])
def test_an_lp_cannot_be_assigned(name):
    # validated once, when built: a changed LP is a new one
    lp = toy_lp()
    with pytest.raises(FrozenInstanceError):
        setattr(lp, name, getattr(lp, name))


def toy_tape():
    return solve_with_tape(toy_lp(), SolverConfig(max_iters=3))[1]


def eye_gram():
    return WeightedOperator(scipy.sparse.csr_array(np.eye(2))).at(np.ones(2))


def svm_instance():
    """Two points of each label, in two dimensions."""
    points = np.random.default_rng(0).normal(size=(4, 2))
    return problems.SvmInstance(points, np.repeat([1.0, -1.0], 2))


COSTS = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])

# A fresh instance of each array-holding record of the package, with
# the same contents on every call
RECORDS = {
    "StandardFormLP": toy_lp,
    "SolveResult": lambda: solve(toy_lp(), SolverConfig(max_iters=3)),
    "PreparedLP": lambda: prepare_lp(toy_lp()),
    "StepDetail": lambda: toy_tape().steps[0],
    "UnrolledTape": toy_tape,
    "LpGradients": lambda: backward(toy_tape(), np.ones(2)),
    "WeightedGram": eye_gram,
    "SpdSolveReport": lambda: linalg.spd_solve(eye_gram(), np.ones(2), 1e-10),
    "Assignment": lambda: physlp.oracles.hungarian(COSTS),
    "MatchingInstance": lambda: problems.MatchingInstance(COSTS),
    "SvmInstance": svm_instance,
    "SvmClassifier": lambda: problems.decode_svm(svm_feasible_point(4), svm_instance()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_itself_alone_and_hashes(name):
    # with the dataclass __eq__, == on two records with arrays raised
    # ValueError (on LPs after a SparseEfficiencyWarning), and hash
    # raised TypeError
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    assert record == record and not record != record
    assert record != twin and not record == twin
    assert hash(record) == hash(record)
    seen = {record: "first", twin: "second"}
    assert seen[record] == "first" and seen[twin] == "second"
    assert record in {record} and twin not in {record}


@pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig)])
def test_a_config_cannot_be_assigned(name):
    cfg = SolverConfig()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


def test_replace_validates_again():
    # an assigned step_size of 5 once ran unchecked: x = [1e-8, 1e-8]
    # after 20 steps, with residual 0.99999998 and status MAX_ITERS
    with pytest.raises(InvalidConfig):
        replace(SolverConfig(max_iters=20), step_size=5.0)
    with pytest.raises(NonFiniteEntry):
        replace(toy_lp(), c=[np.nan, 1.0])
    with pytest.raises(DimensionMismatch):
        replace(toy_lp(), b=[1.0, 2.0])


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.max_iters == 10
    assert cfg.step_size == 1.0
    assert cfg.linsolve_tol == 1e-10
    # the stop test's tolerance and the clamp floor are constants, not
    # fields, as is the zero-cost value solver.default_gamma(m, n)
    assert solver.RESIDUAL_TOL == 1e-8
    assert solver.CLAMP_FLOOR == 1e-8
    assert [f.name for f in fields(SolverConfig)] == [
        "max_iters", "step_size", "linsolve_tol", "seed"]


@pytest.mark.parametrize("kwargs", [
    {"step_size": 0.0},
    {"step_size": 1.5},
    {"step_size": -0.1},
    {"step_size": float("inf")},
    {"max_iters": -1},
    {"linsolve_tol": 0.0},
    {"linsolve_tol": -1.0},
    # a target of 1 or more once gave p = 0 after 0 CG iterations, an
    # objective of 0 and status MAX_ITERS, with no error
    {"linsolve_tol": 1.0},
    {"linsolve_tol": 2.0},
    *[{name: value} for name in ("step_size", "linsolve_tol")
      for value in (float("nan"), float("-inf"))],
    {"linsolve_tol": float("inf")},
    {"seed": 2.5},
    # once accepted, and then a raw TypeError or ValueError inside solve
    {"max_iters": 2.5},
    {"max_iters": float("nan")},
    {"max_iters": "10"},
    {"seed": -1},
    {"seed": float("inf")},
    # bool is an int: once accepted, and max_iters=True ran one step
    *[{name: value} for name, value in (("max_iters", True), ("step_size", True),
                                        ("linsolve_tol", True), ("seed", False))],
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# the file of the LP below as save_lp writes it: A dense, as when it
# was held dense
DENSE_A_FILE = """{
  "A": [
    [
      1.0,
      0.0,
      -2.5
    ],
    [
      -0.0,
      3.0,
      0.0
    ]
  ],
  "b": [
    1.0,
    2.0
  ],
  "c": [
    0.5,
    -0.5,
    1.0
  ],
  "potentials": [
    -1.0,
    0.25
  ]
}
"""


def test_lp_dict_roundtrip(tmp_path):
    lp = StandardFormLP(np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.array([-1.0, 0.25]))
    path = tmp_path / "lp.json"
    save_lp(lp, path)
    back = load_lp(path)
    assert np.array_equal(back.A.toarray(), lp.A.toarray())
    assert np.array_equal(back.b, lp.b)
    assert np.array_equal(back.c, lp.c)
    assert np.array_equal(back.potentials, lp.potentials)
    save_lp(toy_lp(), path)
    assert load_lp(path).potentials is None
    # A is written dense, zeros included, as when it was held dense; a
    # -0.0 entry is not stored in the CSR A, so it is written as 0.0
    save_lp(StandardFormLP([[1.0, 0.0, -2.5], [-0.0, 3.0, 0.0]], [1.0, 2.0],
                           [0.5, -0.5, 1.0], [-1.0, 0.25]), path)
    assert path.read_text() == DENSE_A_FILE.replace("-0.0,", "0.0,")
    assert DENSE_A_FILE.count("-0.0,") == 1


def test_an_lp_file_with_names_still_loads(tmp_path):
    # earlier versions wrote column labels under "names", and a bound
    # for a change of variables under "box_bound"; nothing reads them
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"A": [[1.0, 1.0]], "b": [1.0], "c": [1.0, 2.0],
                                "box_bound": 2.0, "names": ["x", "y"]}))
    lp = load_lp(path)
    assert np.array_equal(lp.A.toarray(), [[1.0, 1.0]]) and lp.potentials is None
    assert not hasattr(lp, "names") and not hasattr(lp, "box_bound")
    save_lp(lp, path)
    assert sorted(json.loads(path.read_text())) == ["A", "b", "c"]


def test_lp_from_dict_requires_keys(tmp_path):
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"A": [[1.0]], "b": [1.0]}))
    with pytest.raises(KeyError, match="'c'"):
        load_lp(path)


def test_lp_file_roundtrip(tmp_path):
    lp = toy_lp()
    path = tmp_path / "lp.json"
    save_lp(lp, path)
    data = json.loads(path.read_text())
    assert data["A"] == [[1.0, 1.0]]
    back = load_lp(path)
    assert np.array_equal(back.A.toarray(), lp.A.toarray())
    assert np.array_equal(back.c, lp.c)


def test_input_errors_are_value_errors_and_outcomes_are_not():
    # a caller tells its own fault from the solver's by class alone
    inputs = [errors.InvalidConfig, errors.DimensionMismatch, errors.NonFiniteEntry,
              errors.NegativeCost, errors.NonPositiveInit]
    for cls in inputs:
        assert issubclass(cls, errors.InputError) and issubclass(cls, ValueError)
    for cls in (errors.Breakdown, errors.LinSolveFailure, errors.Unreachable):
        assert issubclass(cls, errors.PhyslpError)
        assert not issubclass(cls, errors.InputError) and not issubclass(cls, ValueError)


def test_every_public_name_resolves():
    # oracles resolves through the package's lazy __getattr__.  The SPD
    # solves take only the solver's internal op.at(w), so they stay in
    # physlp.linalg and out of the package namespace
    assert [name for name in physlp.__all__ if not hasattr(physlp, name)] == []
    assert "oracles" in physlp.__all__
    for name in ("spd_solve", "spd_solve_adjoint", "SpdSolveReport"):
        assert name not in physlp.__all__ and not hasattr(physlp, name)
        assert hasattr(physlp.linalg, name)
