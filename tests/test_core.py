"""LP container, config validation, and JSON round-trips."""

import json

import numpy as np
import pytest

import physlp
from physlp import (SolverConfig, StandardFormLP, feasibility_residual,
                    load_lp, lp_from_dict, lp_to_dict, objective, save_lp,
                    validate)
from physlp.errors import DimensionMismatch, InvalidConfig, NonFiniteEntry
from physlp.linalg import WeightedOperator


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


def test_validate_rejects_empty():
    with pytest.raises(DimensionMismatch):
        StandardFormLP(np.zeros((0, 2)), np.zeros(0), np.array([1.0, 2.0]))


@pytest.mark.parametrize("bound, error", [
    # -1 once gave x = [-1, 2] with objective 5, and 0 gave x1 = -1e-8
    (-1.0, InvalidConfig), (0.0, InvalidConfig), (0, InvalidConfig),
    (float("nan"), NonFiniteEntry), (float("inf"), NonFiniteEntry),
    (float("-inf"), NonFiniteEntry),
])
def test_validate_rejects_a_bad_box_bound(bound, error):
    with pytest.raises(error):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([-1.0, 2.0]), box_bound=bound)
    lp = toy_lp()
    lp.box_bound = bound
    with pytest.raises(error):
        validate(lp)


def test_names_length_checked():
    with pytest.raises(DimensionMismatch):
        StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.array([1.0, 2.0]), names=["only-one"])


def test_from_operator_takes_the_operator_and_its_matrix():
    A = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]])
    op = WeightedOperator(A)
    lp = StandardFormLP.from_operator(op, [1.0, 2.0], [1.0, 2.0, 3.0],
                                      names=["x", "y", "z"], box_bound=4.0)
    assert lp.operator is op
    assert np.array_equal(lp.A, op.A.toarray()) and np.array_equal(lp.A, A)
    assert lp.names == ["x", "y", "z"] and lp.box_bound == 4.0
    assert not lp.A.flags.writeable


def test_from_operator_lps_drop_only_their_own_operator():
    op = WeightedOperator(np.array([[1.0, 1.0]]))
    first = StandardFormLP.from_operator(op, [1.0], [1.0, 2.0])
    second = StandardFormLP.from_operator(op, [2.0], [3.0, 1.0])
    assert first.A is not second.A and first.operator is second.operator
    first.A = np.array([[2.0, 1.0]])
    assert first.operator is not op and second.operator is op
    assert np.array_equal(first.operator.A.toarray(), [[2.0, 1.0]])


@pytest.mark.parametrize("b, c, error", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], DimensionMismatch),
    ([1.0, 2.0], [1.0, 2.0], DimensionMismatch),
    ([1.0, 2.0], [1.0, np.nan, 3.0], NonFiniteEntry),
    ([1.0, 2.0], [1.0, 2.0, np.inf], NonFiniteEntry),
])
def test_from_operator_validates(b, c, error):
    op = WeightedOperator(np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]]))
    with pytest.raises(error):
        StandardFormLP.from_operator(op, b, c)


def test_objective_values():
    lp = toy_lp()
    assert objective(lp, np.array([1.0, 0.0])) == 1.0
    zero = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array([0.0, 0.0]))
    assert objective(zero, np.array([7.0, -3.0])) == 0.0
    three = StandardFormLP(np.ones((1, 3)), np.array([3.0]),
                           np.array([1.0, 2.0, 3.0]))
    assert objective(three, np.ones(3)) == 6.0


def test_objective_dimension_check():
    with pytest.raises(DimensionMismatch):
        objective(toy_lp(), np.array([1.0, 2.0, 3.0]))


def test_objective_is_linear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        lp = StandardFormLP(rng.normal(size=(2, n)), rng.normal(size=2),
                            rng.normal(size=n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        a, b = rng.normal(), rng.normal()
        lhs = objective(lp, a * x + b * y)
        rhs = a * objective(lp, x) + b * objective(lp, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_residual_values():
    lp = toy_lp()
    assert feasibility_residual(lp, np.array([0.5, 0.5])) == 0.0
    assert feasibility_residual(lp, np.array([1.0, 1.0])) == 1.0
    eye = StandardFormLP(np.eye(2), np.array([3.0, 4.0]),
                         np.array([1.0, 1.0]))
    assert feasibility_residual(eye, np.zeros(2)) == 5.0


def test_residual_zero_iff_feasible():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m, n = 2, 5
        A = rng.uniform(0.1, 1.0, size=(m, n))
        x = rng.uniform(0.1, 1.0, size=n)
        lp = StandardFormLP(A, A @ x, rng.uniform(0.1, 1.0, size=n))
        assert feasibility_residual(lp, x) <= 1e-12
        assert feasibility_residual(lp, x + 0.1) > 0.0


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.max_iters == 10
    assert cfg.step_size == 1.0
    assert cfg.clamp_floor == 1e-8
    assert cfg.linsolve_tol == 1e-10
    assert cfg.residual_tol == 1e-8
    assert cfg.gamma is None


@pytest.mark.parametrize("kwargs", [
    {"step_size": 0.0},
    {"step_size": 1.5},
    {"step_size": -0.1},
    {"clamp_floor": 0.0},
    {"max_iters": -1},
    {"linsolve_tol": 0.0},
    {"residual_tol": -1.0},
    {"gamma": -0.5},
    *[{name: value} for name in ("clamp_floor", "gamma", "linsolve_tol", "residual_tol")
      for value in (float("nan"), float("inf"))],
    # once accepted, and then a raw TypeError or ValueError inside solve
    {"max_iters": 2.5},
    {"seed": -1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_lp_dict_roundtrip():
    lp = StandardFormLP(np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.array([1.0, 2.0]), np.array([0.5, -0.5]),
                        names=["a", "b"], box_bound=3.0)
    back = lp_from_dict(lp_to_dict(lp))
    assert np.array_equal(back.A, lp.A)
    assert np.array_equal(back.b, lp.b)
    assert np.array_equal(back.c, lp.c)
    assert back.names == lp.names
    assert back.box_bound == lp.box_bound


def test_lp_from_dict_requires_keys():
    with pytest.raises(KeyError):
        lp_from_dict({"A": [[1.0]], "b": [1.0]})


def test_lp_file_roundtrip(tmp_path):
    lp = toy_lp()
    path = tmp_path / "lp.json"
    save_lp(lp, path)
    data = json.loads(path.read_text())
    assert data["A"] == [[1.0, 1.0]]
    back = load_lp(path)
    assert np.array_equal(back.A, lp.A)
    assert np.array_equal(back.c, lp.c)


def test_every_public_name_resolves():
    # oracles resolves through the package's lazy __getattr__.  The SPD
    # solves take only the solver's internal op.at(w), so they stay in
    # physlp.linalg and out of the package namespace
    assert [name for name in physlp.__all__ if not hasattr(physlp, name)] == []
    assert "oracles" in physlp.__all__
    for name in ("spd_solve", "spd_solve_adjoint", "SpdSolveReport"):
        assert name not in physlp.__all__ and not hasattr(physlp, name)
        assert hasattr(physlp.linalg, name)
