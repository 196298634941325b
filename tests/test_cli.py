"""End-to-end command-line behavior and exit codes."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from physlp import SolverConfig, StandardFormLP, linalg, save_lp, solve, solver
from physlp.cli import build_parser, main
from physlp.errors import Breakdown, LinSolveFailure
from physlp.oracles import hungarian
from physlp.problems import MatchingInstance, assignment_to_vector, build_matching_lp


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_toy_lp(path):
    save_lp(StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                           np.array([1.0, 2.0])), path)
    return str(path)


def write_graph(path, nodes, arcs):
    path.write_text(json.dumps({"nodes": nodes, "arcs": arcs}))
    return str(path)


# ---------------------------------------------------------------- solve

def test_solve_toy_file(tmp_path, capsys):
    lp_file = write_toy_lp(tmp_path / "toy.json")
    rc, out, _ = run(capsys, ["solve", "--lp", lp_file, "--iters", "30"])
    assert rc == 0
    report = json.loads(out)
    assert 1.0 <= report["objective"] <= 1.001
    assert report["status"] in ("CONVERGED", "MAX_ITERS")
    assert len(report["trace"]) <= 30
    assert report["trace"][0]["iteration"] == 1


def test_solve_out_file_instead_of_stdout(tmp_path, capsys):
    lp_file = write_toy_lp(tmp_path / "toy.json")
    out_file = tmp_path / "result.json"
    rc, out, _ = run(capsys, ["solve", "--lp", lp_file, "--out",
                              str(out_file)])
    assert rc == 0 and out == ""
    report = json.loads(out_file.read_text())
    assert report["residual"] <= 1e-6


def test_solve_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, ["solve", "--lp", str(bad)])
    assert rc == 1 and "error:" in err


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    rc, _, err = run(capsys, ["solve", "--lp", str(tmp_path / "nope.json")])
    assert rc == 1 and "error:" in err


def test_solve_writes_its_report_when_a_linear_solve_fails(monkeypatch, tmp_path, capsys):
    # the second step's solve and its retry break down: the solve ends
    # LINSOLVE_FAILURE at the first step's iterate, whose report is
    # still written, and main gives exit 2 with one error line
    inner, calls = solver.spd_solve, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 1:
            raise Breakdown("forced")
        return inner(*args)

    monkeypatch.setattr(solver, "spd_solve", failing)
    lp_file = write_toy_lp(tmp_path / "toy.json")
    out_file = tmp_path / "result.json"
    rc, out, err = run(capsys, ["solve", "--lp", lp_file, "--out", str(out_file)])
    assert rc == 2 and out == "" and len(calls) == 3
    assert err.splitlines() == ["error: linear solve failed during iteration"]
    report = json.loads(out_file.read_text())
    assert report["status"] == "LINSOLVE_FAILURE" and len(report["trace"]) == 1


def test_solve_zero_cost_runs_at_the_default_gamma(tmp_path, capsys):
    # the zero cost runs as default_gamma(1, 2), and the optimum is
    # still the vertex x = (1, 0), of objective 0 against the LP's cost
    lp_file = str(tmp_path / "zc.json")
    save_lp(StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                           np.array([0.0, 1.0])), lp_file)
    rc, out, _ = run(capsys, ["solve", "--lp", lp_file, "--iters", "50"])
    report = json.loads(out)
    assert rc == 0 and report["status"] == "CONVERGED"
    assert report["objective"] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("potentials", ["[-2.0, 0.0]", "[NaN]"], ids=["too-long", "nan"])
def test_solve_rejects_bad_potentials(potentials, tmp_path, capsys):
    lp_file = tmp_path / "potentials.json"
    lp_file.write_text(f'{{"A": [[1.0, 1.0]], "b": [1.0], "c": [-1.0, 2.0], '
                       f'"potentials": {potentials}}}')
    rc, out, err = run(capsys, ["solve", "--lp", str(lp_file)])
    lines = err.strip().splitlines()
    assert rc == 1 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: potentials")


@pytest.mark.parametrize("potentials", [None, [-0.5]], ids=["none", "too-small"])
def test_solve_of_a_negative_cost_without_covering_potentials_is_an_input_error(
        potentials, tmp_path, capsys):
    # the fault is in the LP, as a bad field is, not in the solver
    lp_file = str(tmp_path / "negative.json")
    save_lp(StandardFormLP([[1.0, 1.0]], [1.0], [-1.0, 2.0], potentials), lp_file)
    rc, out, err = run(capsys, ["solve", "--lp", lp_file])
    assert rc == 1 and out == ""
    assert err.startswith("error: 1 entries of the working cost") and "negative" in err
    save_lp(StandardFormLP([[1.0, 1.0]], [1.0], [-1.0, 2.0], [-2.0]), lp_file)
    rc, out, _ = run(capsys, ["solve", "--lp", lp_file, "--iters", "100"])
    assert rc == 0 and json.loads(out)["objective"] == pytest.approx(-1.0, abs=1e-6)


# ----------------------------------------------------------- match-bench

BENCH_ARGS = ["match-bench", "--n", "2", "--m", "4", "--trials", "5",
              "--iters", "5", "10"]


def strip_times(report):
    for rec in report["records"]:
        rec.pop("time_sec")
    for agg in report["aggregates"]:
        agg.pop("mean_time_sec")
    return report


def test_match_bench_report_is_self_consistent(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, stdout, _ = run(capsys, BENCH_ARGS + ["--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["records"]) == 5 * 2
    for k in (5, 10):
        rows = [r["error"] for r in report["records"] if r["iters"] == k]
        assert len(rows) == 5
        agg = next(a for a in report["aggregates"] if a["iters"] == k)
        assert agg["mean_error"] == float(np.mean(rows))
        assert f"iters={k} mean_error={agg['mean_error']:.6f}" in stdout
    assert report["config"]["error_metric"].startswith("norm(")


def test_match_bench_deterministic_up_to_wall_time(tmp_path, capsys):
    outs = []
    prints = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc, stdout, _ = run(capsys, BENCH_ARGS + ["--out", str(out)])
        assert rc == 0
        outs.append(strip_times(json.loads(out.read_text())))
        prints.append(stdout)
    assert outs[0] == outs[1]
    assert prints[0] == prints[1]


def test_match_bench_csv_rows(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    rc, _, _ = run(capsys, BENCH_ARGS + ["--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "trial,seed,iters,error,time_sec"
    assert len(lines) == 1 + 5 * 2


def test_match_bench_rejects_n_above_m(capsys):
    rc, _, err = run(capsys, ["match-bench", "--n", "3", "--m", "2",
                              "--trials", "1"])
    assert rc == 1 and "n <= m" in err


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--iters", "0"],
                                   ["--iters", "5", "0"], ["--iters", "-1"]])
def test_match_bench_rejects_no_trials_and_empty_budgets(flags, capsys):
    # a mean over no records would print mean_error=nan and exit 0
    rc, out, err = run(capsys, ["match-bench", "--n", "2", "--m", "4",
                                "--trials", "2"] + flags)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "at least 1" in err


def test_match_bench_fully_constrained_is_exact(capsys):
    rc, stdout, _ = run(capsys, ["match-bench", "--n", "1", "--m", "1",
                                 "--trials", "3", "--iters", "50"])
    assert rc == 0
    assert float(stdout.split("mean_error=")[1]) <= 1e-6


def test_match_bench_iterates_are_solves_on_cg_steps(monkeypatch, tmp_path, capsys):
    # with the direct cutoff below the 6 rows of a 2-by-4 matching LP
    # every step runs CG, whose answer depends on the solve target; the
    # iterate at each budget k is still that of solve with max_iters=k
    monkeypatch.setattr(linalg, "DIRECT_MAX_DIM", 2)
    out = tmp_path / "report.json"
    rc, _, _ = run(capsys, BENCH_ARGS + ["--out", str(out)])
    assert rc == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 5 * 2
    # each trial draws its costs, then its solver seed, from one child
    # of the --seed sequence (default 0)
    for index, seed_seq in enumerate(np.random.SeedSequence(0).spawn(5)):
        rng = np.random.default_rng(seed_seq)
        C = rng.uniform(size=(2, 4))
        seed = int(rng.integers(2 ** 63))
        lp = build_matching_lp(MatchingInstance(C))
        x_star = assignment_to_vector(hungarian(C).map, 2, 4)
        for rec in (r for r in records if r["trial"] == index):
            assert rec["seed"] == seed
            x = solve(lp, SolverConfig(max_iters=rec["iters"], seed=seed), early_stop=False).x
            assert rec["error"] == float(np.linalg.norm(x - x_star)) / float(np.linalg.norm(x_star))


def test_match_bench_step_failure_is_solver_error(monkeypatch, tmp_path, capsys):
    step, calls = solver.step_detail, []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise LinSolveFailure("injected step failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "step_detail", fail_second)
    out = tmp_path / "report.json"
    rc, stdout, err = run(capsys, BENCH_ARGS + ["--out", str(out)])
    assert rc == 2 and stdout == ""
    assert err.startswith("error:") and "injected step failure" in err
    assert not out.exists()


# ------------------------------------------------------------- svm-demo

def test_svm_demo_default_blobs_separate(tmp_path, capsys):
    out = tmp_path / "svm.json"
    rc, _, _ = run(capsys, ["svm-demo", "--n-per-class", "5", "--iters",
                            "300", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] >= 0.95
    assert report["variables"] == 9 * 10 + 2
    assert report["constraints"] == 4 * 10


def test_svm_demo_identical_blobs_hit_threshold_exit(capsys):
    rc, out, _ = run(capsys, ["svm-demo", "--sep", "0", "--kernel", "linear"])
    assert rc == 3
    assert json.loads(out)["accuracy"] < 0.95


def test_svm_demo_two_points_far_apart(capsys):
    rc, out, _ = run(capsys, ["svm-demo", "--n-per-class", "1", "--sep", "5"])
    assert rc == 0
    assert json.loads(out)["accuracy"] == 1.0


@pytest.mark.parametrize("flags", [["--sep", "8e153"], ["--sep", "1e154"],
                                   ["--sigma", "1e-160"]])
def test_svm_demo_far_blobs_or_a_narrow_kernel_separate(flags, capsys):
    # a far pair's squared distance, or its quotient by 2 sigma^2,
    # overflows to inf and gives the kernel value 0; it once warned of
    # the overflow, and at sep 1e154 exited 1 on a non-finite kernel
    rc, out, _ = run(capsys, ["svm-demo"] + flags)
    assert rc == 0
    assert json.loads(out)["accuracy"] == 1.0


def test_svm_demo_linear_kernel_ignores_sigma(capsys):
    rc, out, _ = run(capsys, ["svm-demo", "--kernel", "linear", "--sigma", "0",
                              "--n-per-class", "1", "--sep", "5"])
    assert rc == 0
    assert json.loads(out)["kernel"] == "linear"


# ----------------------------------------------------------- learn-cost

def test_learn_cost_zero_steps_changes_nothing(capsys):
    rc, out, _ = run(capsys, ["learn-cost", "--steps", "0"])
    report = json.loads(out)
    assert report["losses"] == []
    assert report["initial_loss"] == report["final_loss"]
    assert rc == 3 and not report["recovered"]


def test_learn_cost_zero_lr_is_flat(capsys):
    rc, out, _ = run(capsys, ["learn-cost", "--lr", "0", "--steps", "4"])
    report = json.loads(out)
    assert len(set(report["losses"])) == 1
    assert report["final_loss"] == report["losses"][0]


def test_learn_cost_recovers_target(capsys):
    rc, out, _ = run(capsys, ["learn-cost", "--target", "0,1,2"])
    report = json.loads(out)
    assert rc == 0 and report["recovered"]
    assert report["decoded"] == [0, 1, 2]
    assert report["final_loss"] < report["initial_loss"]


def test_learn_cost_rejects_bad_target(capsys):
    rc, _, err = run(capsys, ["learn-cost", "--target", "0,1,7"])
    assert rc == 1 and "target" in err


# -------------------------------------------------------- shortest-path

def test_shortest_path_triangle(tmp_path, capsys):
    g = write_graph(tmp_path / "tri.json", 3,
                    [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 2.5]])
    rc, out, _ = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                              "--sink", "2"])
    assert rc == 0
    body, line = out.rsplit("\n", 2)[0], out.strip().split("\n")[-1]
    report = json.loads(body)
    assert report["dijkstra_length"] == 2.0
    assert report["dijkstra_path"] == [0, 1, 2]
    assert report["relative_gap"] <= 1e-3
    assert line == f"pd={report['pd_objective']:.6f} dijkstra=2.000000"


def test_shortest_path_single_arc_prints_weight(tmp_path, capsys):
    g = write_graph(tmp_path / "one.json", 2, [[0, 1, 2.0]])
    rc, out, _ = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                              "--sink", "1", "--iters", "100"])
    assert rc == 0
    assert "dijkstra=2.000000" in out
    assert json.loads(out.rsplit("\n", 2)[0])["within_tolerance"]


def test_shortest_path_on_a_dag_above_the_direct_cutoff(dag_600_graph, tmp_path, capsys):
    # 599 rows: every step runs CG, the only CLI run that does
    g = write_graph(tmp_path / "dag.json", **dag_600_graph.to_dict())
    rc, out, _ = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                              "--sink", "599"])
    report = json.loads(out.rsplit("\n", 2)[0])
    assert rc == 0 and report["relative_gap"] <= 1e-3


def test_shortest_path_unreachable_is_solver_error(tmp_path, capsys):
    g = write_graph(tmp_path / "split.json", 3, [[0, 1, 1.0]])
    rc, _, err = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                              "--sink", "2"])
    assert rc == 2 and "reach" in err


def test_shortest_path_infinite_weight_is_input_error(tmp_path, capsys):
    # json writes the weight as Infinity; it once ran as unreachable (2)
    g = write_graph(tmp_path / "inf.json", 2, [[0, 1, float("inf")]])
    rc, out, err = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                                "--sink", "1"])
    assert rc == 1 and out == "" and "positive finite" in err


def test_shortest_path_missing_graph_is_io_error(tmp_path, capsys):
    rc, _, _ = run(capsys, ["shortest-path", "--graph",
                            str(tmp_path / "none.json"), "--source", "0",
                            "--sink", "1"])
    assert rc == 1


def test_shortest_path_same_endpoints_is_input_error(tmp_path, capsys):
    g = write_graph(tmp_path / "g.json", 2, [[0, 1, 1.0]])
    rc, _, _ = run(capsys, ["shortest-path", "--graph", g, "--source", "1",
                            "--sink", "1"])
    assert rc == 1


@pytest.mark.parametrize("sink", ["7", "-1"])
def test_shortest_path_node_outside_the_graph_is_input_error(sink, tmp_path, capsys):
    g = write_graph(tmp_path / "g.json", 3, [[0, 1, 1.0], [1, 2, 1.0]])
    rc, out, err = run(capsys, ["shortest-path", "--graph", g, "--source", "0",
                                "--sink", sink])
    assert rc == 1 and out == "" and err.startswith("error:")


# -------------------------------------------------------- usage errors

@pytest.mark.parametrize("argv", [
    ["solve"],
    ["learn-cost", "--target", "1,1"],
    ["solve", "--lp", "lp.json", "--iters", "abc"],
    # the error block was always the full vector; the flag is gone
    ["match-bench", "--error-block", "full"],
    ["no-such-command"],
    [],
    # the clamp floor and the zero-cost value are constants, not flags
    ["solve", "--lp", "lp.json", "--eps", "1e-8"],
    ["solve", "--lp", "lp.json", "--gamma", "0.1"],
    # match-bench runs its trials in one loop; the pool's flag is gone
    ["match-bench", "--jobs", "2"],
])
def test_usage_error_is_input_error(argv, capsys):
    # argparse exits 2, which is the solver-error code
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv, capsys):
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and out.startswith("usage:")


def test_every_flag_is_named_in_the_readme():
    # in README's Command line section, as a whole flag: --n is not
    # named by --n-per-class
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("\n## Command line\n")
    section = readme[start:readme.index("\n## ", start + 1)]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = [(name, flag) for name, parser in commands.items()
               for action in parser._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and not re.search(re.escape(flag) + r"(?![\w-])", section)]
    assert missing == []


# ------------------------------------------------------- solver config

@pytest.mark.parametrize("argv", [
    ["solve", "--lp", "LP", "--step", "2"],
    ["solve", "--lp", "LP", "--step", "nan"],
    ["solve", "--lp", "LP", "--step", "inf"],
    ["match-bench", "--n", "2", "--m", "4", "--trials", "1", "--step", "nan"],
    ["learn-cost", "--inner-step", "inf"],
    ["shortest-path", "--graph", "GRAPH", "--source", "0", "--sink", "1",
     "--iters", "-1"],
    ["match-bench", "--n", "2", "--m", "4", "--trials", "1", "--step", "0"],
    ["svm-demo", "--iters", "-3"],
    ["learn-cost", "--inner-step", "2"],
    # a negative seed once ended in numpy's ValueError traceback
    ["solve", "--lp", "LP", "--seed", "-1"],
    ["match-bench", "--n", "2", "--m", "4", "--trials", "1", "--seed", "-1"],
    ["svm-demo", "--seed", "-1"],
    ["learn-cost", "--seed", "-1"],
    ["shortest-path", "--graph", "GRAPH", "--source", "0", "--sink", "1",
     "--seed", "-1"],
])
def test_invalid_solver_config_is_input_error(argv, tmp_path, capsys):
    assert_input_error(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["solve", "--lp", "LP", "--out", "MISSING"],
    ["match-bench", "--n", "2", "--m", "4", "--trials", "1", "--iters", "1",
     "--out", "MISSING"],
    ["match-bench", "--n", "2", "--m", "4", "--trials", "1", "--iters", "1",
     "--csv", "MISSING"],
    ["svm-demo", "--iters", "1", "--out", "MISSING"],
    ["learn-cost", "--steps", "0", "--out", "MISSING"],
    ["shortest-path", "--graph", "GRAPH", "--source", "0", "--sink", "1",
     "--out", "MISSING"],
])
def test_unwritable_output_is_input_error(argv, tmp_path, capsys):
    # a file under a directory that does not exist once ended in a
    # FileNotFoundError traceback
    assert_input_error(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["svm-demo", "--c-reg", "0"],
    ["svm-demo", "--big-m", "0"],
    ["svm-demo", "--dim", "0"],
    ["svm-demo", "--n-per-class", "0"],
    ["match-bench", "--n", "0", "--m", "5"],
    ["learn-cost", "--n", "0"],
    # the Gaussian kernel divides by sigma**2: 0 overflows, -1 runs as 1
    ["svm-demo", "--sigma", "0"],
    ["svm-demo", "--sigma", "nan"],
    ["svm-demo", "--sigma", "-1"],
    # non-finite numbers that reached the solver as non-finite data
    ["svm-demo", "--sep", "nan"],
    ["svm-demo", "--sep", "inf"],
    # once exit 2, from the LP's non-finite c or, after a RuntimeWarning,
    # its non-finite A
    ["svm-demo", "--c-reg", "inf"],
    ["svm-demo", "--big-m", "inf"],
    ["learn-cost", "--lr", "nan"],
    ["learn-cost", "--lr", "inf"],
    ["learn-cost", "--steps", "-1"],
    # once exit 3 on a constant kernel, a division by zero, and an
    # OverflowError traceback
    ["svm-demo", "--sigma", "inf"],
    ["svm-demo", "--sigma", "1e-300"],
    ["svm-demo", "--sigma", "1e200"],
    # once exit 2 or 3, LINSOLVE_FAILURE among them, after overflow
    # warnings: a c, an A or squared distances that overflow
    ["svm-demo", "--c-reg", "1e308"],
    ["svm-demo", "--sep", "1e160"],
    ["svm-demo", "--kernel", "linear", "--sep", "1e200"],
    ["svm-demo", "--big-m", "1e300"],
    ["svm-demo", "--big-m", "1e160"],
    ["svm-demo", "--kernel", "linear", "--sep", "1e100"],
    ["solve", "--lp", "HUGE_A"],
])
def test_non_positive_size_or_weight_is_input_error(argv, tmp_path, capsys):
    # rejected by the command or, for svm-demo, by the builder that
    # reads the flag
    assert_input_error(argv, tmp_path, capsys)


# the update C - lr * grad overflows with a RuntimeWarning, which only
# this test ignores
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_learn_cost_whose_lr_overflows_the_costs_is_input_error(tmp_path, capsys):
    # the builder refuses the non-finite costs (NonFiniteEntry, an
    # InputError); this once exited 2, as a solver error
    assert_input_error(["learn-cost", "--lr", "1.7e308", "--steps", "4", "--seed", "1"],
                       tmp_path, capsys)


@pytest.mark.filterwarnings("error")
def test_learn_cost_whose_lr_lifts_the_costs_above_A_MAX_is_input_error(tmp_path, capsys):
    # the costs stay finite but exceed core.A_MAX, which the builder
    # refuses; backward once squared them to inf, with a warning, and
    # the run exited 3
    assert_input_error(["learn-cost", "--lr", "1e200", "--steps", "4", "--seed", "1"],
                       tmp_path, capsys)


def assert_input_error(argv, tmp_path, capsys):
    huge_a = tmp_path / "huge.json"
    huge_a.write_text(json.dumps({"A": [[1e200, 1]], "b": [1], "c": [1, 2]}))
    files = {"LP": write_toy_lp(tmp_path / "toy.json"), "HUGE_A": str(huge_a),
             "GRAPH": write_graph(tmp_path / "g.json", 2, [[0, 1, 1.0]]),
             "MISSING": str(tmp_path / "no-such-dir" / "out")}
    rc, _, err = run(capsys, [files.get(a, a) for a in argv])
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
