"""SPD solve paths, regularization, the block factor, the PCG kernel,
and the solve adjoint."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from physlp import SolverConfig, StandardFormLP, backward, linalg, solve, solve_with_tape
from physlp.errors import Breakdown, DimensionMismatch
from physlp.linalg import WeightedOperator, _pcg, spd_solve, spd_solve_adjoint
from physlp.problems import MatchingInstance, build_matching_lp, build_shortest_path_lp

from .conftest import assert_sparse_copies_the_template

# The relative target of the solves below: spd_solve takes its target
# from the caller, and this is SolverConfig's default linsolve_tol
TOL = SolverConfig().linsolve_tol

def gram(B, w=None, scale=linalg.AUTO_REG_SCALE):
    """B diag(w) B^T + reg*I as the WeightedGram spd_solve takes, with
    reg = scale * trace(B diag(w) B^T) / m; w = 1 gives B B^T."""
    w = np.ones(B.shape[1]) if w is None else np.asarray(w, float)
    return WeightedOperator(scipy.sparse.csr_array(B)).at(w, scale)


def test_identity_system():
    L = gram(np.eye(2))
    rep = spd_solve(L, np.array([3.0, 4.0]), TOL)
    assert np.allclose(rep.p, [3.0, 4.0], atol=1e-12)
    assert rep.iterations == 0  # direct path for small systems
    assert L.factor is not None


def test_diagonal_system():
    rep = spd_solve(gram(np.eye(2), [2.0, 4.0]), np.array([2.0, 4.0]), TOL)
    assert np.allclose(rep.p, [1.0, 1.0], atol=1e-12)


def test_singular_rank_one_with_ridge():
    L = gram(np.ones((2, 1)), scale=1e-8)  # ones((2, 2)) + 1e-8 I: trace / m is 1
    rep = spd_solve(L, np.array([1.0, 1.0]), TOL)
    assert np.allclose(rep.p, [0.5, 0.5], atol=1e-6)
    assert L.reg == 1e-8
    assert np.array_equal(L.direct(), np.ones((2, 2)) + 1e-8 * np.eye(2))


@pytest.mark.parametrize("call", [
    lambda L: spd_solve(L, np.ones(2), TOL),
    lambda L: spd_solve_adjoint(L, np.ones(2), np.ones(2), TOL),
], ids=["spd_solve", "spd_solve_adjoint"])
def test_a_dense_matrix_is_a_type_error(call):
    # the one form of L is op.at(w); a dense array is not converted
    with pytest.raises(TypeError, match=r"op\.at\(w\)"):
        call(np.eye(2))


def test_rejects_shape_mismatch():
    with pytest.raises(Exception):
        spd_solve(gram(np.eye(3)), np.ones(2), TOL)


def test_breakdown_on_inconsistent_singular_system():
    # b outside the range of the rank-1 matrix, no ridge: neither the
    # factorization nor CG can reach the residual target
    L = gram(np.ones((2, 1)), scale=0.0)  # ones((2, 2))
    with pytest.raises(Breakdown):
        spd_solve(L, np.array([1.0, -1.0]), TOL)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_rhs_breaks_down(bad):
    # an infinite ||b|| made the target infinite, which accepted p = 0
    b = np.ones(3)
    b[1] = bad
    with pytest.raises(Breakdown, match="not finite"):
        spd_solve(gram(np.eye(3)), b, TOL)


def test_zero_rhs_returns_zero():
    rep = spd_solve(gram(np.eye(3)), np.zeros(3), TOL)
    assert np.array_equal(rep.p, np.zeros(3))


def test_random_spd_solve_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        B = rng.normal(size=(m, m))
        L = B @ B.T + m * np.eye(m)
        b = rng.normal(size=m)
        rep = spd_solve(gram(np.hstack([B, np.sqrt(m) * np.eye(m)])), b, TOL)
        assert np.linalg.norm(L @ rep.p - b) <= 1e-8 * np.linalg.norm(b)


def test_iterative_path_used_above_direct_cutoff():
    rng = np.random.default_rng(4)
    m = 600
    d = rng.uniform(1.0, 2.0, size=m)
    B = rng.normal(size=(m, 8))
    L = np.diag(d) + 0.01 * (B @ B.T)
    b = rng.normal(size=m)
    Lw = gram(np.hstack([np.eye(m), B]), np.concatenate([d, np.full(8, 0.01)]))
    rep = spd_solve(Lw, b, tol=1e-10)
    assert rep.iterations > 0  # conjugate gradient, not factorization
    assert Lw.factor is None
    assert np.linalg.norm(L @ rep.p - b) <= 1e-8 * np.linalg.norm(b)


def test_weighted_spd_solve_with_and_without_factor():
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(6, 15))
    w = rng.uniform(0.1, 1.0, size=15)
    L = gram(A, w, 1e-9)
    S = (A * w) @ A.T + L.reg * np.eye(6)
    assert L.reg == pytest.approx(1e-9 * np.trace((A * w) @ A.T) / 6, rel=1e-14)
    spd_solve(L, rng.normal(size=6), TOL)
    factor = L.factor
    rhs = rng.normal(size=6)
    want = np.linalg.solve(S, rhs)
    # L reuses its factor; a new gram of the same system factors anew
    for system in (L, gram(A, w, 1e-9)):
        z = spd_solve(system, rhs, TOL).p
        assert np.linalg.norm(z - want) <= 1e-8 * np.linalg.norm(want)
    assert L.factor is factor
    assert not spd_solve(L, np.zeros(6), TOL).p.any()


def test_factor_is_scipys_lower_cholesky_of_a_weighted_gram(matching_5x50):
    rng = np.random.default_rng(6)
    lp = matching_5x50
    gram = lp.operator.at(rng.uniform(0.1, 2.0, size=lp.n), 1e-9)
    b = rng.normal(size=lp.m)
    rep = spd_solve(gram, b, TOL)
    assert rep.iterations == 0
    want = scipy.linalg.cho_factor(gram.direct(), lower=True)[0]
    assert np.array_equal(np.tril(gram.factor), np.tril(want))
    assert np.array_equal(rep.p, scipy.linalg.cho_solve((gram.factor, True), b))


@pytest.mark.parametrize("b", [[1.0, 1.0], [1.0, 0.0]])
def test_indefinite_matrix_breaks_down(b):
    # the failed factorization is reported as Breakdown, not as
    # LinAlgError, and PCG does not overflow on the negative diagonal;
    # the partial factor dpotrf leaves solves b = [1, 0] exactly, and
    # must not stay on the gram as a factor that backward would reuse
    L = gram(np.eye(2), [1.0, -1.0], 0.0)
    with pytest.raises(Breakdown):
        spd_solve(L, np.array(b), TOL)
    assert L.factor is None


def test_ill_conditioned_system_keeps_the_cholesky_answer():
    # eigenvalues 1 down to 1e-12 and no ridge: the Cholesky answer
    # leaves a relative residual near 2e-6, far above tol * ||b||, but
    # is backward stable; PCG started from it only raises the residual
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    Lw = gram(Q, np.logspace(0, -12, 20), 0.0)
    L = Lw.direct()
    b = rng.normal(size=20)
    tol = 1e-10
    rep = spd_solve(Lw, b, tol=tol)
    assert rep.iterations == 0
    assert np.array_equal(rep.p, scipy.linalg.cho_solve((Lw.factor, True), b))
    res = np.linalg.norm(L @ rep.p - b)
    assert res > 1e3 * tol * np.linalg.norm(b)
    assert res <= tol * (np.linalg.norm(b) + np.linalg.norm(L, 2) * np.linalg.norm(rep.p))


def test_adjoint_matches_dense_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 12))
        B = rng.normal(size=(m, m))
        L = B @ B.T + m * np.eye(m)
        Lw = gram(np.hstack([B, np.sqrt(m) * np.eye(m)]))
        b = rng.normal(size=m)
        p = spd_solve(Lw, b, TOL).p
        grad_p = rng.normal(size=m)
        grad_L, grad_b = spd_solve_adjoint(Lw, p, grad_p, TOL)
        want_gb = np.linalg.solve(L, grad_p)  # L symmetric
        assert np.allclose(grad_b, want_gb, atol=1e-8)
        assert np.allclose(grad_L, -np.outer(want_gb, p), atol=1e-8)


def test_adjoint_refuses_a_grad_p_of_another_shape():
    L = gram(np.eye(3))
    p = spd_solve(L, np.ones(3), TOL).p
    with pytest.raises(DimensionMismatch, match="grad_p"):
        spd_solve_adjoint(L, p, np.ones(2), TOL)


def test_adjoint_directional_derivative():
    # first-order check: loss = grad_p . p(L, b); L + t dL is the gram
    # of [B, sqrt(m) I, V] at weights (1, 1, t lam), dL = V diag(lam) V^T
    rng = np.random.default_rng(6)
    m = 5
    B = rng.normal(size=(m, m))
    b = rng.normal(size=m)
    grad_p = rng.normal(size=m)

    dL = rng.normal(size=(m, m))
    dL = 0.5 * (dL + dL.T)
    db = rng.normal(size=m)
    lam, V = np.linalg.eigh(dL)
    op = WeightedOperator(scipy.sparse.csr_array(np.hstack([B, np.sqrt(m) * np.eye(m), V])))

    def L(t):
        return op.at(np.concatenate([np.ones(2 * m), t * lam]))
    p = spd_solve(L(0.0), b, TOL).p
    grad_L, grad_b = spd_solve_adjoint(L(0.0), p, grad_p, TOL)
    eta = 1e-6
    lo = grad_p @ spd_solve(L(-eta), b - eta * db, TOL).p
    hi = grad_p @ spd_solve(L(eta), b + eta * db, TOL).p
    fd = (hi - lo) / (2.0 * eta)
    analytic = float(np.sum(grad_L * dL) + grad_b @ db)
    assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------- block factor

def test_block_factor_only_where_the_split_saves_flops(matching_5x50, matching_50x100):
    # 50x100: the 100 proposal rows share no column and go first, and a
    # step's gram keeps the blocks [diag(S_II) | S_FF | S_FI], 100 +
    # 50^2 + 50*100 floats, and the factor of the Schur complement,
    # 50^2: 10,100 floats instead of two 150^2 arrays.  5x50 and 30x30
    # (55 and 60 rows) save too few flops and keep the m-by-m matrix and
    # its dense factor.
    split = matching_50x100.operator._pattern.split
    assert np.array_equal(split.I, np.arange(50, 150))
    assert np.array_equal(split.F, np.arange(50))
    _, tape = solve_with_tape(matching_50x100, SolverConfig(max_iters=5, seed=1))
    for det in tape.steps:
        assert det.gram.factor.shape == (50, 50)
        assert det.gram.values.size + det.gram.factor.size == 10100
    square = build_matching_lp(MatchingInstance(np.random.default_rng(7).uniform(size=(30, 30))))
    for lp in (matching_5x50, square):
        _, tape = solve_with_tape(lp, SolverConfig(max_iters=5, seed=1))
        assert lp.operator._pattern.split is None
        for det in tape.steps:
            assert det.gram.factor.shape == (lp.m, lp.m)
            assert det.gram.values.size == lp.m ** 2


def test_every_layout_reads_the_same_matrix(matching_50x100, monkeypatch):
    # Q writes A diag(w) A^T in the layout of the route of m rows: the
    # blocks where the rows split, row-major where they do not, and CSR
    # data above DIRECT_MAX_DIM.  Every form read from any layout, the
    # CSR matrix from each and the row-major one, is the same matrix bit
    # for bit, at any scale, and at one scale after grams at another.
    block = matching_50x100.operator
    A = block.A.toarray()
    w = np.random.default_rng(4).uniform(0.1, 2.0, size=A.shape[1])
    # Q's layout is picked when it is built, so the other two are built
    # under constants that pick the dense and the CSR layout
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "BLOCK_MIN_SAVING", np.inf)
        dense = WeightedOperator(block.A)
        dense._pattern
        patch.setattr(linalg, "DIRECT_MAX_DIM", 2)
        csr = WeightedOperator(block.A)
        csr._pattern
    sizes = [op._pattern.Q.shape[0] for op in (block, dense, csr)]
    assert sizes == [7600, 150 ** 2, block._pattern.csr.nnz]
    assert (dense._pattern.split, csr._pattern.split) == (None, None)
    # every layout's sparse() copies its operator's CSR template
    for op in (block, dense, csr):
        assert_sparse_copies_the_template(op.at(w, 1e-3), op.at(w, 0.25))
    want = {}
    for scale in (1e-3, 0.25, 1e-3):
        grams = [op.at(w, scale) for op in (block, dense, csr)]
        # each layout sums the same diagonal in the same order
        assert all(g.reg == grams[0].reg for g in grams)
        S = (A * w) @ A.T + grams[0].reg * np.eye(150)
        forms = [g.sparse().toarray() for g in grams]
        forms.append(grams[1].direct().copy())
        assert all(np.array_equal(f, forms[0]) for f in forms)
        assert np.abs(forms[0] - S).max() <= 1e-13 * np.abs(S).max()
        I, F = block._pattern.split
        blocks = grams[0].direct()
        assert np.array_equal(blocks.FF, forms[0][np.ix_(F, F)])
        assert np.array_equal(blocks.B, forms[0][np.ix_(F, I)])
        assert np.array_equal(blocks.d, forms[0][I, I])
        assert np.array_equal(forms[0], want.setdefault(scale, forms[0]))


@pytest.fixture(scope="module")
def matching_50x100_tape(matching_50x100):
    return solve_with_tape(matching_50x100, SolverConfig(max_iters=50, seed=7))[1]


@pytest.mark.parametrize("step", [1, 25, 49])
def test_block_solve_meets_the_backward_error_bound(matching_50x100_tape, step):
    # as spd_solve's docstring states it, from a new factor and from the
    # step's, on a right-hand side other than b
    tape = matching_50x100_tape
    det, A = tape.steps[step], tape.prep.source.operator.A.toarray()
    w = det.x_prev / tape.prep.c
    S = (A * w) @ A.T + det.gram.reg * np.eye(A.shape[0])
    rhs = np.random.default_rng(step).normal(size=A.shape[0])
    tol = 1e-10
    for gram in (tape.prep.source.operator.at(w, det.gram.scale), det.gram):
        assert gram.reg == det.gram.reg
        rep = spd_solve(gram, rhs, tol=tol)
        assert gram.factor.shape == (50, 50) and rep.iterations == 0
        bound = tol * (np.linalg.norm(rhs) + np.diag(S).max() * np.linalg.norm(rep.p))
        assert np.linalg.norm(S @ rep.p - rhs) <= bound


@pytest.mark.parametrize("step", [0, 10, 25, 49])
def test_block_factor_is_that_of_the_schur_complement(matching_50x100_tape, step):
    # the factor that one SYRK and dpotrf leave on a block step's gram:
    # on the lower triangle, all that dpotrf reads and writes, L L^T is
    # S_FF - S_FI diag(1/d_I) S_FI^T formed in numpy.  The bound is
    # relative to S_FF, as complements cancel: at most 4.0e-16 measured,
    # and up to 1.7e-14 relative to the complement itself.
    # The SYRK writes into a copy: the gram's S_FF stays symmetric.
    gram = matching_50x100_tape.steps[step].gram
    blocks = gram.direct()
    L = np.tril(gram.factor)
    want = blocks.FF - (blocks.B / blocks.d) @ blocks.B.T
    lower = np.tril_indices(blocks.F.size)
    assert np.abs((L @ L.T - want)[lower]).max() <= 1e-14 * np.abs(blocks.FF).max()
    assert np.array_equal(blocks.FF, blocks.FF.T)


def test_block_factor_of_a_diagonal_gram():
    # A = [I I]: no two rows share a column, so every row is eliminated
    # first and the Schur complement is empty; the costs differ by 2x in
    # each pair, so 100 steps reach the cheaper side's vertex
    m = 100
    rng = np.random.default_rng(3)
    first = np.where(rng.uniform(size=m) < 0.5, 1.0, 2.0)
    c = np.concatenate([first, 3.0 - first])
    b = rng.uniform(0.5, 1.5, size=m)
    lp = StandardFormLP(np.hstack([np.eye(m), np.eye(m)]), b, c)
    assert lp.operator._pattern.split.F.size == 0
    res, tape = solve_with_tape(lp, SolverConfig(max_iters=100, seed=3))
    assert all(det.gram.factor.shape == (0, 0) for det in tape.steps)
    cheap = c[:m] < c[m:]
    assert np.abs(res.x - np.concatenate([b * cheap, b * ~cheap])).max() <= 1e-6
    det = tape.steps[0]
    w = det.x_prev / c
    assert np.allclose(det.p, b / (w[:m] + w[m:] + det.gram.reg), rtol=1e-14, atol=0.0)
    grads = backward(tape, rng.normal(size=2 * m))
    assert np.isfinite(grads.grad_c).all()


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100"])
def test_a_failed_factor_falls_back_to_pcg_on_both_routes(name, request, monkeypatch):
    # dpotrf reporting failure, on the whole matrix or on the Schur
    # complement alike: no factor is kept and PCG solves the system
    lp = request.getfixturevalue(name)
    w = np.random.default_rng(2).uniform(0.1, 2.0, size=lp.n)
    gram = lp.operator.at(w)
    want = spd_solve(gram, lp.b, TOL)
    assert gram.factor is not None and want.iterations == 0
    monkeypatch.setattr(linalg, "dpotrf", lambda a, **kwargs: (a, 1))
    gram = lp.operator.at(w)
    rep = spd_solve(gram, lp.b, TOL)
    assert gram.factor is None and rep.iterations > 0
    assert np.linalg.norm(rep.p - want.p) <= 1e-8 * np.linalg.norm(want.p)


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100", "dag_600"])
def test_a_factored_solve_ignores_the_start(name, request):
    # the dense and the block factor of direct steps, and on a CG step
    # the last resort's factor: refinement begins at the Cholesky answer
    lp = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    w, start = rng.uniform(0.1, 2.0, size=lp.n), rng.normal(size=lp.m)
    grams = [lp.operator.at(w) for _ in range(2)]
    for gram in grams:
        gram.factor = linalg._factor(gram.direct() if lp.m <= linalg.DIRECT_MAX_DIM
                                     else gram.sparse().toarray())
        assert gram.factor is not None
    plain, started = spd_solve(grams[0], lp.b, TOL), spd_solve(grams[1], lp.b, TOL, start)
    assert np.array_equal(plain.p, started.p)
    assert plain.iterations == started.iterations == 0


def test_a_cg_solve_starts_from_the_best_multiple_of_the_start(dag_600):
    op, b = dag_600.operator, dag_600.b
    w = np.random.default_rng(6).uniform(0.1, 2.0, size=dag_600.n)
    cold = spd_solve(op.at(w), b, 1e-10)
    # a start that is not positive in the S-norm, or not finite, is zero
    for start in (np.zeros(dag_600.m), np.full(dag_600.m, np.nan)):
        again = spd_solve(op.at(w), b, 1e-10, start)
        assert np.array_equal(again.p, cold.p) and again.iterations == cold.iterations
    # a multiple of an answer that meets the target meets it as well
    assert spd_solve(op.at(w), b, 1e-8, -3.0 * cold.p).iterations == 0
    noise = np.random.default_rng(7).normal(size=dag_600.m)
    near = spd_solve(op.at(w), b, 1e-10, 1.01 * cold.p + 1e-3 * noise)
    assert 0 < near.iterations < cold.iterations
    assert np.linalg.norm(near.p - cold.p) <= 1e-6 * np.linalg.norm(cold.p)


@pytest.mark.parametrize("scale, orders", [(0.5, [50]), (1.5, [])],
                         ids=["schur-indefinite", "diagonal-indefinite"])
def test_an_indefinite_matrix_breaks_down_on_both_routes(matching_50x100, monkeypatch,
                                                         scale, orders):
    # reg = -d/2 keeps the diagonal block positive but makes the matrix,
    # and so its Schur complement, indefinite; at -1.5 d a diagonal
    # entry is negative and the block route factors nothing, where an
    # LDL^T of the blocks would still solve the system; the dense route
    # raises Breakdown on the same matrices
    op = matching_50x100.operator
    w = np.random.default_rng(1).uniform(0.1, 2.0, size=matching_50x100.n)
    bare = op.at(w, 0.0)
    # the Tikhonov scale whose reg, scale * trace / m, is -scale * d
    trace = bare.values[op._pattern.diagonal].sum()
    reg_scale = -scale * bare.direct().d.min() * op.A.shape[0] / trace
    potrf, seen = linalg.dpotrf, []

    def spy(a, **kwargs):
        seen.append(a.shape[0])
        return potrf(a, **kwargs)
    monkeypatch.setattr(linalg, "dpotrf", spy)
    with pytest.raises(Breakdown):
        spd_solve(op.at(w, reg_scale), matching_50x100.b, TOL)
    assert seen == orders
    # the dense route: an operator whose Q writes the row-major layout
    monkeypatch.setattr(linalg, "BLOCK_MIN_SAVING", np.inf)
    dense = WeightedOperator(op.A)
    assert dense._pattern.split is None
    with pytest.raises(Breakdown):
        spd_solve(dense.at(w, reg_scale), matching_50x100.b, TOL)
    assert seen == orders + [150]


# ------------------------------------------------------------ PCG kernel

def reference_pcg(S_matvec, b, diag, target, max_iters):
    """Jacobi-PCG from zero in plain numpy, one temporary or in-place
    numpy call per vector operation: the loop that _pcg runs through
    BLAS ddot and daxpy, with the same stopping rules."""
    inv_diag = 1.0 / np.maximum(diag, np.finfo(np.float64).tiny)
    x = np.zeros(b.shape[0])
    r = b.copy()
    rnorm = np.linalg.norm(r)
    if rnorm <= target or diag.min() < 0.0:
        return x, 0, rnorm
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iters + 1):
        Sd = S_matvec(d)
        dSd = float(d @ Sd)
        if dSd <= 0.0 or not np.isfinite(dSd):
            break
        alpha = rz / dSd
        x += alpha * d
        Sd *= alpha
        r -= Sd
        rnorm = np.linalg.norm(r)
        if rnorm <= target:
            return x, k, rnorm
        np.multiply(inv_diag, r, out=z)
        rz_next = float(r @ z)
        d *= rz_next / rz
        d += z
        rz = rz_next
    return x, max_iters, np.linalg.norm(b - S_matvec(x))


def pcg_from_zero(S_matvec, b, diag, target, max_iters):
    """_pcg from x = 0, whose residual is b."""
    return _pcg(S_matvec, b, diag, np.zeros(b.size), b.copy(), target, max_iters)


@pytest.fixture(scope="module")
def dag_600_systems(dag_600):
    """A diag(w) A^T + reg*I, as CSR, at the first, 50th and last step
    of a 100-step dag_600 tape, and that tape's right-hand side b."""
    _, tape = solve_with_tape(dag_600, SolverConfig(max_iters=100, seed=7))
    systems = [det.gram.sparse() for det in (tape.steps[0], tape.steps[49], tape.steps[99])]
    return systems, tape.prep.source.b


@pytest.mark.parametrize("step", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize("rhs", ["b", "random"])
def test_pcg_follows_the_reference_loop(dag_600_systems, step, tol, rhs):
    # daxpy fuses multiply and add, so the iterates differ from the
    # numpy loop's at rounding level, but a wrong buffer swap would
    # still converge, only in many more iterations
    systems, b = dag_600_systems
    S = systems[step]
    if rhs == "random":
        b = np.random.default_rng(step).normal(size=b.size)
    args = (S.__matmul__, b, S.diagonal(), tol * np.linalg.norm(b), 10 * b.size)
    x, iters, res = pcg_from_zero(*args)
    x_ref, iters_ref, _ = reference_pcg(*args)
    assert 0 < iters < 10 * b.size
    assert abs(iters - iters_ref) <= 1
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert res == pytest.approx(np.linalg.norm(S @ x - b), rel=1e-6)


def test_pcg_takes_no_step_from_an_answer_that_meets_the_target(dag_600_systems):
    systems, b = dag_600_systems
    S = systems[1]
    x0 = reference_pcg(S.__matmul__, b, S.diagonal(), 1e-12 * np.linalg.norm(b), 6000)[0]
    start = x0.copy()
    x, iters, res = _pcg(S.__matmul__, b, S.diagonal(), start, b - S @ x0,
                         1e-10 * np.linalg.norm(b), 6000)
    assert iters == 0
    assert x is start and np.array_equal(x, x0)
    assert res == np.linalg.norm(b - S @ x0)


@pytest.mark.parametrize("S, b", [
    # a negative diagonal entry: PCG does not start
    (np.diag([1.0, -1.0]), np.array([1.0, 1.0])),
    # a positive diagonal but d^T S d < 0 on the first direction
    (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, -1.0])),
], ids=["negative-diagonal", "negative-curvature"])
def test_pcg_stops_on_an_indefinite_matrix_as_the_reference_does(S, b):
    args = (S.__matmul__, b, np.diag(S).copy(), 1e-10, 20)
    x, iters, res = pcg_from_zero(*args)
    x_ref, iters_ref, res_ref = reference_pcg(*args)
    assert iters == iters_ref
    assert np.array_equal(x, x_ref) and res == res_ref
    assert res > 1e-10


# ------------------------------------------------- the caller's arrays

def readonly(v):
    v = np.array(v, dtype=np.float64)
    v.flags.writeable = False
    return v


def weighted_cg_system(lp):
    rng = np.random.default_rng(8)
    return lp.operator.at(rng.uniform(0.1, 1.0, size=lp.n)), lp.b


def weighted_refined_system(lp):
    # a gram that holds the factor of another gram's matrix
    rng = np.random.default_rng(10)
    w = rng.uniform(0.1, 2.0, size=lp.n)
    stale = lp.operator.at(2.0 * w, 1e-3)
    spd_solve(stale, lp.b, TOL)
    L = lp.operator.at(w, 1e-3)
    L.factor = stale.factor
    return L, rng.normal(size=lp.m)


@pytest.mark.parametrize("case", ["weighted-cg", "weighted-refined"])
def test_spd_solve_leaves_a_read_only_rhs_alone(case, dag_600, matching_5x50):
    L, b = {
        "weighted-cg": lambda: weighted_cg_system(dag_600),
        "weighted-refined": lambda: weighted_refined_system(matching_5x50),
    }[case]()
    b = readonly(b)
    before = b.copy()
    rep = spd_solve(L, b, TOL)
    assert rep.iterations > 0  # every case runs PCG
    assert np.array_equal(b, before)
    assert rep.p is not b


def test_solve_and_backward_leave_the_lp_alone(dag_600_graph):
    # the prepared LP shares b with the caller's LP, so a write into
    # the PCG residual's buffer would change the LP for every later step
    lp = build_shortest_path_lp(dag_600_graph, 0, dag_600_graph.num_nodes - 1)
    for arr in (lp.A.data, lp.b, lp.c):
        arr.flags.writeable = False
    before = lp.b.copy()
    cfg = SolverConfig(max_iters=10, seed=3)
    solve(lp, cfg)
    _, tape = solve_with_tape(lp, cfg)
    assert tape.prep.source.b is lp.b
    backward(tape, np.random.default_rng(3).normal(size=lp.n))
    assert np.array_equal(lp.b, before)
