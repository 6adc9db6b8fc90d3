import numpy as np
import pytest

from weakkam import measures, simplex
from weakkam.errors import (
    InfeasibleLP,
    MaxIterExceeded,
    SingularBasis,
    UnboundedLP,
    WeakKAMError,
)
from weakkam.critical import build_critical_data
from weakkam.discounted import solve_discounted
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.limits import vanishing_discount_study
from weakkam.measures import (
    build_discounted_lp,
    build_ergodic_lp,
    closedness_residual,
    lp_solve,
    mather_face,
)
from weakkam.models import make_model, superlinearize
from weakkam.simplex import Columns, solve_lp

from helpers import brute_force_lp, eager_dual_cleanup, eager_simplex


def test_two_variable_toy():
    # min x1 s.t. x1 + x2 = 1
    sol = solve_lp([1.0, 0.0], Columns.from_dense([[1.0, 1.0]]), [1.0])
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_degenerate_ties_are_deterministic():
    # two symmetric optima; Bland-style lowest-index tie-breaking picks one
    c = [1.0, 1.0, 0.0]
    A = Columns.from_dense([[1.0, -1.0, 0.0], [1.0, 1.0, 1.0]])
    b = [0.0, 2.0]
    sols = [solve_lp(c, A, b) for _ in range(3)]
    for s in sols[1:]:
        np.testing.assert_array_equal(sols[0].x, s.x)
    assert sols[0].objective == pytest.approx(0.0, abs=1e-9)


def test_infeasible():
    with pytest.raises(InfeasibleLP):
        solve_lp([1.0], Columns.from_dense([[1.0], [1.0]]), [1.0, 2.0])


def test_dual_clean_up_raises_infeasible_lp(monkeypatch):
    # x1 + x2 = -5e-9 misses feasibility by less than phase 1's tolerance;
    # read against the exact right-hand side the final basis sits at
    # -5e-9 < -1e-9, and the clean-up finds no column to pivot in
    calls = _counting(monkeypatch, "_dual_cleanup")
    with pytest.raises(InfeasibleLP, match="no dual pivot"):
        solve_lp(np.zeros(2), Columns.from_dense([[1.0, 1.0]]), [-5e-9])
    assert len(calls) == 1


def test_unbounded():
    # min -x1 with x1 - x2 = 0: the ray (t, t) is improving and feasible
    with pytest.raises(UnboundedLP):
        solve_lp([-1.0, 0.0], Columns.from_dense([[1.0, -1.0]]), [0.0])


def test_redundant_row_raises_singular_basis_naming_it():
    A = Columns.from_dense([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(SingularBasis, match="constraint row 1 "):
        solve_lp([1.0, 2.0], A, [1.0, 2.0])


def test_phase_1_drives_a_zero_level_artificial_out(monkeypatch):
    # row 1 is twice row 0 less 2 x2, so x2 = 0 at every feasible point:
    # phase 1 ends with row 1's artificial basic at level zero, and one
    # drive-out pivot replaces it by x2
    ends = []
    core = simplex._core

    def recording(*args):
        out = core(*args)
        ends.append((out[0].copy(), out[2].copy(), out[3]))
        return out

    monkeypatch.setattr(simplex, "_core", recording)
    A = Columns.from_dense([[1.0, 1.0, 0.0], [2.0, 2.0, -2.0]])
    sol = solve_lp([1.0, 2.0, 0.0], A, [1.0, 2.0])
    (basis1, xB1, pivots1), (basis2, _, pivots2) = ends
    assert basis1.tolist() == [0, 4] and xB1[1] == 0.0
    assert basis2.tolist() == [0, 2]
    assert sol.iterations == pivots1 + 1 + pivots2
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert sol.objective == pytest.approx(1.0)


def test_duals_certify_optimality():
    rng = np.random.default_rng(5)
    m, n = 4, 9
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.5, 1.0, size=n)
    b = A @ x_feas
    c = rng.normal(size=n)
    sol = solve_lp(c, Columns.from_dense(A), b)
    reduced = c - sol.duals @ A
    assert float(np.min(reduced)) >= -1e-7
    # complementary slackness: basic variables have zero reduced cost
    assert np.max(np.abs(reduced[sol.x > 1e-9])) <= 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_basis_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 4), rng.integers(4, 7)
    A = rng.normal(size=(m, n)).round(2)
    x_feas = rng.uniform(0.1, 1.0, size=n).round(2)
    b = A @ x_feas                     # feasible by construction
    c = rng.uniform(0.0, 2.0, size=n).round(2)  # bounded: c >= 0 on x >= 0
    sol = solve_lp(c, Columns.from_dense(A), b)
    assert sol.objective == pytest.approx(brute_force_lp(c, A, b), abs=1e-7)


def _degenerate_lp(seed):
    """Integer data and a 0/1 feasible point: many vertices are degenerate."""
    rng = np.random.default_rng(seed)
    A = rng.integers(-2, 3, size=(4, 8)).astype(float)
    b = A @ rng.integers(0, 2, size=8)
    return rng.integers(0, 3, size=8).astype(float), A, b


def test_blands_rule_matches_basis_enumeration(monkeypatch):
    # with STALL_LIMIT = 1 the first pivot that does not lower the objective
    # switches to Bland's rule.  The random LPs above never stall, so they
    # pivot as before; these degenerate ones take other pivots to the same
    # optimum
    lps = [_degenerate_lp(seed) for seed in (38, 67, 130, 153)]
    dantzig = [solve_lp(c, Columns.from_dense(A), b).iterations for c, A, b in lps]
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    for seed in range(8):
        test_random_lps_match_basis_enumeration(seed)
    for (c, A, b), before in zip(lps, dantzig):
        sol = solve_lp(c, Columns.from_dense(A), b)
        assert sol.iterations != before
        assert sol.objective == pytest.approx(brute_force_lp(c, A, b), abs=1e-7)


def test_blands_rule_solves_the_ergodic_lp(monkeypatch):
    # the quadratic model at h = 0.1: the switch after one stalled pivot
    # costs 180 pivots instead of 152, to the same optimum (1.1e-31, 0)
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    problem = build_ergodic_lp(make_model("quadratic", "half_square"), g, vs,
                               transition=build_transition(g, vs))
    dantzig = lp_solve(problem)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    bland = lp_solve(problem)
    assert bland.iterations > dantzig.iterations
    assert bland.objective == pytest.approx(dantzig.objective, abs=1e-12)
    assert closedness_residual(bland.measure, problem.transition) <= 1e-8


def test_warm_start_reuses_basis():
    rng = np.random.default_rng(11)
    m, n = 5, 20
    D = rng.normal(size=(m, n))
    b = D @ rng.uniform(0.5, 1.0, size=n)
    A = Columns.from_dense(D)
    c1 = rng.uniform(0.0, 1.0, size=n)
    first = solve_lp(c1, A, b)
    c2 = c1 + 0.01 * rng.uniform(size=n)
    warm = solve_lp(c2, A, b, start=_dense_start(c2, A, b, first.basis))
    cold = solve_lp(c2, A, b)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert warm.iterations <= cold.iterations


def _counting(monkeypatch, name):
    """Record the calls of simplex.<name>."""
    calls = []
    fn = getattr(simplex, name)

    def counting(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(simplex, name, counting)
    return calls


def _dense_start(c, A, b, basis):
    """The start (basis, xB, y), its values from dense solves of the basis."""
    B = A.dense(basis)
    return basis, np.linalg.solve(B, b), np.linalg.solve(B.T, np.asarray(c)[basis])


def _random_lp(seed, m=5, n=20):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(m, n))
    b = D @ rng.uniform(0.5, 1.0, size=n)        # rows of both signs
    return D, b, rng


def test_an_optimal_start_is_certified_without_an_inverse(monkeypatch):
    D, b, rng = _random_lp(12)
    A, c = Columns.from_dense(D), rng.uniform(0.0, 1.0, size=D.shape[1])
    first = solve_lp(c, A, b)
    assert (b < 0).any() and first.iterations > 0
    start = _dense_start(c, A, b, first.basis)
    inversions = _counting(monkeypatch, "_inverse")
    again = solve_lp(c, A, b, start=start)
    assert again.iterations == 0 and not inversions
    np.testing.assert_array_equal(again.basis, first.basis)
    assert again.objective == pytest.approx(first.objective, rel=1e-12)
    reduced = c - again.duals @ D
    assert np.min(reduced) >= -1e-9
    assert np.max(np.abs(reduced[again.basis])) <= 1e-9


@pytest.mark.parametrize("kind", ["ergodic", "discounted"])
@pytest.mark.parametrize("which", ["xB0", "y0"])
def test_start_values_off_by_1e_6_are_not_returned(kind, which, monkeypatch):
    # the residual check refuses the perturbed values, so phase 1 runs and
    # reaches the optimum the exact start certifies; the ergodic duals are
    # not unique, so phase 1's need only be dual feasible and tight on the
    # same Mather face
    g = build_grid([[-4.0, 4.0]], 0.05)
    vs = build_velocity_set(1.5, 7)
    model = superlinearize(make_model("eikonal", "abs"), g)
    tr = build_transition(g, vs)
    if kind == "ergodic":
        tree = measures.aubry_tree(model, g, vs, tr,
                                   build_critical_data(model, g, vs, transition=tr))
        problem = build_ergodic_lp(model, g, vs, transition=tr, policy=tree)
    else:
        policy = solve_discounted(model, g, vs, 0.5, transition=tr).policy
        problem = build_discounted_lp(model, g, vs, 0.5, 100, transition=tr, policy=policy)
    args = (problem.c, problem.A, problem.b)
    exact = solve_lp(*args, start=problem.start)
    assert exact.iterations == 0
    start = list(problem.start)
    at = {"xB0": 1, "y0": 2}[which]
    start[at] = start[at].copy()
    start[at][len(problem.b) // 2] += 1e-6
    phase1 = _counting(monkeypatch, "_phase1")
    sol = solve_lp(*args, start=tuple(start))
    assert len(phase1) == 1
    assert sol.objective == pytest.approx(exact.objective, rel=0.0, abs=1e-12)
    D = problem.A.dense(np.arange(problem.A.shape[1]))
    reduced = problem.c - sol.duals @ D
    assert np.min(reduced) >= -1e-9 * (1.0 + np.max(np.abs(sol.duals)))
    if kind == "ergodic":
        faces = [mather_face(problem, res) for res in (exact, sol)]
        np.testing.assert_array_equal(faces[0].columns, faces[1].columns)
    else:
        np.testing.assert_allclose(sol.x, exact.x, rtol=0.0, atol=1e-12)


def test_a_feasible_start_that_must_pivot_is_inverted_once(monkeypatch):
    D, b, rng = _random_lp(12)
    A = Columns.from_dense(D)
    c1, c2 = (rng.uniform(0.0, 1.0, size=D.shape[1]) for _ in range(2))
    first = solve_lp(c1, A, b)
    cold = solve_lp(c2, A, b)
    start = _dense_start(c2, A, b, first.basis)
    inversions = _counting(monkeypatch, "_inverse")
    phase1 = _counting(monkeypatch, "_phase1")
    warm = solve_lp(c2, A, b, start=start)
    assert len(inversions) == 1 and not phase1
    assert warm.iterations > 0
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


def test_an_infeasible_start_falls_back_to_phase_1(monkeypatch):
    # x1 + x2 + x3 = 1 and x1 - x2 = 0.5: the basis {x2, x3} has x2 = -0.5
    D = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    b, c = [1.0, 0.5], [1.0, 2.0, 3.0]
    A = Columns.from_dense(D)
    start = _dense_start(c, A, b, np.array([1, 2]))
    inversions = _counting(monkeypatch, "_inverse")
    phase1 = _counting(monkeypatch, "_phase1")
    sol = solve_lp(c, A, b, start=start)
    assert len(phase1) == 1 and not inversions
    assert sol.objective == pytest.approx(brute_force_lp(c, D, b), abs=1e-12)


def test_a_drifted_product_form_is_inverted_afresh(monkeypatch):
    # rows and columns scaled by up to 1e7 each: after some pivots the
    # basic solution read from the product form misses b by more than the
    # grading step, and the basis is inverted again; the eager dense
    # reference, checking its explicit inverse by the same rule, takes the
    # same path
    rng = np.random.default_rng(2)
    m, n = 30, 90
    D = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    D *= 10.0 ** rng.uniform(-7, 7, size=(m, 1))
    D *= 10.0 ** rng.uniform(-7, 7, size=(1, n))
    b = D @ rng.uniform(0.5, 1.0, size=n)
    c = rng.uniform(0.0, 1.0, size=n)
    A = Columns.from_dense(D)
    inversions = _counting(monkeypatch, "_inverse")
    sol = solve_lp(c, A, b)
    assert len(inversions) >= 1
    x, _, iterations, basis = eager_simplex(c, A, b)
    assert sol.iterations == iterations
    np.testing.assert_array_equal(sol.basis, basis)
    assert sol.objective == pytest.approx(float(c @ x), rel=1e-12)


def test_badly_scaled_lps_return_a_point_with_no_clipping_residual():
    # rows and columns scaled by up to 1e5 each: a basic variable is judged
    # by the residual its clipping at 0 leaves, xB_i max|A[:, B_i]|, not by
    # xB_i alone, which left max|A x - b| / max|b| up to 4.6e-3 in 14 of
    # these 20 LPs; the eager reference, judging by the same rule, makes
    # the same pivots
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = 40, 120
        D = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.3)
        D *= 10.0 ** rng.uniform(-5, 5, size=(m, 1))
        D *= 10.0 ** rng.uniform(-5, 5, size=(1, n))
        b = D @ rng.uniform(0.5, 1.0, size=n)
        c = rng.uniform(0.0, 1.0, size=n)
        A = Columns.from_dense(D)
        sol = solve_lp(c, A, b)
        assert np.max(np.abs(D @ sol.x - b)) <= 1e-12 * np.max(np.abs(b)), seed
        if seed < 4:
            _, _, iterations, basis = eager_simplex(c, A, b)
            assert sol.iterations == iterations
            np.testing.assert_array_equal(sol.basis, basis)


def test_iterations_count_every_pivot(monkeypatch):
    # phase 1 of this flow LP leaves no artificial in the basis: 41 phase-1
    # pivots and no drive-out pivot, then phase 2
    calls = []
    pivot = simplex.BasisInverse.pivot

    def counting(*args):
        calls.append(1)
        return pivot(*args)

    monkeypatch.setattr(simplex.BasisInverse, "pivot", counting)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    res = lp_solve(build_ergodic_lp(make_model("quadratic", "half_square"), g, vs,
                                    transition=build_transition(g, vs)))
    assert len(calls) > 0
    assert res.iterations == len(calls)


def test_ratio_test_passes_over_a_tiny_tied_pivot():
    # both rows tie at ratio 0 and the lower basis index holds the 1e-8
    # entry: pivoting there would leave max |Binv| = 1e8
    A = Columns.from_dense([[1e-8, 1.0, 0.0], [1.0, 0.0, 1.0]])
    basis, Binv, _, _ = simplex._core(A, np.zeros(2), np.array([-1.0, 0.0, 0.0]),
                                      np.array([1, 2]), simplex.BasisInverse(np.eye(2)),
                                      max_iter=10)
    assert basis.tolist() == [1, 0]
    Binv.fold()
    assert np.max(np.abs(Binv.base)) == 1.0


def test_iteration_cap_raises_max_iter_exceeded():
    A = simplex.Columns.from_dense(np.array([[1.0, 1.0]]))
    with pytest.raises(MaxIterExceeded):
        simplex._core(A, np.array([1.0]), np.array([1.0, 0.0]), np.array([0]),
                      simplex.BasisInverse(np.eye(1)), max_iter=0)


def test_dual_cleanup_cap_raises_max_iter_exceeded():
    # x1, x2 >= 1 as x_i - s_i = 1: the surplus basis is dual feasible, both
    # of its rows are infeasible, and each takes one dual pivot
    A = Columns.from_dense([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 1.0, 0.0, 0.0])

    def cleanup(max_iter):
        return simplex._dual_cleanup(A, b, c, np.array([2, 3]),
                                     simplex.BasisInverse(-np.eye(2)), -b, np.zeros(2),
                                     max_iter=max_iter)

    basis, Binv, xB, it = cleanup(2)
    assert sorted(basis) == [0, 1] and it == 2
    with pytest.raises(MaxIterExceeded) as info:
        cleanup(1)
    assert info.value.iterations == 1


@pytest.mark.parametrize("c2", [0.2, np.nextafter(0.2, 1.0)], ids=["exact", "rounded"])
def test_dual_ratio_test_breaks_a_2_to_1_tie_toward_the_larger_pivot(c2):
    # x1 + 2 x2 + 2 x3 - s = 0.3 from the surplus basis {s}: x1 has reduced
    # cost 0.1 and pivot element -1, x2 and x3 have c2 and -2, so the three
    # ratios tie in exact arithmetic; with c2 one ulp above 0.2 rounding
    # alone puts x1's ratio first.  The largest -alpha wins, then the lower
    # index.
    A = Columns.from_dense([[1.0, 2.0, 2.0, -1.0]])
    b = np.array([0.3])
    c = np.array([0.1, c2, c2, 0.0])
    basis, _, xB, it = simplex._dual_cleanup(A, b, c, np.array([3]),
                                             simplex.BasisInverse(-np.eye(1)), -b,
                                             np.zeros(1), max_iter=5)
    assert it == 1 and basis.tolist() == [1]
    assert xB[0] == pytest.approx(0.15)
    want = eager_dual_cleanup(A, b, c, np.array([3]), -np.eye(1), -b, max_iter=5)
    assert want[0].tolist() == [1] and want[3] == 1


def _eager_pivot(Binv, d, row):
    """The explicit rank-1 update of a pivot on `row` with transformed column d."""
    prow = Binv[row] / d[row]
    out = Binv - np.outer(d, prow)
    out[row] = prow
    return out


@pytest.mark.parametrize("density", [0.04, 1.0])
def test_pivot_update_matches_the_full_outer_product(density):
    # one deferred term, folded, is the same products as the outer product
    rng = np.random.default_rng(6)
    m, row, theta = 200, 150, 0.3
    d = rng.normal(size=m) * (rng.uniform(size=m) < density)
    d[row] = 1.7
    Binv = rng.normal(size=(m, m))
    xB = rng.uniform(size=m)
    want, want_xB = _eager_pivot(Binv, d, row), xB - theta * d
    want_xB[row] = theta
    inv = simplex.BasisInverse(Binv)
    prow = inv.pivot(xB, d, row, theta)
    np.testing.assert_array_equal(prow, want[row])
    inv.fold()
    np.testing.assert_array_equal(inv.base, want)
    np.testing.assert_array_equal(xB, want_xB)


@pytest.mark.parametrize("d_density, prow_density", [
    (1.0, 1.0),      # both dense: a deferred term
    (0.04, 1.0),     # sparse d, dense pivot row: a deferred term
    (0.04, 0.02),    # a small block of nonzero rows and columns: applied at once
    (1.0, 0.02),     # a deferred term
])
def test_pivot_update_skips_zero_rows_and_columns_exactly(d_density, prow_density):
    rng = np.random.default_rng(7)
    m, row, theta = 300, 40, 0.6
    d = rng.normal(size=m) * (rng.uniform(size=m) < d_density)
    d[row] = -2.3
    Binv = rng.normal(size=(m, m))
    Binv[row] *= rng.uniform(size=m) < prow_density
    Binv[row, 0] = 1.1
    xB = rng.uniform(size=m)
    want = _eager_pivot(Binv, d, row)
    inv = simplex.BasisInverse(Binv)
    inv.pivot(xB, d, row, theta)
    assert inv.k == (max(d_density, prow_density) == 1.0)
    inv.fold()
    np.testing.assert_array_equal(inv.base, want)


def _pivot_sequence(rng, m, count):
    """Dense transformed columns and pivot rows for `count` pivots."""
    for _ in range(count):
        row = int(rng.integers(m))
        d = rng.normal(size=m)
        d[row] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        yield d, row


def test_deferred_pivots_read_and_fold_like_the_eager_update():
    rng = np.random.default_rng(8)
    m = 60
    eager = np.eye(m) + 0.1 * rng.normal(size=(m, m))
    inv = simplex.BasisInverse(eager.copy())
    xB = np.zeros(m)
    A = Columns.from_dense(rng.normal(size=(m, 5)) * (rng.uniform(size=(m, 5)) < 0.5))
    for count, (d, row) in enumerate(_pivot_sequence(rng, m, 20), start=1):
        eager = _eager_pivot(eager, d, row)
        inv.pivot(xB, d, row, 0.0)
        assert inv.k == count
    y, b = rng.normal(size=m), rng.normal(size=m)
    tol = dict(rtol=1e-13, atol=1e-13 * np.max(np.abs(eager)))
    for r in (0, 17, m - 1):
        np.testing.assert_allclose(inv.row(r), eager[r], **tol)
    for j in range(5):
        np.testing.assert_allclose(inv.col(A, j), A.matcol(eager, j), **tol)
    np.testing.assert_allclose(inv.left(y), y @ eager, **tol)
    np.testing.assert_allclose(inv.right(b), eager @ b, **tol)
    inv.fold()
    assert inv.k == 0
    np.testing.assert_allclose(inv.base, eager, **tol)


def test_a_block_is_folded_exactly_when_it_fills():
    rng = np.random.default_rng(9)
    m = 3 * simplex.BLOCK
    eager = np.eye(m) + 0.1 * rng.normal(size=(m, m))
    inv = simplex.BasisInverse(eager.copy())
    xB = np.zeros(m)
    for count, (d, row) in enumerate(_pivot_sequence(rng, m, simplex.BLOCK + 1),
                                     start=1):
        before = inv.base.copy()
        inv.pivot(xB, d, row, 0.0)
        eager = _eager_pivot(eager, d, row)
        if count < simplex.BLOCK:
            # a deferred term changes only the pivot row of `base`
            assert inv.k == count
            before[row] = inv.base[row]
            np.testing.assert_array_equal(inv.base, before)
        elif count == simplex.BLOCK:
            assert inv.k == 0
            np.testing.assert_allclose(inv.base, eager, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(eager)))
        else:
            assert inv.k == 1


def test_the_study_lps_pivot_as_the_eager_dense_reference(monkeypatch):
    # every LP of a small study is solved again, from the same start, by
    # the simplex that rewrites its explicit inverse at every pivot; on the
    # double well the ergodic LP's tree start is not optimal and pivots
    pivots = []
    solve = measures.solve_lp

    def checked(c, A, b, start=None):
        sol = solve(c, A, b, start=start)
        x, duals, iterations, basis = eager_simplex(c, A, b,
                                                    basis0=None if start is None else start[0])
        assert sol.iterations == iterations
        np.testing.assert_array_equal(sol.basis, basis)
        np.testing.assert_allclose(sol.x, x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sol.duals, duals, rtol=0.0, atol=1e-12)
        pivots.append(iterations)
        return sol

    monkeypatch.setattr(measures, "solve_lp", checked)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.5, 5)
    rep = vanishing_discount_study(make_model("quadratic", "double_well"), g, vs,
                                   [0.5, 0.25], probes=((0.0,), (1.0,)),
                                   transition=build_transition(g, vs))
    assert not rep.failures
    assert len(pivots) == 5 and pivots[0] > 0


@pytest.mark.parametrize("seed", range(3))
def test_random_lps_pivot_as_the_eager_dense_reference(seed):
    # hundreds of pivots on dense pivot rows: every path of the product
    # form (deferred terms, folds, refreshes, the price updates) is taken
    rng = np.random.default_rng(seed)
    m, n = 70, 210
    D = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    A = Columns.from_dense(D)
    c = rng.uniform(0.0, 1.0, size=n)
    b = D @ rng.uniform(0.5, 1.0, size=n)
    sol = solve_lp(c, A, b)
    x, duals, iterations, basis = eager_simplex(c, A, b)
    assert sol.iterations == iterations > 2 * simplex.BLOCK
    np.testing.assert_array_equal(sol.basis, basis)
    np.testing.assert_allclose(sol.x, x, rtol=0.0, atol=1e-12 * np.max(np.abs(x)))
    np.testing.assert_allclose(sol.duals, duals, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(duals)))
    # the optimal basis is dual feasible for any right-hand side: a new one
    # makes it primal infeasible, and dual pivots walk it back
    b2 = D @ (rng.uniform(size=n) * (rng.uniform(size=n) < 0.5))
    Binv = simplex._inverse(A, sol.basis)
    xB = Binv @ b2
    got = simplex._dual_cleanup(A, b2, c, sol.basis.copy(),
                                simplex.BasisInverse(Binv.copy()), xB.copy(),
                                c[sol.basis] @ Binv, max_iter=10**4)
    want = eager_dual_cleanup(A, b2, c, sol.basis.copy(), Binv, xB, max_iter=10**4)
    assert got[3] == want[3] > simplex.BLOCK
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[2], want[2], rtol=0.0,
                               atol=1e-12 * np.max(np.abs(want[2])))


def test_duals_after_dual_clean_up_pivots_certify_optimality(monkeypatch):
    # the ergodic rows cut near the optimum by a budget row <mu, L> + s =
    # optimum + 1e-5, started from the ergodic optimal basis plus s: a
    # degenerate flow polytope whose vertices under random costs end with
    # tens of dual pivots, so their duals are read from an inverse that
    # still holds deferred terms
    cleanup_pivots = []
    cleanup = simplex._dual_cleanup

    def counting(*args):
        out = cleanup(*args)
        cleanup_pivots.append(out[3])
        return out

    monkeypatch.setattr(simplex, "_dual_cleanup", counting)
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    problem = build_ergodic_lp(superlinearize(make_model("eikonal", "abs"), g), g, vs,
                               transition=build_transition(g, vs))
    ergodic = lp_solve(problem)
    A = problem.A.with_row(problem.c).with_unit_columns([problem.A.m])
    b = np.append(problem.b, ergodic.objective + 1e-5)
    start = np.append(ergodic.basis, len(problem.c))
    D = A.dense(np.arange(A.shape[1]))
    rng = np.random.default_rng(0)
    for _ in range(2):
        cleanup_pivots.clear()
        c = np.append(rng.uniform(0.0, 1.0, len(problem.c)), 0.0)
        sol = solve_lp(c, A, b, start=_dense_start(c, A, b, start))
        assert cleanup_pivots[-1] > 0
        reduced = c - sol.duals @ D
        scale = 1e-9 * (1.0 + np.max(np.abs(sol.duals)))
        assert np.min(reduced) >= -scale
        assert np.max(np.abs(reduced[sol.basis])) <= scale


def _sparse_matrix(rng, m, n):
    A = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    A[:, 1] = 0.0                       # an empty column
    return A


def test_columns_round_trip_dense_input():
    rng = np.random.default_rng(3)
    D = _sparse_matrix(rng, 6, 11)
    A = Columns.from_dense(D)
    assert A.shape == D.shape
    assert A.nnz == np.count_nonzero(D)
    assert A.rows.shape[1] == np.count_nonzero(D, axis=0).max()
    np.testing.assert_array_equal(A.dense(np.arange(11)), D)
    np.testing.assert_array_equal(A.dense(np.array([4, 0, 4])), D[:, [4, 0, 4]])
    keep = np.array([True, False, True, True, False, True])
    np.testing.assert_array_equal(A.take_rows(keep).dense(np.arange(11)), D[keep])
    sign = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    np.testing.assert_array_equal(A.scale_rows(sign).dense(np.arange(11)),
                                  D * sign[:, None])
    np.testing.assert_array_equal(A.with_unit_columns(np.arange(6)).dense(np.arange(17)),
                                  np.hstack([D, np.eye(6)]))
    row = rng.normal(size=11)
    np.testing.assert_array_equal(A.with_row(row).dense(np.arange(11)),
                                  np.vstack([D, row]))


def test_column_pricing_matches_dense_products():
    rng = np.random.default_rng(4)
    D = _sparse_matrix(rng, 7, 30)
    A = Columns.from_dense(D)
    y = rng.normal(size=7)
    np.testing.assert_allclose(A.vecmat(y), y @ D, rtol=0.0, atol=1e-14)
    B = rng.normal(size=(7, 7))
    for j in range(30):
        np.testing.assert_allclose(A.matcol(B, j), B @ D[:, j], rtol=0.0, atol=1e-14)
    # restricted to some columns, as for a basis
    cols = np.array([4, 0, 29, 1])
    x = rng.normal(size=4)
    np.testing.assert_allclose(A.vecmat(y, cols), y @ D[:, cols], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(A.matvec(x, cols), D[:, cols] @ x, rtol=0.0, atol=1e-14)


def test_singular_basis_raises_a_weakkam_error():
    A = Columns.from_dense([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    with pytest.raises(SingularBasis) as info:
        simplex._inverse(A, np.array([0, 1]))
    assert isinstance(info.value, WeakKAMError)


def test_singular_crash_basis_falls_back_to_phase_1():
    # b is outside the range of the singular basis: its least-squares
    # values leave a residual, and the check refuses them
    c = [1.0, 1.0, 0.0]
    D = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    b = [1.0, 1.5]
    B = D[:, [0, 1]]
    start = (np.array([0, 1]), np.linalg.lstsq(B, b, rcond=None)[0],
             np.linalg.lstsq(B.T, [1.0, 1.0], rcond=None)[0])
    sol = solve_lp(c, Columns.from_dense(D), b, start=start)
    assert sol.objective == pytest.approx(brute_force_lp(c, D, b), abs=1e-9)


def test_solve_lp_never_solves_a_basis_densely(monkeypatch):
    # a start is used with its caller's values or refused for phase 1: no
    # path, a start optimal, one that must pivot, refused values, an
    # infeasible start or none, solves a system with a basis densely
    D, b, rng = _random_lp(12)
    A = Columns.from_dense(D)
    c1, c2 = (rng.uniform(0.0, 1.0, size=D.shape[1]) for _ in range(2))
    basis = solve_lp(c1, A, b).basis
    optimal = _dense_start(c1, A, b, basis)
    must_pivot = _dense_start(c2, A, b, basis)
    refused = (basis, optimal[1] + 1e-6, optimal[2])
    D3 = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    A3, b3, c3 = Columns.from_dense(D3), [1.0, 0.5], [1.0, 2.0, 3.0]
    infeasible = _dense_start(c3, A3, b3, np.array([1, 2]))
    calls = []
    linalg_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: calls.append(1) or linalg_solve(*args))
    assert solve_lp(c1, A, b, start=optimal).iterations == 0
    assert solve_lp(c2, A, b, start=must_pivot).iterations > 0
    for c, A_, b_, start in ((c1, A, b, refused), (c1, A, b, None),
                             (c3, A3, b3, infeasible)):
        solve_lp(c, A_, b_, start=start)
    assert not calls
