import tracemalloc

import numpy as np
import pytest

from weakkam.discounted import quadratic_rate, solve_discounted
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.measures import (
    DiscreteMeasure,
    build_discounted_lp,
    build_ergodic_lp,
    build_mather_polytope,
    closedness_residual,
    holonomy_residual,
    lp_solve,
    support_check,
    transport_distance,
)
from weakkam.models import lagrangian_table, make_model, superlinearize

from helpers import dense_lp_matrix, min_cycle_mean


def _measure(grid, vs, masses):
    """Ergodic-kind measure from a {(node, velocity_index): mass} table."""
    mass = np.zeros((grid.num_nodes, vs.size))
    for (i, m), v in masses.items():
        mass[i, m] = v
    return DiscreteMeasure(mass=mass, kind="ergodic")


# ---------------------------------------------------------------------------
# ergodic program
# ---------------------------------------------------------------------------

def test_ergodic_lp_hand_enumeration():
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    quad = make_model("quadratic", "half_square")
    res = lp_solve(build_ergodic_lp(quad, g, vs))
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    support = np.argwhere(res.measure.mass).tolist()
    assert support == [[g.node_near([0.0]), vs.zero_index()]]
    assert res.measure.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_ergodic_lp_shifted_model(grid_c, vs7, tr_c):
    shifted = make_model("quadratic", "half_square", normalization_shift=0.3)
    res = lp_solve(build_ergodic_lp(shifted, grid_c, vs7, transition=tr_c))
    # optimum equals -c with c = -0.3 for the downshifted Hamiltonian
    assert res.objective == pytest.approx(0.3, abs=1e-9)


def test_ergodic_optimum_matches_bisection(quad_crit, quad_ergodic):
    assert abs(quad_crit.c + quad_ergodic.objective) <= 0.02


def test_uniform_rest_measure_feasible_but_suboptimal(quad, grid_c, vs7, tr_c):
    n = grid_c.num_nodes
    z = vs7.zero_index()
    mu = _measure(grid_c, vs7, {(i, z): 1.0 / n for i in range(n)})
    assert closedness_residual(mu, tr_c) <= 1e-15
    L = lagrangian_table(quad, grid_c.coords, vs7.vectors)
    obj = float(np.sum(mu.mass[:, z] * L[:, z]))
    assert obj == pytest.approx(float(np.mean(0.5 * grid_c.coords[:, 0] ** 2)))
    assert obj > 0.0  # weak duality: any feasible measure dominates the optimum


def test_weak_duality_against_rest_points(quad, grid_c, vs7, tr_c, quad_ergodic):
    L = lagrangian_table(quad, grid_c.coords, vs7.vectors)
    for x in (-2.0, -0.5, 1.0, 3.0):
        i = grid_c.node_near([x])
        assert L[i, vs7.zero_index()] >= quad_ergodic.objective - 1e-9


def test_ergodic_lp_brute_force_cycle_mean(grid_tiny, vs3, tr_tiny):
    quad = make_model("quadratic", "half_square")
    res = lp_solve(build_ergodic_lp(quad, grid_tiny, vs3, transition=tr_tiny))
    L = lagrangian_table(quad, grid_tiny.coords, vs3.vectors)
    L = np.where(np.isfinite(L), L, 1e30)
    assert res.objective == pytest.approx(min_cycle_mean(L, tr_tiny), abs=1e-9)


def test_ergodic_lp_brute_force_asymmetric(grid_tiny, vs3, tr_tiny):
    from helpers import make_asymmetric_sampled
    model = make_asymmetric_sampled(grid_tiny)
    res = lp_solve(build_ergodic_lp(model, grid_tiny, vs3, transition=tr_tiny))
    L = lagrangian_table(model, grid_tiny.coords, vs3.vectors)
    L = np.where(np.isfinite(L), L, 1e30)
    assert res.objective == pytest.approx(min_cycle_mean(L, tr_tiny), abs=1e-9)


def test_ergodic_closedness_residual_of_lp_output(quad_ergodic, tr_c):
    assert closedness_residual(quad_ergodic.measure, tr_c) <= 1e-8


# ---------------------------------------------------------------------------
# discounted program
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def disc_setup():
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(2.0, 17)
    tr = build_transition(g, vs)
    quad = make_model("quadratic", "half_square")
    return g, vs, tr, quad


def test_discounted_lp_at_the_bottom(disc_setup):
    g, vs, tr, quad = disc_setup
    res = lp_solve(build_discounted_lp(quad, g, vs, 1.0, [0.0], transition=tr))
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_discounted_lp_matches_oracle(disc_setup):
    g, vs, tr, quad = disc_setup
    res = lp_solve(build_discounted_lp(quad, g, vs, 1.0, [1.0], transition=tr))
    assert res.objective == pytest.approx(quadratic_rate(1.0), abs=0.03)


def test_discounted_lp_eikonal_origin():
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    eik = superlinearize(make_model("eikonal", "abs"), g)
    res = lp_solve(build_discounted_lp(eik, g, vs, 0.5, [0.0]))
    assert res.objective == pytest.approx(0.0, abs=0.02)


def test_rep81_identity_shares_no_code_path(disc_setup):
    # LP optimum vs lambda * u_lambda(z) from policy iteration
    g, vs, tr, quad = disc_setup
    for lam, z in ((1.0, 1.0), (0.5, 0.0), (0.5, 1.0)):
        res = lp_solve(build_discounted_lp(quad, g, vs, lam, [z], transition=tr))
        sol = solve_discounted(quad, g, vs, lam, tol=1e-9, transition=tr)
        lam_u = lam * float(sol.u[g.node_near([z])])
        assert abs(res.objective - lam_u) <= 1e-6


def test_discounted_lp_is_the_exact_dual_of_the_scheme(disc_setup):
    # the solver returns the discrete fixed point itself, so at its default
    # tol the LP optimum matches lambda * u_lambda(z) to round-off
    g, vs, tr, quad = disc_setup
    for lam, z in ((1.0, 1.0), (0.5, 0.0), (0.5, 1.0), (0.1, 1.0)):
        res = lp_solve(build_discounted_lp(quad, g, vs, lam, [z], transition=tr))
        sol = solve_discounted(quad, g, vs, lam, transition=tr)
        lam_u = lam * float(sol.u[g.node_near([z])])
        assert abs(res.objective - lam_u) <= 1e-9, (lam, z)


def test_discounted_lp_holonomy_residual(disc_setup):
    g, vs, tr, quad = disc_setup
    res = lp_solve(build_discounted_lp(quad, g, vs, 0.5, [1.0], transition=tr))
    assert holonomy_residual(res.measure, 0.5, g.node_near([1.0]), tr) <= 1e-8
    assert res.measure.mass.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# residual diagnostics on hand-built measures
# ---------------------------------------------------------------------------

def test_residual_of_moving_delta(grid_c, vs7, tr_c):
    i = grid_c.node_near([1.0])
    m = int(np.argmax(vs7.vectors[:, 0]))
    mu = _measure(grid_c, vs7, {(i, m): 1.0})
    w_self = 0.0  # exact hit away from itself
    assert closedness_residual(mu, tr_c) == pytest.approx(1.0 - w_self)


def test_residual_of_resting_delta(quad_crit, grid_c, vs7, tr_c):
    z = int(quad_crit.aubry_nodes[0])
    mu = _measure(grid_c, vs7, {(z, vs7.zero_index()): 1.0})
    assert closedness_residual(mu, tr_c) == 0.0


# ---------------------------------------------------------------------------
# support checks
# ---------------------------------------------------------------------------

def test_support_check_ergodic_pass(quad_ergodic, quad_crit):
    rep = support_check(quad_ergodic.measure, quad_crit)
    assert rep.passed
    assert rep.outside_mass <= 1e-3


def test_support_check_discounted_is_informational(disc_setup, quad_crit, grid_c,
                                                   vs7, tr_c):
    res = lp_solve(build_discounted_lp(quad_crit.model, grid_c, vs7, 0.5, [1.0],
                                       transition=tr_c))
    rep = support_check(res.measure, quad_crit)
    assert rep.passed is None
    assert rep.outside_mass > 0.1  # mass rides the approach path


def test_support_check_uniform_fails(quad_crit, grid_c, vs7):
    n = grid_c.num_nodes
    mu = _measure(grid_c, vs7, {(i, vs7.zero_index()): 1.0 / n for i in range(n)})
    rep = support_check(mu, quad_crit)
    assert not rep.passed
    assert rep.outside_mass > 0.8


# ---------------------------------------------------------------------------
# generalized-Lagrangian family on the Mather face
# ---------------------------------------------------------------------------

def test_perturbed_lagrangians_stay_nonnegative(quad, grid_c, vs7, tr_c,
                                                quad_ergodic):
    # Phi = L - rho with rho a bump supported away from the bottom keeps the
    # strict subsolution 0.4 x^2, so Mather measures must pair >= 0 with it
    L = lagrangian_table(quad, grid_c.coords, vs7.vectors)
    xg = grid_c.coords[:, 0]
    strict_gap = 0.18 * xg ** 2  # min_q [L - (0.8 x) q] for u0 = 0.4 x^2
    rho = np.maximum(0.0, 1.0 - ((xg - 1.0) / 0.4) ** 2) ** 2
    rho *= 0.9 * strict_gap[grid_c.node_near([1.0])]
    phi = L - rho[:, None]
    val = float(np.sum(quad_ergodic.measure.mass * phi))
    assert val >= -1e-8


def test_mather_polytope_weak_duality(quad, grid_c, vs7, tr_c, quad_ergodic):
    poly = build_mather_polytope(build_ergodic_lp(quad, grid_c, vs7, transition=tr_c),
                                 quad_ergodic)
    rng = np.random.default_rng(0)
    objective = rng.uniform(0.0, 1.0, size=len(poly.active))
    measure = lp_solve(poly, objective).measure
    # the budget row keeps <mu, L> within slack of the ergodic optimum
    Lsum = float(measure.mass.reshape(-1)[poly.active] @ poly.c[:len(poly.active)])
    assert Lsum <= quad_ergodic.objective + poly.meta["slack"] + 1e-9
    assert closedness_residual(measure, tr_c) <= 1e-8


def test_transport_distance_basics(grid_c, vs7):
    a = _measure(grid_c, vs7, {(grid_c.node_near([0.0]), vs7.zero_index()): 1.0})
    b = _measure(grid_c, vs7, {(grid_c.node_near([1.0]), vs7.zero_index()): 1.0})
    assert transport_distance(a, a, grid_c) == 0.0
    assert transport_distance(a, b, grid_c) == pytest.approx(1.0, abs=1e-9)


def test_double_well_ties_resolve_deterministically():
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    tr = build_transition(g, vs)
    runs = [lp_solve(build_ergodic_lp(model, g, vs, transition=tr)) for _ in range(2)]
    np.testing.assert_array_equal(runs[0].measure.mass, runs[1].measure.mass)
    assert runs[0].objective == runs[1].objective
    assert runs[0].objective == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# column storage of the constraint matrices
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["1d", "2d"])
def three_lps(request):
    if request.param == "1d":
        g = build_grid([[-2.0, 2.0]], 0.1)
        vs = build_velocity_set(1.0, 5)
    else:
        g = build_grid([[-1.0, 1.0], [-1.0, 1.0]], 0.25)
        vs = build_velocity_set(1.0, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "double_well", dimension=g.dimension)
    ergodic = build_ergodic_lp(model, g, vs, transition=tr)
    discounted = build_discounted_lp(model, g, vs, 0.5, g.num_nodes // 3, transition=tr)
    mather = build_mather_polytope(ergodic, lp_solve(ergodic))
    return ergodic, discounted, mather


def test_column_store_equals_dense_reference(three_lps):
    for problem in three_lps:
        A = problem.A
        m, n = A.shape
        dense = dense_lp_matrix(problem)
        assert dense.shape == (m, n)
        np.testing.assert_array_equal(A.dense(np.arange(n)), dense)
        assert A.nnz == np.count_nonzero(dense)
        # no row is stored twice in one column
        P = A.rows.shape[1]
        held = np.sort(np.where(A.vals != 0.0, A.rows, -1 - np.arange(P)), axis=1)
        assert np.all(np.diff(held, axis=1) > 0), problem.kind


def test_column_pricing_matches_dense_products(three_lps):
    rng = np.random.default_rng(2)
    for problem in three_lps:
        A = problem.A
        m, n = A.shape
        dense = dense_lp_matrix(problem)
        y = rng.normal(size=m)
        np.testing.assert_allclose(A.vecmat(y), y @ dense, rtol=0.0, atol=1e-13)
        B = rng.normal(size=(m, m))
        for j in rng.choice(n, size=10, replace=False):
            np.testing.assert_allclose(A.matcol(B, j), B @ dense[:, j],
                                       rtol=0.0, atol=1e-12)


def test_vecmat_sums_the_slots_in_numpy_order(three_lps):
    # these stores hold at most 7 slots per column, below the 8 at which
    # np.sum switches from a running sum to pairwise summation
    rng = np.random.default_rng(3)
    for problem in three_lps:
        A = problem.A
        y = rng.normal(size=A.m)
        np.testing.assert_array_equal(A.vecmat(y),
                                      np.sum(y[A.rows] * A.vals, axis=1))


def test_ergodic_lp_stores_order_nnz_bytes_on_the_2d_grid():
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square", dimension=2)
    tracemalloc.start()
    try:
        problem = build_ergodic_lp(model, g, vs, transition=tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = problem.A
    m, n = A.shape
    assert (m, n) == (g.num_nodes, g.num_nodes * vs.size)
    stored = A.rows.nbytes + A.vals.nbytes
    # 16 bytes per slot and at most 2 + 2^N slots per column, of which
    # fewer than half are padding on this grid
    assert A.rows.shape[1] <= 2 + 4
    assert stored <= 2 * 16 * A.nnz
    assert peak < m * n * 8 / 20          # the dense A would be m*n*8 bytes


def test_lp_solve_forms_no_m_by_n_array(quad):
    # 33 velocities make n = 33 m, so an m x n array (a dense A or the
    # phase-1 [A | I]) would dwarf the m x m basis inverse
    g = build_grid([[-4.0, 4.0]], 0.05)
    vs = build_velocity_set(2.0, 33)
    problem = build_ergodic_lp(quad, g, vs)
    m, n = problem.A.shape
    tracemalloc.start()
    try:
        res = lp_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert peak < m * n * 8 / 3
