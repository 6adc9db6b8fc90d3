import tracemalloc

import numpy as np
import pytest

from weakkam import measures, simplex
from weakkam.critical import build_critical_data
from weakkam.discounted import quadratic_rate, solve_discounted
from weakkam.grids import build_grid, build_transition, build_velocity_set, interpolate
from weakkam.errors import NoMeasures, NonCoercive, NoSelfLoop
from weakkam.measures import (
    build_discounted_lp,
    build_ergodic_lp,
    closedness_residual,
    end_components,
    holonomy_residual,
    lp_solve,
    mather_face,
    support_check,
    transport_distance,
)
from weakkam.models import lagrangian_table, make_model, superlinearize

from helpers import dense_lp_matrix, min_cycle_mean


def _measure(grid, vs, masses):
    """(n, M) measure from a {(node, velocity_index): mass} table."""
    mass = np.zeros((grid.num_nodes, vs.size))
    for (i, m), v in masses.items():
        mass[i, m] = v
    return mass


# ---------------------------------------------------------------------------
# ergodic program
# ---------------------------------------------------------------------------

def test_ergodic_lp_hand_enumeration():
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    quad = make_model("quadratic", "half_square")
    res = lp_solve(build_ergodic_lp(quad, g, vs, transition=build_transition(g, vs)))
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    support = np.argwhere(res.measure).tolist()
    assert support == [[g.node_near([0.0]), vs.zero_index()]]
    assert res.measure.sum() == pytest.approx(1.0, abs=1e-9)


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
    obj = float(np.sum(mu[:, z] * L[:, z]))
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
    assert res.objective == pytest.approx(min_cycle_mean(L, tr_tiny), abs=1e-9)


def test_ergodic_lp_brute_force_asymmetric(grid_tiny, vs3, tr_tiny):
    from helpers import make_asymmetric_sampled
    model = make_asymmetric_sampled(grid_tiny)
    res = lp_solve(build_ergodic_lp(model, grid_tiny, vs3, transition=tr_tiny))
    L = lagrangian_table(model, grid_tiny.coords, vs3.vectors)
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
    res = lp_solve(build_discounted_lp(eik, g, vs, 0.5, [0.0],
                                       transition=build_transition(g, vs)))
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


def test_discounted_lps_chain_their_optimal_bases(disc_setup, monkeypatch):
    # every discounted LP has the same columns, so the policy of an optimal
    # basis of one (lambda, z) is a feasible start for any other; phase 1
    # never runs
    g, vs, tr, quad = disc_setup
    cases = ((1.0, 1.0), (0.5, 0.0), (0.5, 1.0), (0.1, 1.0))
    problems = [build_discounted_lp(quad, g, vs, lam, [z], transition=tr)
                for lam, z in cases]
    cold = [lp_solve(p) for p in problems]

    def no_phase_1(*args, **kwargs):
        raise AssertionError("phase 1 ran")

    monkeypatch.setattr(simplex, "_phase1", no_phase_1)
    for (lam, z), problem, ref in zip(cases, problems, cold):
        lam_u = lam * float(solve_discounted(quad, g, vs, lam, transition=tr)
                            .u[g.node_near([z])])
        for start in cold:
            if start is ref:
                continue
            warm = lp_solve(build_discounted_lp(
                quad, g, vs, lam, [z], transition=tr,
                policy=start.basis % vs.size))
            assert abs(warm.objective - ref.objective) <= 1e-12, (lam, z)
            assert abs(warm.objective - lam_u) <= 1e-9, (lam, z)


def test_policy_start_keeps_the_duality_check_independent(disc_setup):
    # the LP proves its optimum by its own pricing: from Howard's policy it
    # makes no pivot, and from a policy with nodes flipped to their worst
    # action it pivots back to the optimum of a cold solve
    g, vs, tr, quad = disc_setup
    lam, z = 0.5, [1.0]
    sol = solve_discounted(quad, g, vs, lam, transition=tr)
    cold = lp_solve(build_discounted_lp(quad, g, vs, lam, z, transition=tr))
    howard = lp_solve(build_discounted_lp(quad, g, vs, lam, z, transition=tr,
                                          policy=sol.policy))
    assert howard.iterations == 0
    assert abs(howard.objective - cold.objective) <= 1e-12
    vals = g.h * lagrangian_table(quad, g.coords, vs.vectors) + interpolate(tr, sol.u)
    flipped = sol.policy.copy()
    nodes = np.arange(0, g.num_nodes, 4)
    flipped[nodes] = np.argmax(vals[nodes], axis=1)
    rows = np.arange(g.num_nodes)
    assert np.all(vals[rows, flipped][nodes] > vals[rows, sol.policy][nodes] + 1e-6)
    worse = lp_solve(build_discounted_lp(quad, g, vs, lam, z, transition=tr,
                                         policy=flipped))
    assert worse.iterations > 0
    assert abs(worse.objective - cold.objective) <= 1e-12


def test_howard_policy_program_certifies_itself_in_2d(monkeypatch):
    # built with the policy Howard's iteration ends on, the 2D double well's
    # program is optimal at its start: no pivot, and no inverse is formed
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "double_well", dimension=2)
    lam, z = 0.5, [1.0, 0.0]
    sol = solve_discounted(model, g, vs, lam, tol=1e-10, transition=tr)
    inversions = []
    inverse = simplex._inverse
    monkeypatch.setattr(simplex, "_inverse",
                        lambda *args: inversions.append(1) or inverse(*args))
    howard = lp_solve(build_discounted_lp(model, g, vs, lam, z, transition=tr,
                                          policy=sol.policy))
    assert howard.iterations == 0 and not inversions
    cold = lp_solve(build_discounted_lp(model, g, vs, lam, z, transition=tr))
    assert cold.iterations > 0
    assert howard.objective == pytest.approx(cold.objective, abs=1e-12)
    assert howard.objective == pytest.approx(lam * sol.u[g.node_near(z)], abs=1e-9)


def test_lp_builders_refuse_an_infinite_lagrangian(grid_c, vs7, tr_c):
    # the raw eikonal Lagrangian is infinite above unit speed, and every
    # (node, velocity) pair is a column, so neither program can be built
    model = make_model("eikonal", "abs")
    with pytest.raises(NonCoercive):
        build_ergodic_lp(model, grid_c, vs7, transition=tr_c)
    with pytest.raises(NonCoercive):
        build_discounted_lp(model, grid_c, vs7, 0.5, 0, transition=tr_c)


def test_discounted_start_is_the_rest_policy(quad, grid_c, vs7, tr_c):
    # with no policy the start is the rest policy's: the q = 0 column of
    # each node in node order
    n = grid_c.num_nodes
    rest = build_discounted_lp(quad, grid_c, vs7, 0.5, 0, transition=tr_c)
    assert np.array_equal(rest.start[0], np.arange(n) * vs7.size + vs7.zero_index())
    assert np.array_equal(rest.start[0] // vs7.size, np.arange(n))
    built = build_discounted_lp(quad, grid_c, vs7, 0.5, 0, transition=tr_c,
                                policy=np.full(n, vs7.zero_index()))
    for got, want in zip(built.start, rest.start):
        assert np.array_equal(got, want)


def test_one_column_per_node_bases_have_nonnegative_inverses(disc_setup):
    # such a basis is (1 + lambda h) I - W^T with W substochastic, an
    # M-matrix, so it is feasible for every right-hand side lambda h e_z
    g, vs, tr, quad = disc_setup
    rng = np.random.default_rng(4)
    for lam in (1.0, 0.1, 0.01):
        problem = build_discounted_lp(quad, g, vs, lam, 0, transition=tr)
        node = np.arange(g.num_nodes * vs.size) // vs.size
        for _ in range(5):
            basis = [rng.choice(np.flatnonzero(node == i)) for i in range(g.num_nodes)]
            assert np.all(np.linalg.inv(problem.A.dense(basis)) >= 0.0), lam


def test_discounted_lp_holonomy_residual(disc_setup):
    g, vs, tr, quad = disc_setup
    res = lp_solve(build_discounted_lp(quad, g, vs, 0.5, [1.0], transition=tr))
    assert holonomy_residual(res.measure, 0.5, g.node_near([1.0]), tr) <= 1e-8
    assert res.measure.sum() == pytest.approx(1.0, abs=1e-9)


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


def test_support_check_discounted_fails(quad, quad_crit, grid_c, vs7, tr_c):
    res = lp_solve(build_discounted_lp(quad, grid_c, vs7, 0.5, [1.0],
                                       transition=tr_c))
    rep = support_check(res.measure, quad_crit)
    assert rep.passed is False
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
    val = float(np.sum(quad_ergodic.measure * phi))
    assert val >= -1e-8


# ---------------------------------------------------------------------------
# the Mather face
# ---------------------------------------------------------------------------

def _chain(n, moves, M=2):
    """A hand-built transition on n nodes: pair (i, m) moves to the node
    moves[i][m] with weight 1 (K = 2 slots, the second of weight 0)."""
    idx = np.zeros((n, M, 2), dtype=int)
    w = np.zeros((n, M, 2))
    for i in range(n):
        for m in range(M):
            idx[i, m, 0] = moves[i][m]
            w[i, m, 0] = 1.0
    return idx, w


def test_a_tight_tree_feeding_a_self_loop_leaves_one_column():
    # 0 -> 1 -> 3 and 2 -> 3 form a tree into node 3, whose pair 0 stays
    # put; every pair 0 is tight, every pair 1 (a move back) is not
    idx, w = _chain(4, [[1, 0], [3, 0], [3, 0], [3, 0]])
    allowed = np.zeros((4, 2), dtype=bool)
    allowed[:, 0] = True
    face = end_components(allowed, idx, w)
    np.testing.assert_array_equal(face.columns, [3 * 2 + 0])
    np.testing.assert_array_equal(face.nodes, [3])


def test_two_separate_rest_columns_are_both_kept():
    # nodes 1 and 4 rest; the tight pairs of nodes 0, 2 and 3 feed them
    idx, w = _chain(5, [[1, 0], [1, 0], [1, 4], [4, 3], [4, 0]])
    allowed = np.zeros((5, 2), dtype=bool)
    allowed[:, 0] = True
    allowed[2, 1] = True
    face = end_components(allowed, idx, w)
    np.testing.assert_array_equal(face.columns, [1 * 2, 4 * 2])
    np.testing.assert_array_equal(face.nodes, [1, 4])


def test_an_empty_tight_set_raises_no_measures():
    idx, w = _chain(3, [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(NoMeasures):
        end_components(np.zeros((3, 2), dtype=bool), idx, w)
    # tight pairs that only lead away carry no closed measure either
    allowed = np.zeros((3, 2), dtype=bool)
    allowed[0, 1] = allowed[1, 1] = True
    with pytest.raises(NoMeasures):
        end_components(allowed, idx, w)


def test_a_cycle_without_a_rest_column_raises_naming_the_face():
    # 0 <-> 1 by moving pairs: a closed measure, but no Dirac one
    idx, w = _chain(3, [[0, 1], [1, 0], [2, 2]])
    allowed = np.zeros((3, 2), dtype=bool)
    allowed[0, 1] = allowed[1, 1] = True
    with pytest.raises(NoSelfLoop, match=r"node 0 .* pairs \(0, 1\), \(1, 1\)$"):
        end_components(allowed, idx, w)


def test_a_pair_split_across_components_is_dropped():
    # pair (0, 1) lands half on node 0 and half on node 1; node 1 rests but
    # cannot return, so (0, 1) leaves its component and only the rests stay
    idx, w = _chain(2, [[0, 1], [1, 1]])
    w[0, 1] = [0.5, 0.5]
    idx[0, 1] = [0, 1]
    face = end_components(np.ones((2, 2), dtype=bool), idx, w)
    np.testing.assert_array_equal(face.columns, [0, 2, 3])
    np.testing.assert_array_equal(face.nodes, [0, 1])


def test_components_match_the_transitive_closure():
    # two nodes share a component exactly when each reaches the other
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, e = int(rng.integers(1, 12)), int(rng.integers(0, 30))
        src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
        reach = np.eye(n, dtype=bool)
        reach[src, dst] = True
        for _ in range(n):
            reach |= (reach.astype(int) @ reach.astype(int)) > 0
        comp = measures._components(n, src, dst)
        np.testing.assert_array_equal(comp[:, None] == comp[None, :], reach & reach.T)


def test_the_face_holds_every_optimal_measure(quad, grid_c, vs7, tr_c, quad_ergodic):
    # the quadratic's face is the rest column at the origin: the ergodic
    # optimum sits on it, and its Dirac measure is closed with the optimal cost
    problem = build_ergodic_lp(quad, grid_c, vs7, transition=tr_c)
    face = mather_face(problem, quad_ergodic)
    origin = grid_c.node_near([0.0])
    np.testing.assert_array_equal(face.columns, [origin * vs7.size + vs7.zero_index()])
    support = np.flatnonzero(quad_ergodic.measure.reshape(-1))
    assert set(support.tolist()) <= set(face.columns.tolist())
    dirac = np.zeros(problem.c.size)
    dirac[face.columns] = 1.0
    assert closedness_residual(dirac.reshape(-1, vs7.size), tr_c) == 0.0
    assert float(dirac @ problem.c) == pytest.approx(quad_ergodic.objective, abs=1e-12)


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
    np.testing.assert_array_equal(runs[0].measure, runs[1].measure)
    assert runs[0].objective == runs[1].objective
    assert runs[0].objective == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the Aubry tree: the ergodic program's start
# ---------------------------------------------------------------------------

def test_the_tree_start_is_the_dirac_mass_at_its_root(quad, grid_c, vs7, tr_c, quad_crit):
    tree = measures.aubry_tree(quad, grid_c, vs7, tr_c, quad_crit)
    problem = build_ergodic_lp(quad, grid_c, vs7, transition=tr_c, policy=tree)
    zero = vs7.zero_index()
    L = lagrangian_table(quad, grid_c.coords, vs7.vectors)
    root = quad_crit.aubry_nodes[np.argmin(L[quad_crit.aubry_nodes, zero])]
    # the root rests and every other node moves
    np.testing.assert_array_equal(np.flatnonzero(tree == zero), [root])
    basis, xB, _ = problem.start
    np.testing.assert_array_equal(basis, np.arange(grid_c.num_nodes) * vs7.size + tree)
    # the Dirac mass on (y*, 0) solves the basis system exactly, and it is
    # the start's basic solution
    dirac = (basis == root * vs7.size + zero).astype(float)
    np.testing.assert_array_equal(problem.A.matvec(dirac, basis), problem.b)
    np.testing.assert_array_equal(xB, dirac)


def _study_model(name):
    """A model of a tier-1 study, with its grid and velocity set."""
    if name == "acceptance":
        g = build_grid([[-4.0, 4.0]], 0.02)
        return superlinearize(make_model("eikonal", "abs"), g), g, build_velocity_set(1.5, 7)
    g = build_grid([[-4.0, 4.0]], 0.05)
    if name == "eikonal_abs.json":
        return superlinearize(make_model("eikonal", "abs"), g), g, build_velocity_set(1.5, 7)
    potential = {"quadratic.json": "half_square", "double_well": "double_well"}[name]
    return make_model("quadratic", potential), g, build_velocity_set(2.0, 17)


@pytest.mark.parametrize("name", ["acceptance", "eikonal_abs.json", "quadratic.json",
                                  "double_well"])
def test_the_start_values_match_dense_solves_of_the_basis(name):
    # the tree's prices come from the pinned solve, a discounted start's
    # basic solution and prices from its policy's block factor; each is a
    # dense solve of the basis system, to round-off
    model, g, vs = _study_model(name)
    tr = build_transition(g, vs)
    tree = measures.aubry_tree(model, g, vs, tr, build_critical_data(model, g, vs,
                                                                     transition=tr))
    problems = [build_ergodic_lp(model, g, vs, transition=tr, policy=tree)]
    for lam in (0.5, 0.01):
        sol = solve_discounted(model, g, vs, lam, transition=tr)
        problems.append(build_discounted_lp(model, g, vs, lam, g.num_nodes // 3,
                                            transition=tr, policy=sol.policy))
    for problem in problems:
        basis, start_xB, start_y = problem.start
        B = problem.A.dense(basis)
        xB = np.linalg.solve(B, problem.b)
        y = np.linalg.solve(B.T, problem.c[basis])
        np.testing.assert_allclose(start_xB, xB, rtol=0.0, atol=1e-12 * np.max(np.abs(xB)))
        np.testing.assert_allclose(start_y, y, rtol=0.0, atol=1e-12 * np.max(np.abs(y)))


@pytest.mark.parametrize("name", ["acceptance", "eikonal_abs.json", "quadratic.json",
                                  "double_well"])
def test_the_tree_start_keeps_the_phase_1_optimum_and_face(name):
    model, g, vs = _study_model(name)
    tr = build_transition(g, vs)
    tree = measures.aubry_tree(model, g, vs, tr, build_critical_data(model, g, vs,
                                                                     transition=tr))
    assert tree is not None
    cold = build_ergodic_lp(model, g, vs, transition=tr)
    warm = build_ergodic_lp(model, g, vs, transition=tr, policy=tree)
    assert cold.start is None
    runs = [(problem, lp_solve(problem)) for problem in (cold, warm)]
    (_, phase_1), (_, started) = runs
    assert started.iterations < phase_1.iterations
    assert started.objective == pytest.approx(phase_1.objective, rel=0.0, abs=1e-12)
    faces = [mather_face(problem, res) for problem, res in runs]
    np.testing.assert_array_equal(faces[0].columns, faces[1].columns)
    assert closedness_residual(started.measure, tr) <= 1e-12


# ---------------------------------------------------------------------------
# column storage of the constraint matrices
# ---------------------------------------------------------------------------

DISCOUNT = 0.5        # the discount of three_lps' discounted program


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
    discounted = build_discounted_lp(model, g, vs, DISCOUNT, g.num_nodes // 3,
                                     transition=tr)
    return ergodic, discounted


def test_column_store_equals_dense_reference(three_lps):
    for problem in three_lps:
        A = problem.A
        m, n = A.shape
        dense = dense_lp_matrix(problem, DISCOUNT)
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
        dense = dense_lp_matrix(problem, DISCOUNT)
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
    problem = build_ergodic_lp(quad, g, vs, transition=build_transition(g, vs))
    m, n = problem.A.shape
    tracemalloc.start()
    try:
        res = lp_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert peak < m * n * 8 / 3
