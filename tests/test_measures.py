import tracemalloc

import numpy as np
import pytest

from weakkam import measures
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

from helpers import brute_force_lp, dense_lp_matrix, min_cycle_mean


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


def test_discounted_lps_chain_their_optimal_bases(disc_setup):
    # every discounted LP has the same columns, so the optimal policy of one
    # (lambda, z) is a start for any other, and reaches the same optimum;
    # the policy does not depend on the anchor z, so at the same lambda it
    # takes no step
    g, vs, tr, quad = disc_setup
    cases = ((1.0, 1.0), (0.5, 0.0), (0.5, 1.0), (0.1, 1.0))
    problems = [build_discounted_lp(quad, g, vs, lam, [z], transition=tr)
                for lam, z in cases]
    cold = [lp_solve(p) for p in problems]
    for (lam, z), problem, ref in zip(cases, problems, cold):
        lam_u = lam * float(solve_discounted(quad, g, vs, lam, transition=tr)
                            .u[g.node_near([z])])
        for start in cold:
            if start is ref:
                continue
            warm = lp_solve(build_discounted_lp(
                quad, g, vs, lam, [z], transition=tr, policy=start.policy))
            assert abs(warm.objective - ref.objective) <= 1e-12, (lam, z)
            assert abs(warm.objective - lam_u) <= 1e-9, (lam, z)
        if lam == 0.5:
            twin = cold[cases.index((0.5, 1.0 - z))]
            warm = lp_solve(build_discounted_lp(
                quad, g, vs, lam, [z], transition=tr, policy=twin.policy))
            assert warm.iterations == 0


def test_policy_start_keeps_the_duality_check_independent(disc_setup):
    # the LP proves its optimum by its own pricing: from Howard's policy it
    # takes no step, and from a policy with nodes flipped to their worst
    # action it steps back to the optimum of a cold solve
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
    # program is optimal at its start: no step, and no matrix is inverted
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "double_well", dimension=2)
    lam, z = 0.5, [1.0, 0.0]
    sol = solve_discounted(model, g, vs, lam, tol=1e-10, transition=tr)

    def no_inverse(a):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    howard = lp_solve(build_discounted_lp(model, g, vs, lam, z, transition=tr,
                                          policy=sol.policy))
    assert howard.iterations == 0
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
    # with no policy the solve starts from the rest policy, q = 0 at every
    # node: it takes the same steps to the same solution
    n = grid_c.num_nodes
    rest = build_discounted_lp(quad, grid_c, vs7, 0.5, 0, transition=tr_c)
    assert rest.policy is None
    built = build_discounted_lp(quad, grid_c, vs7, 0.5, 0, transition=tr_c,
                                policy=np.full(n, vs7.zero_index()))
    got, want = lp_solve(built), lp_solve(rest)
    assert got.iterations == want.iterations > 0
    for name in ("measure", "duals", "policy"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
            B = dense_lp_matrix(problem, lam)[:, basis]
            assert np.all(np.linalg.inv(B) >= 0.0), lam


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
    res = lp_solve(problem)
    # the tree's measure, the Dirac mass on (y*, 0), is the solution,
    # exactly, with the optimum L(y*, 0); one step moves nodes off it but
    # keeps y* at rest
    assert res.iterations == 1 and res.policy[root] == zero
    dirac = np.zeros((grid_c.num_nodes, vs7.size))
    dirac[root, zero] = 1.0
    np.testing.assert_array_equal(res.measure, dirac)
    assert res.objective == L[root, zero]


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
    # the ergodic prices come from the pinned solve, a discounted policy's
    # measure and prices from its policy's block factor; each is a dense
    # solve of the basis system of the optimal policy, to round-off
    model, g, vs = _study_model(name)
    tr = build_transition(g, vs)
    tree = measures.aubry_tree(model, g, vs, tr, build_critical_data(model, g, vs,
                                                                     transition=tr))
    problems = [(build_ergodic_lp(model, g, vs, transition=tr, policy=tree), None)]
    for lam in (0.5, 0.01):
        sol = solve_discounted(model, g, vs, lam, transition=tr)
        problems.append((build_discounted_lp(model, g, vs, lam, g.num_nodes // 3,
                                             transition=tr, policy=sol.policy), lam))
    for problem, lam in problems:
        res = lp_solve(problem)
        basis = np.arange(g.num_nodes) * vs.size + res.policy
        B = dense_lp_matrix(problem, lam)[:, basis]
        xB = np.linalg.solve(B, problem.b)
        y = np.linalg.solve(B.T, problem.c[basis])
        got = res.measure.reshape(-1)[basis]
        np.testing.assert_allclose(got, np.where(xB > 1e-9, xB, 0.0), rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(xB)))
        np.testing.assert_allclose(res.duals, y, rtol=0.0, atol=1e-12 * np.max(np.abs(y)))


@pytest.mark.parametrize("name", ["acceptance", "eikonal_abs.json", "quadratic.json",
                                  "double_well"])
def test_the_tree_start_keeps_the_cold_optimum_and_face(name):
    # from the rest policy (the ergodic program built with no policy) and
    # from the Aubry tree, the solve reaches the same optimum and face; the
    # tree takes at most one step, and no more than the rest policy
    model, g, vs = _study_model(name)
    tr = build_transition(g, vs)
    tree = measures.aubry_tree(model, g, vs, tr, build_critical_data(model, g, vs,
                                                                     transition=tr))
    cold = build_ergodic_lp(model, g, vs, transition=tr)
    warm = build_ergodic_lp(model, g, vs, transition=tr, policy=tree)
    assert cold.policy is None
    runs = [(problem, lp_solve(problem)) for problem in (cold, warm)]
    (_, rest), (_, started) = runs
    assert started.iterations <= min(1, rest.iterations)
    assert started.objective == pytest.approx(rest.objective, rel=0.0, abs=1e-12)
    faces = [mather_face(problem, res) for problem, res in runs]
    np.testing.assert_array_equal(faces[0].columns, faces[1].columns)
    assert closedness_residual(started.measure, tr) <= 1e-12


# ---------------------------------------------------------------------------
# policy iteration: lp_solve against basis enumeration
# ---------------------------------------------------------------------------

def _two_node_cycle_model(g):
    """H(x_i, p) = (p - (-1)^i)^2/2 - x_i^2/2, tabulated: odd nodes are
    pushed right and even nodes left, so the cheapest closed measure
    cycles between two nodes and no node of it rests."""
    from weakkam.models import SampledTable
    x = g.coords[:, 0]
    pg = np.linspace(-8.0, 8.0, 65)
    sign = (-1.0) ** np.arange(g.num_nodes)
    values = (pg[None, :] - sign[:, None]) ** 2 / 2 - x[:, None] ** 2 / 2
    return make_model("sampled", sampled=SampledTable(x_coords=x.copy(), p_grid=pg,
                                                      values=values))


@pytest.fixture(scope="module")
def tiny_cycle():
    # 5 nodes and 3 velocities: 15 columns, 3003 bases to enumerate
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    return g, vs, build_transition(g, vs), _two_node_cycle_model(g)


def test_the_two_node_cycle_is_solved_by_a_bordered_evaluation_and_a_repair(
        tiny_cycle, monkeypatch):
    # from the rest policy every node is its own closed class, so the start
    # is repaired; the one step closes the cycle (1, 2) beside the rest at
    # node 0 and is repaired again; the cycle does not rest, so its gain
    # and measure come from the bordered solve
    g, vs, tr, model = tiny_cycle
    calls = []
    unichain = measures._unichain

    def recording(transition, policy, cost, switched=None):
        calls.append((switched is not None,
                      len(measures._closed_classes(transition, policy))))
        return unichain(transition, policy, cost, switched)

    monkeypatch.setattr(measures, "_unichain", recording)
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    res = lp_solve(problem)
    assert calls == [(False, 5), (True, 2)]
    assert res.iterations == 1
    want = brute_force_lp(problem.c, dense_lp_matrix(problem), problem.b)
    assert res.objective == pytest.approx(want, rel=0.0, abs=1e-12)
    assert res.objective == pytest.approx(-0.4375, rel=0.0, abs=1e-12)
    # the stationary measure of the cycle: half on each of its two moves
    left, right = vs.zero_index() - 1, vs.zero_index() + 1
    np.testing.assert_allclose(res.measure, _measure(g, vs, {(1, right): 0.5,
                                                             (2, left): 0.5}),
                               rtol=0.0, atol=1e-15)
    with pytest.raises(NoSelfLoop, match="node 1 "):
        mather_face(problem, res)


@pytest.mark.parametrize("lam", [1.0, 0.1])
def test_discounted_lp_solve_matches_basis_enumeration(tiny_cycle, lam):
    g, vs, tr, model = tiny_cycle
    for z in range(g.num_nodes):
        problem = build_discounted_lp(model, g, vs, lam, z, transition=tr)
        res = lp_solve(problem)
        want = brute_force_lp(problem.c, dense_lp_matrix(problem, lam), problem.b)
        assert res.objective == pytest.approx(want, rel=0.0, abs=1e-12), z
        assert holonomy_residual(res.measure, lam, z, tr) <= 1e-15


@pytest.mark.parametrize("potential", ["half_square", "double_well"])
def test_ergodic_lp_solve_matches_basis_enumeration(potential):
    # built with no policy: the rest policy's closed classes are every
    # node, and the one at the least L(i, 0) is kept
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", potential)
    problem = build_ergodic_lp(model, g, vs, transition=build_transition(g, vs))
    res = lp_solve(problem)
    want = brute_force_lp(problem.c, dense_lp_matrix(problem), problem.b)
    assert res.objective == pytest.approx(want, rel=0.0, abs=1e-12)


SCALED = [  # 1e6-scaled potentials of the contract sweep (seeds 29, 111 and 47)
    ("quadratic", "abs", [[-4.0, 4.0]], 0.25, 1.0, 7, 1.0, [-0.85]),
    ("eikonal", "double_well", [[0.0, 3.0]], 0.2, 1.5, 9, 0.5, [2.39]),
    ("quadratic", "half_square", [[-2.0, 2.0], [-2.0, 2.0]], 0.25, 0.5, 3, 0.5, [-1.2, 1.43]),
]


@pytest.mark.parametrize("family, potential, box, h, q_max, count, lam, z", SCALED,
                         ids=["quadratic_abs", "eikonal_double_well", "quadratic_half_square_2d"])
def test_the_switching_tolerance_scales_with_the_prices(family, potential, box, h, q_max,
                                                        count, lam, z):
    # with prices of 1e7 to 2e8 the optimal policy's reduced costs go down
    # to -1e-8 by round-off alone: an absolute 1e-9 would switch forever,
    # while TOL (1 + max(max|c|, max|y|)) stops on the optimum
    g = build_grid(box, h)
    vs = build_velocity_set(q_max, count, dimension=g.dimension)
    tr = build_transition(g, vs)
    model = make_model(family, {"name": potential, "scale": 1e6}, dimension=g.dimension)
    if family == "eikonal":
        model = superlinearize(model, g)
    sol = solve_discounted(model, g, vs, lam, transition=tr)
    lam_u = lam * float(sol.u[g.node_near(z)])
    problems = [build_ergodic_lp(model, g, vs, transition=tr),
                build_discounted_lp(model, g, vs, lam, z, transition=tr),
                build_discounted_lp(model, g, vs, lam, z, transition=tr, policy=sol.policy)]
    least = []
    for problem in problems:
        res = lp_solve(problem)
        reduced = problem.c - problem.A.vecmat(res.duals)
        least.append(float(np.min(reduced)))
        assert res.iterations <= 3
        assert np.min(reduced) >= -1e-9 * (1.0 + np.max(np.abs(problem.c)))
        want = 0.0 if problem.kind == "ergodic" else lam_u
        assert abs(res.objective - want) <= 1e-9 * (1.0 + abs(want)), problem.kind
    assert problems[2].policy is not None and lp_solve(problems[2]).iterations == 0
    assert min(least) < -1e-9


def test_a_node_with_no_move_to_the_kept_class_raises_unreachable():
    # node 2 only rests: it reaches neither node 0 nor node 1
    from weakkam.errors import Unreachable
    from types import SimpleNamespace
    idx, w = _chain(3, [[0, 1], [1, 0], [2, 2]])
    tr = SimpleNamespace(idx=idx, w=w, grid=SimpleNamespace(coords=np.zeros((3, 1))))
    with pytest.raises(Unreachable, match="node 2 "):
        measures._reach(tr, np.array([0, 0, 0]), [0], np.zeros((3, 2)))


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
        np.testing.assert_array_equal([A.vecmat(e) for e in np.eye(m)], dense)
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
    # 33 velocities make n = 33 m, so an m x n array (a dense A) would
    # dwarf every array of a policy step
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
