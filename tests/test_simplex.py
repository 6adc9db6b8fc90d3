"""`measures.lp_solve` held to the claims of the revised simplex it replaced.

Policy iteration is a simplex method that pivots in blocks: a policy's
columns (i, policy[i]) are a basis of the occupation-measure program, and a
step exchanges every column of a node that has one cheaper past round-off.
So the simplex's claims are claims on the policy steps: the optimum agrees with
basis enumeration, the duals certify it, ties resolve deterministically, an
optimal basis is certified without a step or an inverse, no basis is solved
densely, a step cap raises, and perturbed start values are refused.  The
same loop (`measures.policy_iteration`) runs `solve_discounted`, so the
step count and the step cap are held for it too.
"""

from dataclasses import replace

import numpy as np
import pytest

from weakkam import discounted, measures
from weakkam.critical import build_critical_data
from weakkam.discounted import solve_discounted
from weakkam.errors import MaxIterExceeded, SingularBasis, WeakKAMError
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.measures import (
    build_discounted_lp,
    build_ergodic_lp,
    closedness_residual,
    holonomy_residual,
    lp_solve,
    mather_face,
)
from weakkam.models import make_model, superlinearize

from helpers import brute_force_lp, dense_lp_matrix


def _random_program(seed, box=(-1.0, 1.0), h=0.5):
    """(problem, lam): a program on a small 1D grid with random costs,
    ergodic for an even seed and discounted at a random lambda and anchor
    for an odd one, started from a random policy or from none.

    The feet of the moves, h q for q in {-0.75, 0, 0.75}, fall between
    nodes, so the policies' chains split their weight."""
    rng = np.random.default_rng(seed)
    g = build_grid([list(box)], h)
    vs = build_velocity_set(0.75, 3)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square")
    lam = None
    if seed % 2 == 0:
        problem = build_ergodic_lp(model, g, vs, transition=tr)
    else:
        lam = float(rng.choice([1.0, 0.1]))
        problem = build_discounted_lp(model, g, vs, lam, int(rng.integers(g.num_nodes)),
                                      transition=tr)
    c = rng.uniform(0.0, 2.0, size=problem.c.size).round(2)
    policy = rng.integers(vs.size, size=g.num_nodes) if rng.uniform() < 0.5 else None
    return replace(problem, c=c, policy=policy), lam


def _row_residual(problem, res, lam):
    if problem.kind == "ergodic":
        return max(closedness_residual(res.measure, problem.transition),
                   abs(float(res.measure.sum()) - 1.0))
    z = int(np.flatnonzero(problem.b)[0])
    return holonomy_residual(res.measure, lam, z, problem.transition)


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_basis_enumeration(seed):
    # 5 nodes and 3 velocities: 15 columns, 3003 bases to enumerate
    problem, lam = _random_program(seed)
    res = lp_solve(problem)
    want = brute_force_lp(problem.c, dense_lp_matrix(problem, lam), problem.b)
    assert res.objective == pytest.approx(want, rel=0.0, abs=1e-12)
    assert _row_residual(problem, res, lam) <= 1e-15


def test_duals_certify_optimality():
    # every reduced cost is nonnegative, the columns carrying mass price at
    # 0 (complementary slackness), and b.y is the optimum (strong duality)
    for seed in range(4):
        problem, lam = _random_program(seed, box=(-2.0, 2.0), h=0.25)
        res = lp_solve(problem)
        reduced = problem.c - res.duals @ dense_lp_matrix(problem, lam)
        assert np.min(reduced) >= -1e-12, seed
        assert np.max(np.abs(reduced[res.measure.reshape(-1) > 0.0])) <= 1e-12, seed
        assert problem.b @ res.duals == pytest.approx(res.objective, rel=0.0, abs=1e-12)


def test_degenerate_ties_are_deterministic():
    # costs of 0, 1 or 2 tie between many columns and many policies, and the
    # lowest velocity index wins every tie: repeated solves agree bit for bit
    for seed in range(2):
        problem, lam = _random_program(seed, box=(-2.0, 2.0), h=0.25)
        rng = np.random.default_rng(seed)
        problem = replace(problem, c=rng.integers(3, size=problem.c.size).astype(float))
        runs = [lp_solve(problem) for _ in range(3)]
        for res in runs[1:]:
            np.testing.assert_array_equal(res.measure, runs[0].measure)
            np.testing.assert_array_equal(res.duals, runs[0].duals)
            np.testing.assert_array_equal(res.policy, runs[0].policy)
        reduced = problem.c - runs[0].duals @ dense_lp_matrix(problem, lam)
        assert np.min(reduced) >= -1e-12


def _double_well(h=0.1):
    g = build_grid([[-2.0, 2.0]], h)
    vs = build_velocity_set(1.0, 5)
    return make_model("quadratic", "double_well"), g, vs, build_transition(g, vs)


def test_warm_start_reuses_basis():
    # the optimal policy of one cost, started from for a nearby cost, takes
    # no more steps than the rest policy and reaches the same optimum
    model, g, vs, tr = _double_well()
    first = lp_solve(build_ergodic_lp(model, g, vs, transition=tr))
    rng = np.random.default_rng(11)
    cold = build_ergodic_lp(model, g, vs, transition=tr)
    cold = replace(cold, c=cold.c + 0.01 * rng.uniform(size=cold.c.size))
    warm = replace(cold, policy=first.policy)
    solved = [lp_solve(problem) for problem in (cold, warm)]
    assert solved[1].objective == pytest.approx(solved[0].objective, rel=0.0, abs=1e-12)
    assert solved[1].iterations <= solved[0].iterations
    assert first.iterations > 0


def _no_inverse(monkeypatch):
    """Make every dense inverse of numpy raise."""
    def refused(*args, **kwargs):
        raise AssertionError("a matrix was inverted")

    for name in ("inv", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refused)


def test_an_optimal_start_is_certified_without_an_inverse(monkeypatch):
    model, g, vs, tr = _double_well()
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    first = lp_solve(problem)
    assert first.iterations > 0
    _no_inverse(monkeypatch)
    again = lp_solve(replace(problem, policy=first.policy))
    assert again.iterations == 0
    np.testing.assert_array_equal(again.policy, first.policy)
    assert again.objective == first.objective
    reduced = problem.c - problem.A.vecmat(again.duals)
    assert np.min(reduced) >= -1e-9
    basis = np.arange(g.num_nodes) * vs.size + again.policy
    assert np.max(np.abs(reduced[basis])) <= 1e-9


@pytest.mark.parametrize("kind", ["ergodic", "discounted"])
@pytest.mark.parametrize("which", ["xB0", "y0"])
def test_start_values_off_by_1e_6_are_not_returned(kind, which, monkeypatch):
    # the optimal start's evaluation, its measure on the basis (xB0) or the
    # price of a moving node (y0, x = 2), moved by 1e-6: the measure misses
    # its rows, or the node's own column prices at about -1e-6 and no other
    # column of the node is cheaper, so the certificate refuses it
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
    assert lp_solve(problem).iterations == 0
    node = g.node_near([2.0])
    evaluate = getattr(measures, f"_evaluate_{kind}")

    def off(*args):
        y, xB = evaluate(*args)
        if which == "xB0":
            xB[node] += 1e-6
        else:
            y[node] += 1e-6
        return y, xB

    monkeypatch.setattr(measures, f"_evaluate_{kind}", off)
    with pytest.raises(SingularBasis, match="numerically singular"):
        lp_solve(problem)


def test_badly_scaled_lps_return_a_point_with_no_clipping_residual():
    # column costs scaled by up to 1e5 either way: the returned measure is
    # the policy's own, whose negative round-off is clipped at 0, and the
    # clipping leaves it on its rows
    for seed in range(8):
        problem, lam = _random_program(seed)
        rng = np.random.default_rng(100 + seed)
        problem = replace(problem, c=problem.c * 10.0 ** rng.uniform(-5, 5, problem.c.size))
        res = lp_solve(problem)
        assert _row_residual(problem, res, lam) <= 1e-14, seed
        want = brute_force_lp(problem.c, dense_lp_matrix(problem, lam), problem.b)
        assert res.objective == pytest.approx(want, rel=1e-9), seed


def test_iterations_count_every_pivot(monkeypatch):
    # each policy step is one block pivot and one evaluation after the
    # start's; solve_discounted counts its start's evaluation as a step
    calls = []
    for module, name in ((measures, "_evaluate_ergodic"), (measures, "_evaluate_discounted"),
                         (discounted, "policy_solve")):
        evaluate = getattr(module, name)

        def counting(*args, evaluate=evaluate, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    model, g, vs, tr = _double_well()
    for problem in (build_ergodic_lp(model, g, vs, transition=tr),
                    build_discounted_lp(model, g, vs, 0.5, 7, transition=tr)):
        calls.clear()
        res = lp_solve(problem)
        assert res.iterations > 0, problem.kind
        assert res.iterations == len(calls) - 1, problem.kind
    calls.clear()
    sol = solve_discounted(model, g, vs, 0.5, transition=tr)
    assert sol.iterations > 1
    assert sol.iterations == len(sol.trace) == len(calls)


def _unsettled_prices(monkeypatch):
    """Every policy evaluation returns its prices plus fresh noise, so some
    node has a cheaper column at every step."""
    rng = np.random.default_rng(5)
    for name in ("_evaluate_ergodic", "_evaluate_discounted"):
        evaluate = getattr(measures, name)

        def noisy(*args, evaluate=evaluate):
            y, xB = evaluate(*args)
            # the last price is an ergodic program's gain, which would shift
            # every reduced cost alike
            y[:-1] += 1e6 * rng.normal(size=y.size - 1)
            return y, xB

        monkeypatch.setattr(measures, name, noisy)


def test_iteration_cap_raises_max_iter_exceeded(quad, monkeypatch):
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    tr = build_transition(g, vs)
    _unsettled_prices(monkeypatch)
    for problem in (build_ergodic_lp(quad, g, vs, transition=tr),
                    build_discounted_lp(quad, g, vs, 0.5, 0, transition=tr)):
        with pytest.raises(MaxIterExceeded, match=r"after 146 steps") as caught:
            lp_solve(problem)
        assert caught.value.iterations == 2 * g.num_nodes + 64
    # Howard's values fall by at least 1e6 a step, so the monotone check
    # holds, and random shifts of up to 1e6 keep some node switching
    rng = np.random.default_rng(7)
    policy_solve, calls = discounted.policy_solve, []

    def unsettled(*args, **kwargs):
        calls.append(1)
        return (policy_solve(*args, **kwargs)
                - 1e6 * (2 * len(calls) + rng.uniform(size=g.num_nodes)))

    monkeypatch.setattr(discounted, "policy_solve", unsettled)
    with pytest.raises(MaxIterExceeded, match=r"after 146 steps") as caught:
        solve_discounted(quad, g, vs, 0.5, transition=tr)
    assert caught.value.iterations == len(calls) == 2 * g.num_nodes + 64
    assert caught.value.residual > 0


def test_the_2d_double_well_steps_past_no_round_off_gain():
    # h = 0.2: 441 nodes and 13 velocities.  Many pairs tie here; a rule
    # that switches on any gain, round-off included, still switched after
    # the step cap from the rest policy
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.2)
    vs = build_velocity_set(1.5, 5, dimension=2)
    model = make_model("quadratic", "double_well", dimension=2)
    tr = build_transition(g, vs)
    tree = measures.aubry_tree(model, g, vs, tr,
                               build_critical_data(model, g, vs, transition=tr))
    problems = [build_ergodic_lp(model, g, vs, transition=tr, policy=policy)
                for policy in (tree, None)]
    started, rest = [lp_solve(problem) for problem in problems]
    assert started.iterations <= 4
    assert rest.iterations <= 5
    assert started.objective == pytest.approx(rest.objective, rel=0.0, abs=1e-12)
    np.testing.assert_array_equal(mather_face(problems[0], started).columns,
                                  mather_face(problems[1], rest).columns)


@pytest.mark.parametrize("lam", [1e-12, 1e-8])
def test_a_poor_start_at_small_lambda_reaches_the_discounted_optimum(lam):
    # eikonal_abs.json's model anchored at x = 0 and started with q = -1 at
    # every node.  A tolerance of 1e-9 (1 + max(max|c|, max|y|)) grew with
    # the prices y, about 4 / (lambda h): at 1e-12 it was 8e4 and certified
    # this start (objective 4, duals 8e13 off) against a best reduced cost
    # of -9.84; at 1e-8 the solve stopped at objective 0.785
    g = build_grid([[-4.0, 4.0]], 0.05)
    vs = build_velocity_set(1.5, 7)
    model = superlinearize(make_model("eikonal", "abs"), g)
    tr = build_transition(g, vs)
    z = g.node_near([0.0])
    assert vs.vectors[1].tolist() == [-1.0]
    u = solve_discounted(model, g, vs, lam, transition=tr).u
    res = lp_solve(build_discounted_lp(model, g, vs, lam, z, transition=tr,
                                       policy=np.full(g.num_nodes, 1)))
    assert res.objective == pytest.approx(lam * u[z], rel=0.0, abs=1e-9)
    want = u / g.h
    assert np.max(np.abs(res.duals - want)) <= 1e-9 * np.max(np.abs(want))


def test_singular_basis_raises_a_weakkam_error(quad):
    # at lambda = 1e-20, 1 + lambda h rounds to 1: the basis of every policy
    # is the singular I - W
    g, vs = build_grid([[-2.0, 2.0]], 0.1), build_velocity_set(1.5, 7)
    problem = build_discounted_lp(quad, g, vs, 1e-20, 0, transition=build_transition(g, vs))
    with pytest.raises(SingularBasis) as info:
        lp_solve(problem)
    assert isinstance(info.value, WeakKAMError)


def test_solve_lp_never_solves_a_basis_densely(monkeypatch):
    # a start optimal, one that must step, and none: every dense solve is
    # of one block of the policy matrix, narrower than the basis, and no
    # matrix is inverted
    model, g, vs, tr = _double_well()
    n = g.num_nodes
    ergodic = build_ergodic_lp(model, g, vs, transition=tr)
    optimal = replace(ergodic, policy=lp_solve(ergodic).policy)
    discounted = build_discounted_lp(model, g, vs, 0.5, 7, transition=tr)
    _no_inverse(monkeypatch)
    shapes = []
    linalg_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(np.shape(a)) or linalg_solve(a, b))
    assert lp_solve(optimal).iterations == 0
    for problem in (ergodic, discounted):
        assert lp_solve(problem).iterations > 0
    assert shapes and max(max(s) for s in shapes) < n
