import math

import numpy as np
import pytest

from weakkam.discounted import (
    MIN_BLOCK,
    oracle_abs,
    oracle_quadratic,
    policy_solve,
    quadratic_rate,
    solve_discounted,
    upper_start,
)
from weakkam.errors import MaxIterExceeded
from weakkam.grids import build_grid, build_transition, build_velocity_set, interpolate
from weakkam.models import h_at_zero, lagrangian_table, make_model, superlinearize


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def test_oracle_abs_values():
    assert oracle_abs(0.5, 0.0) == 0.0
    assert oracle_abs(0.25, 2.0) == pytest.approx(8.0 + 16.0 * (math.exp(-0.5) - 1.0))
    assert oracle_abs(0.25, 2.0) == pytest.approx(1.7045, abs=5e-5)
    assert oracle_abs(0.5, 2.0) == pytest.approx(4.0 + 4.0 * (math.exp(-1.0) - 1.0))
    # even in x
    assert oracle_abs(0.5, -2.0) == oracle_abs(0.5, 2.0)


def test_oracle_quadratic_values():
    assert quadratic_rate(1.0) == pytest.approx((-1.0 + math.sqrt(5.0)) / 4.0)
    assert oracle_quadratic(0.1, 1.0) == pytest.approx((-0.1 + math.sqrt(4.01)) / 4.0)
    assert oracle_quadratic(0.1, 1.0) == pytest.approx(0.4756, abs=5e-5)
    # the ansatz actually solves lambda u + (u')^2/2 = x^2/2
    for lam in (1.0, 0.5, 0.1):
        a = quadratic_rate(lam)
        x = 1.7
        assert lam * a * x * x + 0.5 * (2 * a * x) ** 2 == pytest.approx(0.5 * x * x)


# ---------------------------------------------------------------------------
# the solver against the oracles (coarse versions of the acceptance runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_m():
    return build_grid([[-4.0, 4.0]], 0.05)


@pytest.fixture(scope="module")
def vs_m():
    return build_velocity_set(1.5, 7)


@pytest.fixture(scope="module")
def eik_super_m(grid_m):
    return superlinearize(make_model("eikonal", "abs"), grid_m)


def test_solve_eikonal_matches_oracle(eik_super_m, grid_m, vs_m):
    sol = solve_discounted(eik_super_m, grid_m, vs_m, 0.5, tol=1e-7)
    xg = grid_m.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(sol.u - oracle_abs(0.5, xg))[mask]) <= 0.03
    assert sol.u[grid_m.node_near([0.0])] == pytest.approx(0.0, abs=0.02)
    assert sol.residual <= 1e-7


def test_solve_quadratic_matches_oracle(quad, grid_m):
    vs = build_velocity_set(2.0, 33)
    sol = solve_discounted(quad, grid_m, vs, 1.0, tol=1e-8)
    assert sol.u[grid_m.node_near([1.0])] == pytest.approx(
        quadratic_rate(1.0), abs=0.02)


def test_lambda_u_bounded_below_by_minus_b(eik_super_m, quad, grid_m, vs_m):
    for model, lam in ((eik_super_m, 0.5), (quad, 1.0)):
        b = float(np.max(h_at_zero(model, grid_m.coords)))
        sol = solve_discounted(model, grid_m, vs_m, lam, tol=1e-7)
        assert float(np.min(lam * sol.u)) >= -b - 1e-6


def test_iterates_start_above_and_decrease(quad, grid_m, vs_m):
    # the upper start dominates the fixed point
    sol = solve_discounted(quad, grid_m, vs_m, 0.5, tol=1e-7)
    assert float(np.max(sol.u)) <= upper_start(quad, grid_m, vs_m, 0.5) + 1e-9
    # residual trace is the sup-norm of a monotone decreasing sequence
    assert all(r >= -1e-12 for _, r in sol.trace)


def test_discounted_subsolution_for_shifted_lagrangian(quad, grid_m, vs_m, tr_c=None):
    tr = build_transition(grid_m, vs_m)
    lam = 0.5
    sol = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-9, transition=tr)
    u = sol.u
    L = lagrangian_table(quad, grid_m.coords, vs_m.vectors)
    from weakkam.grids import interpolate
    cont = interpolate(tr, u)
    # u(foot) - u <= h*(L - lam*u) + O(h^2): the discrete shadow of u being
    # a subsolution for the generalized Lagrangian L - lam*u
    res = cont - u[:, None] - grid_m.h * (L - lam * u[:, None])
    mask = (~tr.clipped) & np.isfinite(L)
    slack = 8.0 * grid_m.h ** 2 * (1.0 + lam)
    assert float(np.max(res[mask])) <= slack


def test_lambda_u_at_origin_tracks_critical_value(quad, grid_m, vs_m):
    i0 = grid_m.node_near([0.0])
    vals = []
    for lam in (1.0, 0.5, 0.25):
        sol = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-8)
        vals.append(abs(lam * sol.u[i0]))
    assert all(v <= 0.02 for v in vals)


def test_max_iter_exceeded_carries_residual(quad, grid_m, vs_m):
    with pytest.raises(MaxIterExceeded) as err:
        solve_discounted(quad, grid_m, vs_m, 0.5, tol=1e-12, max_iter=1)
    assert err.value.residual > 0
    assert err.value.iterations == 1


def test_lambda_must_be_positive(quad, grid_m, vs_m):
    with pytest.raises(ValueError):
        solve_discounted(quad, grid_m, vs_m, 0.0)


# ---------------------------------------------------------------------------
# the policy solve and the exact fixed point
# ---------------------------------------------------------------------------

def _dense_policy_solve(tr, q, rhs, diag):
    n = len(q)
    rows = np.arange(n)
    A = diag * np.eye(n)
    np.add.at(A, (np.repeat(rows, tr.idx.shape[2]), tr.idx[rows, q].ravel()),
              -tr.w[rows, q].ravel())
    return np.linalg.solve(A, rhs)


@pytest.mark.parametrize("box, h, count", [
    ([[-4.0, 4.0]], 0.05, 7),
    ([[-1.0, 1.0], [-1.0, 1.0]], 0.25, 5),
])
def test_block_solve_matches_dense_solve(box, h, count):
    g = build_grid(box, h)
    vs = build_velocity_set(1.5, count, dimension=g.dimension)
    tr = build_transition(g, vs)
    rng = np.random.default_rng(0)
    n = g.num_nodes
    rows = np.arange(n)
    q = rng.integers(0, vs.size, n)
    B = max(int(np.max(np.abs(tr.idx[rows, q] - rows[:, None]))), MIN_BLOCK)
    assert n % B != 0                      # the last block is padded
    rhs = rng.normal(size=n)
    for diag in (1.0 + 0.5 * h, 1.0 + 1e-4 * h):
        got = policy_solve(tr, q, rhs, diag)
        want = _dense_policy_solve(tr, q, rhs, diag)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


def test_small_lambda_reaches_the_fixed_point(eik_super_m, grid_m, vs_m):
    lam = 0.01
    tr = build_transition(grid_m, vs_m)
    sol = solve_discounted(eik_super_m, grid_m, vs_m, lam, tol=1e-12, transition=tr)
    u = sol.u
    L = lagrangian_table(eik_super_m, grid_m.coords, vs_m.vectors)
    Tu = np.min(grid_m.h * L + interpolate(tr, u), axis=1) / (1.0 + lam * grid_m.h)
    assert float(np.max(np.abs(Tu - u))) <= 1e-12
    assert sol.residual <= 1e-12
    xg = grid_m.coords[:, 0]
    near = np.abs(xg) <= 1.0
    assert np.max(np.abs(u - oracle_abs(lam, xg))[near]) <= 0.03
    assert lam * u[grid_m.node_near([0.0])] == pytest.approx(0.0, abs=0.02)


def test_trace_has_one_row_per_policy_step(quad, grid_m, vs_m):
    sol = solve_discounted(quad, grid_m, vs_m, 0.25, tol=1e-9)
    assert [it for it, _ in sol.trace] == list(range(1, sol.iterations + 1))
    assert len(sol.policy_changes) == sol.iterations
    # the first step sets every node's action; later steps switch some
    assert sol.policy_changes[0] == grid_m.num_nodes
    assert all(c > 0 for c in sol.policy_changes)


def test_round_off_tie_does_not_cycle(quad):
    # here two actions tie at one node, and each policy's exact evaluation
    # makes the other strictly cheaper by round-off: the policy would
    # alternate forever, so the loop stops at the first revisited policy
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    sol = solve_discounted(quad, g, vs, 1.0, tol=1e-12)
    assert sol.iterations <= 10
    assert sol.residual <= 1e-12
