import math
import tracemalloc

import numpy as np
import pytest

import weakkam.discounted as discounted
from weakkam.discounted import (
    MIN_BLOCK,
    SLAB_BYTES,
    oracle_abs,
    oracle_quadratic,
    policy_solve,
    quadratic_rate,
    solve_discounted,
    transposed_policy_solve,
    upper_start,
)
from weakkam.errors import MaxIterExceeded, SingularBasis, WeakKAMError
from weakkam.grids import build_grid, build_transition, build_velocity_set, interpolate
from weakkam.models import h_at_zero, lagrangian_table, make_model, superlinearize

from helpers import policy_solve_full_band


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
def tr_m(grid_m, vs_m):
    return build_transition(grid_m, vs_m)


@pytest.fixture(scope="module")
def eik_super_m(grid_m):
    return superlinearize(make_model("eikonal", "abs"), grid_m)


def test_solve_eikonal_matches_oracle(eik_super_m, grid_m, vs_m, tr_m):
    sol = solve_discounted(eik_super_m, grid_m, vs_m, 0.5, tol=1e-7, transition=tr_m)
    xg = grid_m.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(sol.u - oracle_abs(0.5, xg))[mask]) <= 0.03
    assert sol.u[grid_m.node_near([0.0])] == pytest.approx(0.0, abs=0.02)
    assert sol.residual <= 1e-7


def test_solve_quadratic_matches_oracle(quad, grid_m):
    vs = build_velocity_set(2.0, 33)
    sol = solve_discounted(quad, grid_m, vs, 1.0, tol=1e-8,
                           transition=build_transition(grid_m, vs))
    assert sol.u[grid_m.node_near([1.0])] == pytest.approx(
        quadratic_rate(1.0), abs=0.02)


def test_lambda_u_bounded_below_by_minus_b(eik_super_m, quad, grid_m, vs_m, tr_m):
    for model, lam in ((eik_super_m, 0.5), (quad, 1.0)):
        b = float(np.max(h_at_zero(model, grid_m.coords)))
        sol = solve_discounted(model, grid_m, vs_m, lam, tol=1e-7, transition=tr_m)
        assert float(np.min(lam * sol.u)) >= -b - 1e-6


def test_iterates_start_above_and_decrease(quad, grid_m, vs_m, tr_m):
    # the constant upper bound dominates the fixed point
    sol = solve_discounted(quad, grid_m, vs_m, 0.5, tol=1e-7, transition=tr_m)
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


def test_lambda_u_at_origin_tracks_critical_value(quad, grid_m, vs_m, tr_m):
    i0 = grid_m.node_near([0.0])
    vals = []
    for lam in (1.0, 0.5, 0.25):
        sol = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-8, transition=tr_m)
        vals.append(abs(lam * sol.u[i0]))
    assert all(v <= 0.02 for v in vals)


def test_max_iter_exceeded_carries_residual(quad, grid_m, vs_m, tr_m):
    with pytest.raises(MaxIterExceeded) as err:
        solve_discounted(quad, grid_m, vs_m, 0.5, tol=1e-12, max_iter=1, transition=tr_m)
    assert err.value.residual > 0
    assert err.value.iterations == 1


def test_final_residual_above_tol_raises(quad, grid_m, vs_m, tr_m):
    sol = solve_discounted(quad, grid_m, vs_m, 0.5, tol=1e-6, transition=tr_m)
    assert sol.residual > 0
    with pytest.raises(WeakKAMError, match="Bellman residual .* exceeds tol"):
        solve_discounted(quad, grid_m, vs_m, 0.5, tol=sol.residual / 2, transition=tr_m)


def test_lambda_must_be_positive(quad, grid_m, vs_m, tr_m):
    with pytest.raises(ValueError):
        solve_discounted(quad, grid_m, vs_m, 0.0, transition=tr_m)


def test_a_discount_lost_to_rounding_raises_singular_basis(quad, grid_m, vs_m, tr_m):
    # 1 + 1e-20 h is 1.0: a resting node's row of I - W is 0
    with pytest.raises(SingularBasis):
        solve_discounted(quad, grid_m, vs_m, 1e-20, transition=tr_m)


# ---------------------------------------------------------------------------
# the policy solve and the exact fixed point
# ---------------------------------------------------------------------------

def test_a_resting_node_keeps_its_discount_exactly(grid_m, vs_m, tr_m):
    # every node rests, so the matrix is lambda h I; (1 + lambda h) - 1
    # would be 9.992e-15 at lambda h = 1e-14, off by 8e-4
    q = np.full(grid_m.num_nodes, vs_m.zero_index())
    rhs = np.linspace(1.0, 2.0, grid_m.num_nodes)
    np.testing.assert_allclose(policy_solve(tr_m, q, rhs, 1e-14), rhs / 1e-14,
                               rtol=1e-15, atol=0.0)


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
    for lam_h in (0.5 * h, 1e-4 * h):
        got = policy_solve(tr, q, rhs, lam_h)
        want = _dense_policy_solve(tr, q, rhs, 1.0 + lam_h)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
        # two right-hand sides with the one factorization
        both = policy_solve(tr, q, np.column_stack([rhs, -2.0 * rhs]), lam_h)
        np.testing.assert_allclose(both, np.column_stack([want, -2.0 * want]), rtol=0,
                                   atol=2e-10 * np.max(np.abs(want)))


def _random_policy_system(g, vs, seed=0):
    tr = build_transition(g, vs)
    rng = np.random.default_rng(seed)
    n = g.num_nodes
    rows = np.arange(n)
    q = rng.integers(0, vs.size, n)
    B = max(int(np.max(np.abs(tr.idx[rows, q] - rows[:, None]))), MIN_BLOCK)
    return tr, q, rng.normal(size=n), B


@pytest.mark.parametrize("blocks_per_slab", [None, 1, 2])
def test_slabs_give_the_full_band_solve_bit_for_bit(blocks_per_slab, monkeypatch):
    # 1,681 nodes in 2D: 21 blocks of B = 83, the last one padded; slabs of
    # SLAB_BYTES hold one block each, and slabs of 2 leave a last slab of 1
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.1)
    tr, q, rhs, B = _random_policy_system(g, build_velocity_set(1.5, 5, dimension=2))
    block = B * 3 * B * 8
    nb = -(-g.num_nodes // B)
    assert g.num_nodes % B != 0 and nb % 2 == 1
    if blocks_per_slab:
        monkeypatch.setattr(discounted, "SLAB_BYTES", blocks_per_slab * block + block // 2)
    assert discounted.SLAB_BYTES // block == (blocks_per_slab or 1)
    for lam_h in (0.5 * g.h, 1e-4 * g.h):
        got = policy_solve(tr, q, rhs, lam_h)
        want = policy_solve_full_band(tr, q, rhs, lam_h)
        np.testing.assert_array_equal(got, want)


def test_1d_band_is_one_slab(monkeypatch):
    # 26 blocks of 16 x 48 at 401 nodes: 160 KB, one bincount
    g = build_grid([[-4.0, 4.0]], 0.02)
    tr, q, rhs, B = _random_policy_system(g, build_velocity_set(1.5, 7))
    nb = -(-g.num_nodes // B)
    assert (nb, B) == (26, 16) and nb * B * 3 * B * 8 <= SLAB_BYTES
    calls = []
    real = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(discounted.np, "bincount", counting)
    got = policy_solve(tr, q, rhs, 0.01)
    monkeypatch.undo()
    assert len(calls) == 1
    np.testing.assert_array_equal(got, policy_solve_full_band(tr, q, rhs, 0.01))


@pytest.mark.parametrize("box, h, count, blocks_per_slab", [
    ([[-4.0, 4.0]], 0.05, 7, None),                   # 11 blocks of 16, one slab
    ([[-1.0, 1.0], [-1.0, 1.0]], 0.25, 5, None),      # 5 blocks of 20, one slab
    ([[-2.0, 2.0], [-2.0, 2.0]], 0.1, 5, 1),          # 21 blocks of 83, one a slab
    ([[-2.0, 2.0], [-2.0, 2.0]], 0.1, 5, 2),          # two a slab, the last alone
])
def test_transposed_block_solve_matches_dense_solve(box, h, count, blocks_per_slab,
                                                    monkeypatch):
    # the factor's own solve is Howard's, bit for bit, and its transposed
    # solve is a dense solve of the transpose, down to lambda h = 1e-4
    g = build_grid(box, h)
    tr, q, rhs, B = _random_policy_system(g, build_velocity_set(1.5, count,
                                                                dimension=g.dimension))
    n = g.num_nodes
    assert n % B != 0 and (-(-n // B)) % 2 == 1     # odd, and the last block padded
    if blocks_per_slab:
        block = B * 3 * B * 8
        monkeypatch.setattr(discounted, "SLAB_BYTES", blocks_per_slab * block + block // 2)
    rows = np.arange(n)
    rhs_t = np.random.default_rng(1).normal(size=n)
    for lam_h in (0.5 * h, 1e-4):
        u, factor = policy_solve(tr, q, rhs, lam_h, keep=True)
        np.testing.assert_array_equal(u, policy_solve(tr, q, rhs, lam_h))
        A = (1.0 + lam_h) * np.eye(n)
        np.add.at(A, (np.repeat(rows, tr.idx.shape[2]), tr.idx[rows, q].ravel()),
                  -tr.w[rows, q].ravel())
        want = np.linalg.solve(A.T, rhs_t)
        np.testing.assert_allclose(transposed_policy_solve(factor, rhs_t), want, rtol=0,
                                   atol=1e-10 * np.max(np.abs(want)))


def test_policy_solve_memory_is_bounded_in_2d():
    # the full (21, 83, 249) band alone is 3.5 MB, and with the factors C
    # the solve peaked at 5.1 MB; one slab at a time it peaks at 1.8 MB
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.1)
    tr, q, rhs, B = _random_policy_system(g, build_velocity_set(1.5, 5, dimension=2))
    tracemalloc.start()
    try:
        policy_solve(tr, q, rhs, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


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


def test_trace_has_one_row_per_policy_step(quad, grid_m, vs_m, tr_m):
    sol = solve_discounted(quad, grid_m, vs_m, 0.25, tol=1e-9, transition=tr_m)
    assert [it for it, _ in sol.trace] == list(range(1, sol.iterations + 1))
    assert len(sol.policy_changes) == sol.iterations
    # the start's evaluation sets every node's action; later steps switch some
    assert sol.policy_changes[0] == grid_m.num_nodes
    assert all(c > 0 for c in sol.policy_changes)


def test_returned_policy_evaluates_to_the_returned_values(quad, grid_m, vs_m, tr_m):
    # the LPs start from this policy's basis, so it must be the one u solves
    lam = 0.25
    sol = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-9, transition=tr_m)
    rows = np.arange(grid_m.num_nodes)
    stage = grid_m.h * lagrangian_table(quad, grid_m.coords, vs_m.vectors)[rows, sol.policy]
    np.testing.assert_array_equal(
        policy_solve(tr_m, sol.policy, stage, lam * grid_m.h), sol.u)


def test_warm_start_from_the_last_lambda_ends_on_the_same_fixed_point(
        eik_super_m, grid_m, vs_m, tr_m):
    # the study chains its lambdas this way
    prev = solve_discounted(eik_super_m, grid_m, vs_m, 0.25, tol=1e-7, transition=tr_m)
    cold = solve_discounted(eik_super_m, grid_m, vs_m, 0.125, tol=1e-7, transition=tr_m)
    warm = solve_discounted(eik_super_m, grid_m, vs_m, 0.125, tol=1e-7, transition=tr_m,
                            policy0=prev.policy)
    np.testing.assert_array_equal(warm.policy, cold.policy)
    assert warm.u.tobytes() == cold.u.tobytes()
    assert warm.iterations < cold.iterations
    assert [it for it, _ in warm.trace] == list(range(1, warm.iterations + 1))
    assert warm.policy_changes[0] == grid_m.num_nodes
    # a start that is already optimal is evaluated once and kept
    again = solve_discounted(eik_super_m, grid_m, vs_m, 0.125, tol=1e-7,
                             transition=tr_m, policy0=cold.policy)
    assert again.iterations == 1
    assert again.u.tobytes() == cold.u.tobytes()


def test_warm_start_above_the_constant_start_still_decreases(quad, grid_m, vs_m, tr_m):
    # a random policy's value exceeds the constant upper bound at some
    # nodes; every step after its evaluation decreases, since T u_q <= u_q
    lam = 0.5
    rows = np.arange(grid_m.num_nodes)
    q0 = np.random.default_rng(3).integers(0, vs_m.size, grid_m.num_nodes)
    stage = grid_m.h * lagrangian_table(quad, grid_m.coords, vs_m.vectors)
    u0 = policy_solve(tr_m, q0, stage[rows, q0], lam * grid_m.h)
    assert np.max(u0) > upper_start(quad, grid_m, vs_m, lam)
    cold = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-9, transition=tr_m)
    warm = solve_discounted(quad, grid_m, vs_m, lam, tol=1e-9, transition=tr_m,
                            policy0=q0)
    assert all(step > 0 for _, step in warm.trace[1:])
    np.testing.assert_allclose(warm.u, cold.u, rtol=0, atol=1e-9)


def test_round_off_tie_does_not_cycle(quad):
    # here two actions tie at one node, and each policy's exact evaluation
    # makes the other strictly cheaper by round-off: a node that switched
    # on any gain would alternate forever, so it switches only on a gain
    # past the round-off of the prices
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    sol = solve_discounted(quad, g, vs, 1.0, tol=1e-12, transition=build_transition(g, vs))
    assert sol.iterations <= 10
    assert sol.residual <= 1e-12
