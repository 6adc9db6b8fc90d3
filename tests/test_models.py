import math

import numpy as np
import pytest

from weakkam.errors import A3Violated, NonCoercive
from weakkam.models import (
    convexify_table,
    fenchel_transform,
    hamiltonian,
    lagrangian_table,
    lower_convex_envelope,
    make_model,
    superlinearize,
    support_function,
    validate_assumptions,
    weyl_points,
)

from helpers import make_asymmetric_sampled


# ---------------------------------------------------------------------------
# Fenchel transform
# ---------------------------------------------------------------------------

def test_transform_quadratic_closed_form(quad):
    # L = |q|^2/2 + f(x)
    assert fenchel_transform(quad, [0.5], [1.0]) == pytest.approx(0.625, abs=1e-14)


def test_transform_zero_velocity_at_potential_minimum(quad, eik):
    for model in (quad, eik):
        assert fenchel_transform(model, [0.0], [0.0]) == pytest.approx(0.0, abs=1e-14)


def test_transform_superlinearized_eikonal_at_origin(eik_super):
    assert fenchel_transform(eik_super, [0.0], [1.0]) == pytest.approx(0.0, abs=1e-14)
    # beyond the unit ball the quadratic tail of the surrogate takes over
    assert fenchel_transform(eik_super, [0.0], [1.5]) == pytest.approx(0.25 ** 2, abs=1e-12)
    assert fenchel_transform(eik_super, [2.0], [1.5]) == pytest.approx(
        2.0 + 2.0 * 0.5 + 0.25 / 4.0, abs=1e-12)


def test_transform_raw_eikonal_diverges_beyond_unit_ball(eik):
    assert fenchel_transform(eik, [2.0], [0.7]) == pytest.approx(2.0)
    with pytest.raises(NonCoercive):
        fenchel_transform(eik, [2.0], [1.5])
    # the table is the point query over every (node, velocity) pair
    np.testing.assert_allclose(lagrangian_table(eik, [[2.0]], [[-0.7], [0.7]]),
                               [[2.0, 2.0]])
    with pytest.raises(NonCoercive):
        lagrangian_table(eik, [[0.0], [2.0]], [[0.7], [1.5]])


def test_transform_sampled_matches_closed_form(grid_tiny):
    model = make_asymmetric_sampled(grid_tiny, offset=0.0)
    # |p| - x^2/2 tabulated finely: transform should approach f(x) on |q|<=1
    assert fenchel_transform(model, [1.0], [0.5]) == pytest.approx(0.5, abs=1e-6)


def test_transform_sampled_noncoercive_on_probe_boundary(grid_tiny):
    model = make_asymmetric_sampled(grid_tiny, offset=0.0)
    with pytest.raises(NonCoercive):
        fenchel_transform(model, [1.0], [2.0])


def test_fenchel_young_random_triples(quad, eik_super):
    rng = np.random.default_rng(7)
    n = 10_000
    X = rng.uniform(-4.0, 4.0, (n, 1))
    P = rng.uniform(-6.0, 6.0, (n, 1))
    Q = rng.uniform(-3.0, 3.0, (n, 1))
    for model in (quad, eik_super):
        L = np.asarray(fenchel_transform(model, X, Q))
        H = np.asarray(hamiltonian(model, X, P))
        viol = P[:, 0] * Q[:, 0] - H - L
        assert float(np.max(viol)) <= 1e-10


# ---------------------------------------------------------------------------
# superlinearize
# ---------------------------------------------------------------------------

def test_superlinearize_eikonal_formula(eik, eik_super, grid_c):
    assert eik_super.super_b == pytest.approx(0.0, abs=1e-12)
    for p in (0.3, 1.0, 2.5):
        assert hamiltonian(eik_super, [0.0], [p]) == pytest.approx(p + p * p, abs=1e-12)


def test_superlinearize_preserves_zero_sublevel(eik, eik_super):
    rng = np.random.default_rng(0)
    X = rng.uniform(-4.0, 4.0, (500, 1))
    P = rng.uniform(-8.0, 8.0, (500, 1))
    h0 = np.asarray(hamiltonian(eik, X, P))
    h1 = np.asarray(hamiltonian(eik_super, X, P))
    assert np.array_equal(np.sign(np.maximum(h0, 0.0)), np.sign(np.maximum(h1, 0.0)))


def test_superlinearize_quadratic_keeps_sublevels(quad, grid_c):
    model = superlinearize(quad, grid_c)
    rng = np.random.default_rng(1)
    X = rng.uniform(-4.0, 4.0, (200, 1))
    P = rng.uniform(-4.0, 4.0, (200, 1))
    inside0 = np.asarray(hamiltonian(quad, X, P)) <= 0
    inside1 = np.asarray(hamiltonian(model, X, P)) <= 0
    assert np.array_equal(inside0, inside1)


def test_superlinearize_rejects_infimum_at_infinity(grid_c):
    runaway = make_model("eikonal", "inverse_bump")
    with pytest.raises(A3Violated):
        superlinearize(runaway, grid_c)


# ---------------------------------------------------------------------------
# support function
# ---------------------------------------------------------------------------

def test_support_quadratic_level_zero(quad):
    assert support_function(quad, 0.0, [1.0], [1.0]) == pytest.approx(1.0, abs=1e-14)


def test_support_zero_velocity(quad, eik):
    for model in (quad, eik):
        assert support_function(model, 0.0, [1.0], [0.0]) == pytest.approx(0.0)


def test_support_empty_sublevel_returns_nan(eik, quad):
    assert np.isnan(support_function(eik, -0.1, [0.0], [1.0]))
    assert np.isnan(support_function(quad, -0.1, [0.0], [1.0]))


def test_support_positive_homogeneity(quad, eik_super):
    rng = np.random.default_rng(3)
    for model in (quad, eik_super):
        for _ in range(50):
            x = [rng.uniform(-3, 3)]
            q = [rng.uniform(-2, 2)]
            t = rng.uniform(0.0, 4.0)
            s1 = support_function(model, 0.3, x, q)[0]
            st = support_function(model, 0.3, x, [t * q[0]])[0]
            assert st == pytest.approx(t * s1, abs=1e-12 * (1 + abs(s1)))


def test_support_monotone_in_level(quad, eik_super):
    for model in (quad, eik_super):
        prev = -np.inf
        for a in (0.0, 0.2, 0.5, 1.0):
            val = support_function(model, a, [1.0], [1.0])
            assert val >= prev
            prev = val


def test_support_asymmetric_sampled(grid_tiny):
    # |p + 0.3| - x^2/2 at x=1, a=0: sublevel [-0.8, 0.2]
    model = make_asymmetric_sampled(grid_tiny)
    assert support_function(model, 0.0, [1.0], [1.0]) == pytest.approx(0.2, abs=1e-9)
    assert support_function(model, 0.0, [1.0], [-1.0]) == pytest.approx(0.8, abs=1e-9)


def test_sublevel_radius_superlinearized_above_b(eik_super):
    # above the level b the quadratic tail shrinks the radius: r + r^2 = a at x=0
    a = 2.0
    r = support_function(eik_super, a, [0.0], [1.0])
    assert r + r * r == pytest.approx(a, abs=1e-12)


def test_support_table_matches_pointwise(quad, eik_super, grid_tiny, vs7):
    for model in (quad, eik_super, make_asymmetric_sampled(grid_tiny)):
        for a in (-0.1, 0.0, 0.3):
            table = support_function(model, a, grid_tiny.coords[:, None, :],
                                     vs7.vectors[None, :, :])
            for i in range(grid_tiny.num_nodes):
                for m in range(vs7.size):
                    s = support_function(model, a, grid_tiny.coords[i], vs7.vectors[m])[0]
                    assert table[i, m] == s if not np.isnan(s) else np.isnan(table[i, m])


def test_support_batch_marks_empty_with_nan(quad, grid_c, vs7):
    table = support_function(quad, -0.1, grid_c.coords[:, None, :], vs7.vectors[None, :, :])
    assert np.isnan(table[grid_c.node_near([0.0])]).all()
    assert np.isfinite(table[grid_c.node_near([2.0])]).all()


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

def test_validate_eikonal_abs_passes(eik, grid_c):
    rep = validate_assumptions(eik, grid_c)
    assert rep.all_passed
    assert rep.a3_rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.a3_lhs <= rep.epsilon_used - 3.6 + 1e-9


def test_validate_quadratic_passes(quad, grid_c):
    rep = validate_assumptions(quad, grid_c)
    assert rep.all_passed
    assert rep.a3_rhs == pytest.approx(0.0, abs=1e-12)


def test_validate_inverse_bump_fails_a3(grid_c):
    rep = validate_assumptions(make_model("eikonal", "inverse_bump"), grid_c)
    assert not rep.verdicts["A3"].passed
    assert rep.verdicts["A2-convexity"].passed


def test_weyl_points_fill_each_axis_evenly():
    # the convexity probes: 2000 points in [0, 1)^3, each axis within 5 of
    # 100 per bin of width 1/20, and the same points on every call
    u = weyl_points(2000, 3)
    assert u.shape == (2000, 3) and np.all((u >= 0.0) & (u < 1.0))
    for k in range(3):
        counts = np.bincount((u[:, k] * 20).astype(int), minlength=20)
        assert np.all(np.abs(counts - 100) <= 5), counts
    np.testing.assert_array_equal(u, weyl_points(2000, 3))


def test_validate_sampled(grid_tiny):
    rep = validate_assumptions(make_asymmetric_sampled(grid_tiny), grid_tiny)
    assert rep.verdicts["A2-convexity"].passed
    assert rep.verdicts["A3"].passed


# ---------------------------------------------------------------------------
# misc model machinery
# ---------------------------------------------------------------------------

def test_lower_convex_envelope():
    p = np.array([-1.0, 0.0, 1.0, 2.0])
    v = np.array([1.0, 5.0, 1.0, 3.0])  # bump at 0 must be shaved
    env = lower_convex_envelope(p, v)
    assert env[1] == pytest.approx(1.0)
    assert env[0] == 1.0 and env[2] == 1.0


def test_convexify_reports_correction(grid_tiny):
    model = make_asymmetric_sampled(grid_tiny)
    vals = model.sampled.values.copy()
    vals[:, 30] += 1.0
    from weakkam.models import SampledTable
    table = SampledTable(model.sampled.x_coords, model.sampled.p_grid, vals)
    fixed, worst = convexify_table(table)
    assert worst == pytest.approx(1.0, abs=1e-9)
    assert fixed.convexified


def test_normalization_shift_moves_levels():
    # H_work = H - c0: positive shifts lower the critical value and fatten
    # the sublevels, negative shifts empty them near the potential minimum
    down = make_model("quadratic", "half_square", normalization_shift=0.3)
    assert fenchel_transform(down, [0.5], [1.0]) == pytest.approx(0.925)
    assert support_function(down, 0.0, [0.0], [1.0]) == pytest.approx(
        math.sqrt(0.6), abs=1e-12)
    up = make_model("quadratic", "half_square", normalization_shift=-0.3)
    assert np.isnan(support_function(up, 0.0, [0.0], [1.0]))
    assert support_function(up, 0.3, [0.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_lagrangian_table_matches_pointwise(quad, eik_super, grid_tiny, vs7):
    for model in (quad, eik_super):
        table = lagrangian_table(model, grid_tiny.coords, vs7.vectors)
        for i in (0, 4, 8):
            for m in (0, 3, 6):
                assert table[i, m] == pytest.approx(
                    fenchel_transform(model, grid_tiny.coords[i], vs7.vectors[m]))


def test_potential_scale_and_offset():
    model = make_model("quadratic", {"name": "half_square", "scale": 2.0,
                                     "offset": 0.1})
    # L = |q|^2/2 + 2 f + 0.1
    assert fenchel_transform(model, [1.0], [0.0]) == pytest.approx(1.1)
