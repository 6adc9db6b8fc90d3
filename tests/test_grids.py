import tracemalloc
import warnings

import numpy as np
import pytest

from weakkam.errors import DegenerateBox
from weakkam.grids import (
    build_grid,
    build_transition,
    build_velocity_set,
    interpolate,
)

from helpers import interp_weights_whole, interpolate_gathered, transition_whole


def test_five_node_line():
    g = build_grid([[-1.0, 1.0]], 0.5)
    assert g.num_nodes == 5
    np.testing.assert_allclose(g.coords[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_non_integral_spacing_rejected():
    with pytest.raises(ValueError):
        build_grid([[-1.0, 1.0]], 0.3)


def test_degenerate_box():
    with pytest.raises(DegenerateBox):
        build_grid([[-1.0, 1.0]], 1.0)


def test_velocity_set_three():
    vs = build_velocity_set(1.0, 3)
    np.testing.assert_allclose(sorted(vs.vectors[:, 0]), [-1.0, 0.0, 1.0])
    assert vs.vectors[vs.zero_index(), 0] == 0.0


def test_velocity_set_symmetric_and_contains_zero():
    vs = build_velocity_set(1.5, 7, dimension=2)
    vecs = {tuple(v) for v in vs.vectors}
    assert (0.0, 0.0) in vecs
    for v in vecs:
        assert (-v[0], -v[1]) in vecs
    assert np.max(vs.speeds()) <= 1.5 + 1e-12


def test_velocity_set_even_count_rejected():
    with pytest.raises(ValueError):
        build_velocity_set(1.0, 4)


def test_exact_foot_hit():
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    tr = build_transition(g, vs)
    i0 = g.node_near([0.0])
    m = int(np.argmax(vs.vectors[:, 0]))  # q = +1
    # foot 0 + 0.5*1 = 0.5 is node index 3 with weight exactly 1
    k = int(np.argmax(tr.w[i0, m]))
    assert tr.idx[i0, m, k] == 3
    assert tr.w[i0, m, k] == 1.0
    assert not tr.clipped[i0, m]


def test_rows_are_stochastic():
    g = build_grid([[-1.0, 1.0]], 0.25)
    vs = build_velocity_set(1.3, 5)
    tr = build_transition(g, vs)
    assert np.all(tr.w >= 0)
    np.testing.assert_allclose(tr.w.sum(axis=2), 1.0, atol=1e-15)


def test_clipping_flags_boundary_feet():
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    tr = build_transition(g, vs)
    m_plus = int(np.argmax(vs.vectors[:, 0]))
    assert tr.clipped[g.num_nodes - 1, m_plus]           # outward at the edge
    assert not tr.clipped[g.num_nodes - 2, m_plus]
    np.testing.assert_allclose(tr.feet[g.num_nodes - 1, m_plus], [1.0])


def test_warns_when_most_moving_feet_clip():
    # h * q_max = 1.75 on [-1, 1]: 8 of the 10 moving feet clip
    g = build_grid([[-1.0, 1.0]], 0.5)
    vs = build_velocity_set(3.5, 3)
    with pytest.warns(UserWarning, match="80% of the moving feet"):
        tr = build_transition(g, vs)
    moving = vs.speeds() > 0
    assert tr.clipped[:, moving].mean() == pytest.approx(0.8)


def test_no_clip_warning_on_the_workhorse_grid(grid_c, vs7):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_transition(grid_c, vs7)


def test_forward_backward_mass_returns(grid_c, vs7, tr_c):
    # composing q and -q foot maps returns mass to the start within the
    # interpolation spread of one cell
    vals = grid_c.coords[:, 0].copy()
    m = 1  # some nonzero velocity
    q = vs7.vectors[m]
    m_rev = int(np.argmin(np.sum((vs7.vectors + q) ** 2, axis=1)))
    interior = ~grid_c.shell_mask(0.3)
    once = interpolate(build_transition(grid_c, vs7), vals)[:, m]
    # one step out, one step back, acting on the linear field x: exact return
    feet = grid_c.coords + grid_c.h * q
    back = feet + grid_c.h * vs7.vectors[m_rev]
    np.testing.assert_allclose(back[interior], grid_c.coords[interior], atol=1e-12)
    assert np.max(np.abs(once[interior] - (vals + grid_c.h * q[0])[interior])) < 1e-12


def test_value_field_interpolation():
    g = build_grid([[-1.0, 1.0]], 0.5)
    values = g.coords[:, 0] ** 2

    def at(x):
        idx, w = g.interp_weights([[x]])
        return float(np.sum(w * values[idx]))

    # linear interpolation of x^2 at a midpoint: average of neighbor squares
    assert at(0.25) == pytest.approx(0.5 * (0.0 + 0.25))
    assert at(0.5) == pytest.approx(0.25)


def test_interp_weights_2d():
    g = build_grid([[0.0, 1.0], [0.0, 2.0]], 0.25)
    idx, w = g.interp_weights([[0.375, 1.125]])
    assert w.shape == (1, 4)
    assert np.all(w >= 0) and w.sum() == pytest.approx(1.0)
    vals = g.coords[:, 0] + 2.0 * g.coords[:, 1]
    assert float(np.sum(w * vals[idx])) == pytest.approx(0.375 + 2.25, abs=1e-12)


def test_node_near_and_masks(grid_c):
    assert grid_c.coords[grid_c.node_near([1.02])][0] == pytest.approx(1.0)
    shell = grid_c.shell_mask()
    assert shell[grid_c.node_near([3.9])] and not shell[grid_c.node_near([0.0])]
    sub = grid_c.box_mask([[-2.0, 2.0]])
    assert sub.sum() == 81


# the 1D study grid with 33 velocities, and the 2D grid at h = 0.05
INTERPOLATION_GRIDS = [([[-4.0, 4.0]], 0.02, 2.0, 33, 1),
                       ([[-2.0, 2.0], [-2.0, 2.0]], 0.05, 1.5, 5, 2)]


@pytest.mark.parametrize("box,h,q_max,count,dim", INTERPOLATION_GRIDS, ids=["1d", "2d"])
def test_interpolate_adds_the_corners_in_numpy_order(box, h, q_max, count, dim):
    # corner by corner from the first, the order np.sum takes over so few
    # corners, so the values are the gathered sum's bit for bit
    tr = build_transition(build_grid(box, h), build_velocity_set(q_max, count, dim))
    rng = np.random.default_rng(dim)
    n = tr.grid.num_nodes
    for values in (rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)):
        np.testing.assert_array_equal(interpolate(tr, values),
                                      interpolate_gathered(tr, values))


def test_interpolate_holds_no_gather_of_every_corner():
    # the result plus one corner's gather; the gathered form holds two
    # (n, M, 4) arrays, five times the result
    box, h, q_max, count, dim = INTERPOLATION_GRIDS[1]
    tr = build_transition(build_grid(box, h), build_velocity_set(q_max, count, dim))
    values = np.random.default_rng(0).normal(size=tr.grid.num_nodes)
    tracemalloc.start()
    try:
        out = interpolate(tr, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.nbytes


# the 1D grid of the discounted benchmark, 1D and 2D grids whose feet snap
# onto nodes, the 2D graph benchmark grid (unequal strides in the last
# case), and a 3D grid, where a corner's weight is a product of 3 factors
TRANSITION_GRIDS = [([[-4.0, 4.0]], 0.02, 2.0, 33, 1),
                    ([[-1.0, 1.0]], 0.25, 1.0, 5, 1),
                    ([[-2.0, 2.0], [-2.0, 2.0]], 0.1, 1.5, 5, 2),
                    ([[-2.0, 2.0], [-1.0, 1.0]], 0.25, 2.0, 5, 2),
                    ([[-1.0, 1.0], [0.0, 2.0], [-1.0, 0.5]], 0.25, 1.7, 5, 3)]


@pytest.mark.parametrize("box,h,q_max,count,dim", TRANSITION_GRIDS,
                         ids=["1d", "1d-snap", "2d", "2d-snap", "3d"])
def test_transition_is_the_whole_array_formula_bit_for_bit(box, h, q_max, count, dim):
    g = build_grid(box, h)
    vs = build_velocity_set(q_max, count, dim)
    tr = build_transition(g, vs)
    feet, clipped, idx, w = transition_whole(g, vs)
    assert clipped.any() and not clipped.all()
    np.testing.assert_array_equal(tr.feet, feet)
    np.testing.assert_array_equal(tr.clipped, clipped)
    np.testing.assert_array_equal(tr.idx, idx)
    np.testing.assert_array_equal(tr.w.view(np.int64), w.view(np.int64))


def test_snapped_feet_carry_one_exact_weight():
    # h q = 0.25 and 0.5: every foot is a node, so its row is a unit vector
    g = build_grid([[-2.0, 2.0], [-1.0, 1.0]], 0.25)
    tr = build_transition(g, build_velocity_set(2.0, 5, 2))
    assert np.all(np.sort(tr.w, axis=2)[:, :, -1] == 1.0)
    assert np.all(tr.w.sum(axis=2) == 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_weights_match_the_whole_array_formula_near_and_off_nodes(dim):
    # points on nodes, within the snap tolerance of them (both sides),
    # just past it, and outside the box
    g = build_grid([[-1.0, 1.0]] * dim, 0.25)
    rng = np.random.default_rng(dim)
    free = rng.uniform(-1.5, 1.5, size=(400, dim))
    nodes = np.round(free / g.h) * g.h
    nudge = rng.choice([0.0, 1e-10, -1e-10, 2e-9, -2e-9], size=free.shape)
    for points in (free, nodes + nudge, free[0]):
        idx, w = g.interp_weights(points)
        want_idx, want_w = interp_weights_whole(g, points)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(w.view(np.int64), want_w.view(np.int64))


def test_transition_peaks_below_one_and_a_half_times_what_it_keeps():
    # the feet are clipped in place and the weights written into the kept
    # arrays; the whole-array formula peaks at 2.5 times them
    box, h, q_max, count, dim = INTERPOLATION_GRIDS[1]
    g = build_grid(box, h)
    vs = build_velocity_set(q_max, count, dim)
    tracemalloc.start()
    try:
        tr = build_transition(g, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = tr.feet.nbytes + tr.clipped.nbytes + tr.idx.nbytes + tr.w.nbytes
    assert peak <= 1.5 * kept
