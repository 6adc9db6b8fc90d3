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
