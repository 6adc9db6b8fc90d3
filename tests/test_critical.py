import tracemalloc

import numpy as np
import pytest

import weakkam.critical as critical
from weakkam.critical import (
    CHUNK,
    INF,
    SLICE_BYTES,
    build_aubry_data,
    build_critical_data,
    critical_value,
    distances_to_targets,
    edge_costs,
    intrinsic_distance,
    is_subsolution,
    peierls_field_to,
    relax_batch,
    reverse_edge_costs,
    weak_kam_solution,
)
from weakkam.errors import EmptySublevel, IncompatibleTrace, NegativeCycle, WeakKAMError
from weakkam.grids import VelocitySet, build_grid, build_transition, build_velocity_set
from weakkam.models import make_model

from helpers import (
    enumerate_paths_min_cost,
    make_asymmetric_sampled,
    reachable_nodes,
    relax_batch_extended,
    relax_batch_jacobi,
    relax_batch_unsliced,
)


# ---------------------------------------------------------------------------
# edge costs
# ---------------------------------------------------------------------------

def test_edge_cost_example(quad, grid_tiny, vs3, tr_tiny):
    costs = edge_costs(quad, grid_tiny, vs3, 0.0, tr_tiny)
    i1 = grid_tiny.node_near([1.0])
    m_plus = int(np.argmax(vs3.vectors[:, 0]))
    assert costs[i1, m_plus] == pytest.approx(0.5)
    assert costs[i1, vs3.zero_index()] == 0.0


def test_edge_cost_subcritical_certificate(quad, grid_tiny, vs3, tr_tiny):
    # the sublevel first empties at x = 0, the minimum of the potential
    node = grid_tiny.node_near([0.0])
    assert grid_tiny.coords[node, 0] == pytest.approx(0.0)
    with pytest.raises(EmptySublevel, match=rf"empty sublevel at node {node} "):
        edge_costs(quad, grid_tiny, vs3, -0.1, tr_tiny)
    assert issubclass(EmptySublevel, NegativeCycle)


def test_clipped_edges_are_excluded(quad, grid_tiny, vs3, tr_tiny):
    costs = edge_costs(quad, grid_tiny, vs3, 0.0, tr_tiny)
    m_plus = int(np.argmax(vs3.vectors[:, 0]))
    assert costs[grid_tiny.num_nodes - 1, m_plus] > 1e29


# ---------------------------------------------------------------------------
# critical value
# ---------------------------------------------------------------------------

def test_critical_value_quadratic(quad_crit):
    lo, hi = quad_crit.bracket
    assert hi - lo <= 1e-3
    assert abs(quad_crit.c) <= 1e-3


def test_critical_value_eikonal(eik, grid_c, vs7, tr_c):
    data = critical_value(eik, grid_c, vs7, tol=1e-3, transition=tr_c)
    assert abs(data.c) <= 1e-3


def test_critical_value_shifted():
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.0, 3)
    shifted = make_model("quadratic", "half_square", normalization_shift=0.3)
    data = critical_value(shifted, g, vs, tol=1e-4, transition=build_transition(g, vs))
    assert data.c == pytest.approx(-0.3, abs=1e-3)


def test_bisection_tol_must_be_positive(quad, grid_tiny, vs3, tr_tiny):
    # a collapsed bracket never gets narrower than a tolerance <= 0
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="bisection tolerance"):
            critical_value(quad, grid_tiny, vs3, tol=tol, transition=tr_tiny)


def test_critical_value_sampled_real_bisection(grid_tiny, vs3, tr_tiny):
    # |p + 0.3| - x^2/2: bracket [0, 0.3] forces the loop to actually bisect
    model = make_asymmetric_sampled(grid_tiny)
    data = critical_value(model, grid_tiny, vs3, tol=1e-4, transition=tr_tiny)
    assert data.c == pytest.approx(0.0, abs=2e-4)
    assert len(data.trace) > 5


def test_bisection_monotone_verdicts(grid_tiny, vs3, tr_tiny):
    from weakkam.critical import is_subcritical
    model = make_asymmetric_sampled(grid_tiny)
    verdicts = [is_subcritical(model, grid_tiny, vs3, a, tr_tiny)[0]
                for a in np.linspace(-0.2, 0.4, 13)]
    # once a level stops being subcritical it stays that way
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if (not a) and b)
    assert flips == 0


# ---------------------------------------------------------------------------
# intrinsic distances
# ---------------------------------------------------------------------------

def test_distance_from_source_quadratic(quad, grid_c, vs7, tr_c):
    src = grid_c.node_near([0.0])
    fld = intrinsic_distance(quad, grid_c, vs7, 0.0, src, transition=tr_c)
    assert fld[src] == 0.0
    assert fld[grid_c.node_near([1.0])] == pytest.approx(0.5, abs=2 * 0.05)
    # symmetric potential: same distance to -1
    assert fld[grid_c.node_near([-1.0])] == pytest.approx(
        fld[grid_c.node_near([1.0])], abs=1e-9)


def test_distance_triangle_inequality_exact(quad, grid_tiny, vs3, tr_tiny):
    costs = edge_costs(quad, grid_tiny, vs3, 0.0, tr_tiny)
    n = grid_tiny.num_nodes
    D = distances_to_targets(costs, tr_tiny, list(range(n)))
    S = D.T  # S[x, y] = distance x -> y
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert S[x, y] <= S[x, z] + S[z, y] + 1e-12


def test_distance_brute_force_oracle(quad, grid_tiny, vs3, tr_tiny):
    costs = edge_costs(quad, grid_tiny, vs3, 0.0, tr_tiny)
    src = grid_tiny.node_near([0.0])
    oracle = enumerate_paths_min_cost(costs, tr_tiny, src, max_depth=20)
    fld = intrinsic_distance(quad, grid_tiny, vs3, 0.0, src, transition=tr_tiny)
    np.testing.assert_array_equal(fld, oracle)


def test_distance_brute_force_oracle_negative_edges(grid_tiny, vs3, tr_tiny):
    model = make_asymmetric_sampled(grid_tiny)
    costs = edge_costs(model, grid_tiny, vs3, 0.05, tr_tiny)
    assert float(np.min(costs[costs < 1e29])) < 0  # negative edges present
    src = grid_tiny.node_near([0.0])
    oracle = enumerate_paths_min_cost(costs, tr_tiny, src, max_depth=20)
    fld = intrinsic_distance(model, grid_tiny, vs3, 0.05, src, transition=tr_tiny)
    np.testing.assert_allclose(fld, oracle, atol=1e-12)


def test_negative_cycle_detection_synthetic(grid_tiny, vs3, tr_tiny):
    costs = np.full((grid_tiny.num_nodes, vs3.size), 1.0)
    costs[tr_tiny.clipped] = 1e30
    zero = np.zeros((1, grid_tiny.num_nodes))
    relax_batch(costs, tr_tiny, zero)   # no negative cycle: reaches a fixed point
    m_plus = int(np.argmax(vs3.vectors[:, 0]))
    m_minus = int(np.argmin(vs3.vectors[:, 0]))
    i = grid_tiny.node_near([0.0])
    costs[i, m_plus] = -1.0
    costs[i + 1, m_minus] = 0.5  # two-cycle of total cost -0.5
    with pytest.raises(NegativeCycle):
        relax_batch(costs, tr_tiny, zero)
    with pytest.raises(NegativeCycle):
        distances_to_targets(costs, tr_tiny, [0])


def _box_2d(h):
    return build_grid([[-2.0, 2.0], [-2.0, 2.0]], h)


@pytest.mark.parametrize("potential, h, dimension", [
    ("half_square", 0.05, 1),
    ("half_square", 0.25, 2),
    ("half_square", 0.1, 2),
    ("double_well", 0.25, 2),
])
def test_exact_self_weight_matches_jacobi_sweeps(potential, h, dimension):
    # the exact solve of D(i) = c + w_s D(i) + rest has the fixed point of
    # the plain sweeps that iterate on it; only the round-off differs
    if dimension == 1:
        g, vs = build_grid([[-4.0, 4.0]], h), build_velocity_set(1.5, 7)
    else:
        g, vs = _box_2d(h), build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", potential, dimension=dimension)
    level = critical_value(model, g, vs, transition=tr).level
    targets = [g.node_near(p) for p in ([0.0] * dimension, [1.0] * dimension,
                                        [-2.0] + [0.0] * (dimension - 1))]
    D0 = np.full((len(targets), g.num_nodes), INF)
    D0[np.arange(len(targets)), targets] = 0.0
    for costs in (edge_costs(model, g, vs, level, tr),
                  reverse_edge_costs(model, g, vs, level, tr)):
        exact, sweeps = relax_batch(costs, tr, D0)
        jacobi, jacobi_sweeps = relax_batch_jacobi(costs, tr, D0)
        assert sweeps <= jacobi_sweeps
        finite = jacobi < INF / 2
        np.testing.assert_array_equal(exact < INF / 2, finite)
        np.testing.assert_allclose(exact[finite], jacobi[finite], rtol=1e-12, atol=0)


def _assert_matches_full_sweeps(costs, tr, D0):
    D, sweeps = relax_batch(costs, tr, D0)
    full, full_sweeps = relax_batch_extended(costs, tr, D0)
    np.testing.assert_array_equal(D, full)
    assert D.tobytes() == full.tobytes()
    assert sweeps == full_sweeps
    # the sweeps before slicing, on the tables before slimming
    unsliced, unsliced_sweeps = relax_batch_unsliced(costs, tr, D0)
    assert D.tobytes() == unsliced.tobytes()
    assert sweeps == unsliced_sweeps
    return sweeps


def _counting_slices(monkeypatch):
    """Record (block rows, nodes) of every slice that relax_batch evaluates."""
    sizes = []
    real = critical._candidates

    def counting(Dn, a, *args):
        sizes.append((Dn.shape[1], len(a)))
        return real(Dn, a, *args)

    monkeypatch.setattr(critical, "_candidates", counting)
    return sizes


def _distance_rows(model, g, vs, tr, points):
    level = critical_value(model, g, vs, transition=tr).level
    targets = [g.node_near(p) for p in points]
    D0 = np.full((len(targets), g.num_nodes), INF)
    D0[np.arange(len(targets)), targets] = 0.0
    return level, D0


@pytest.mark.parametrize("family, potential, h, dimension", [
    ("eikonal", "abs", 0.05, 1),
    ("quadratic", "half_square", 0.25, 2),
    ("quadratic", "half_square", 0.1, 2),
])
def test_active_nodes_give_the_full_sweeps_bit_for_bit(family, potential, h, dimension):
    # a node none of whose reads changed would get its last candidate again,
    # so skipping it changes neither a value nor the sweep count
    if dimension == 1:
        g, vs = build_grid([[-4.0, 4.0]], h), build_velocity_set(1.5, 7)
    else:
        g, vs = _box_2d(h), build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model(family, potential, dimension=dimension)
    level, D0 = _distance_rows(model, g, vs, tr, ([0.0] * dimension, [1.0] * dimension,
                                                  [-2.0] + [0.0] * (dimension - 1)))
    for costs in (edge_costs(model, g, vs, level, tr),
                  reverse_edge_costs(model, g, vs, level, tr)):
        _assert_matches_full_sweeps(costs, tr, D0)


@pytest.mark.parametrize("nodes_per_slice", [None, 100])
def test_slices_of_a_sweep_give_the_full_sweeps_bit_for_bit(nodes_per_slice, monkeypatch):
    # 3 rows and 12 usable velocities: 288 bytes a node, so SLICE_BYTES
    # splits a sweep of all 1,681 nodes in two, and 100-node slices split
    # every sweep of the spreading fronts in two or more
    g, vs = _box_2d(0.1), build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square", dimension=2)
    level, D0 = _distance_rows(model, g, vs, tr, ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.0]))
    per_node = 8 * (vs.size - 1) * len(D0)
    assert g.num_nodes * per_node / 2 < SLICE_BYTES < g.num_nodes * per_node
    if nodes_per_slice:
        monkeypatch.setattr(critical, "SLICE_BYTES", nodes_per_slice * per_node)
    sizes = _counting_slices(monkeypatch)
    for costs in (edge_costs(model, g, vs, level, tr),
                  reverse_edge_costs(model, g, vs, level, tr)):
        sizes.clear()
        sweeps = _assert_matches_full_sweeps(costs, tr, D0)
        assert max(size for _, size in sizes) == critical.SLICE_BYTES // per_node
        if nodes_per_slice:
            assert len(sizes) >= 2 * sweeps


def test_batch_wider_than_a_chunk_gives_the_full_sweeps_bit_for_bit(monkeypatch):
    # 129 Aubry nodes: blocks of 64, 64 and 1 rows, each with its own active
    # set and slice length: 50 nodes for a 64-row block, 3,200 for 1 row
    g, vs = _box_2d(0.25), build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "double_well", dimension=2)
    data = build_aubry_data(model, g, vs, transition=tr)
    nodes = data.aubry_nodes
    assert len(nodes) == 129 > 2 * CHUNK
    D0 = np.full((len(nodes), g.num_nodes), INF)
    D0[np.arange(len(nodes)), nodes] = 0.0
    monkeypatch.setattr(critical, "SLICE_BYTES", 50 * 8 * (vs.size - 1) * CHUNK)
    sizes = _counting_slices(monkeypatch)
    for costs in (edge_costs(model, g, vs, data.level, tr),
                  reverse_edge_costs(model, g, vs, data.level, tr)):
        sizes.clear()
        _assert_matches_full_sweeps(costs, tr, D0)
        assert max(size for rows, size in sizes if rows == CHUNK) == 50
        assert max(size for rows, size in sizes if rows == 1) > 50


def test_relax_batch_memory_is_bounded_on_the_2d_aubry_batch(monkeypatch):
    # the 21 Aubry candidates of the 2D quadratic at h = 0.1 (13
    # velocities); gathering every active node at once, with the edge table
    # built from full sorted (n, M, 4) copies, peaked at 8.2 MB; slices
    # bring it to 3.0 MB
    g, vs = _box_2d(0.1), build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square", dimension=2)
    calls = []
    real = critical.relax_batch

    def recording(costs, transition, D0):
        calls.append((costs, D0))
        return real(costs, transition, D0)

    monkeypatch.setattr(critical, "relax_batch", recording)
    build_aubry_data(model, g, vs, transition=tr)
    costs, D0 = calls[-1]
    assert D0.shape == (21, g.num_nodes)
    tracemalloc.start()
    try:
        real(costs, tr, D0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6, peak


def test_unreachable_nodes_stay_at_inf():
    # an edge whose foot reads an unreachable node with positive weight is
    # unusable; a finite stand-in for +inf (w * INF) gave such edges finite
    # costs, and loops of them drove the junk down to O(1) values that also
    # undercut the distances of reachable nodes
    g = build_grid([[-1.0, 1.0], [-1.0, 1.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    n, M = g.num_nodes, vs.size
    rng = np.random.default_rng(5)
    costs = g.h * rng.uniform(0.0, 1.0, (n, M))
    costs[rng.uniform(size=(n, M)) < 0.6] = INF
    costs[rng.uniform(size=n) < 0.3] = INF
    costs[tr.clipped] = INF
    D0 = np.full((1, n), INF)
    D0[0, g.node_near([0.0, 0.0])] = 0.0
    reach = reachable_nodes(costs, tr, D0)
    assert 1 < np.count_nonzero(reach) < n / 2
    D, sweeps = relax_batch(costs, tr, D0)
    assert np.all(D[~reach] == INF)
    full, _ = relax_batch_extended(costs, tr, D0)
    np.testing.assert_array_equal(full < INF, reach)
    np.testing.assert_array_equal(D[reach], full[reach])
    assert sweeps < 2 * n + 64


@pytest.mark.parametrize("h", [0.25, 0.5])
def test_critical_data_batches_take_few_sweeps_in_2d(h, monkeypatch):
    # plain sweeps approach a self-weighted edge's value only geometrically:
    # 589 and 93 sweeps at h = 0.25, and the 2n+64 cap (226) at h = 0.5
    import weakkam.critical as critical
    sweeps = []
    real = critical.relax_batch

    def counting(costs, transition, D0):
        out = real(costs, transition, D0)
        sweeps.append(out[1])
        return out

    monkeypatch.setattr(critical, "relax_batch", counting)
    g, vs = _box_2d(h), build_velocity_set(1.5, 5, dimension=2)
    model = make_model("quadratic", "half_square", dimension=2)
    critical.build_critical_data(model, g, vs, transition=build_transition(g, vs))
    # the last two relaxations are the S_to and S_from batches
    assert len(sweeps) >= 3 and max(sweeps[-2:]) <= 64, sweeps


def test_negative_cycle_through_self_weighted_edges():
    # h*q = 0.75h puts weight 0.25 of each foot on its own node
    g = build_grid([[-1.0, 1.0], [-1.0, 1.0]], 0.5)
    vs = VelocitySet(vectors=np.array([[-0.75, 0.0], [0.0, 0.0], [0.75, 0.0]]), q_max=0.75)
    tr = build_transition(g, vs)
    i, j = g.node_near([0.0, 0.0]), g.node_near([0.5, 0.0])
    assert tr.w[i, 2][list(tr.idx[i, 2]).index(i)] == 0.25
    zero = np.zeros((1, g.num_nodes))
    costs = np.ones((g.num_nodes, vs.size))
    for relax in (relax_batch, relax_batch_jacobi):
        D, _ = relax(costs, tr, zero)   # no negative cycle: reaches a fixed point
        np.testing.assert_array_equal(D, zero)
    # D(i) <= -1 + D(i)/4 + 3D(j)/4 and D(j) <= -1 + D(j)/4 + 3D(i)/4 give
    # D(i) <= D(i) - 8/3
    costs[i, 2] = -1.0
    costs[j, 0] = -1.0
    for relax in (relax_batch, relax_batch_jacobi):
        with pytest.raises(NegativeCycle):
            relax(costs, tr, zero)


def test_distance_subsolution_at_critical_level(quad, grid_c, vs7, tr_c):
    # S(., y) obeys the discrete Fenchel inequality at the critical level
    y = grid_c.node_near([0.5])
    fld = intrinsic_distance(quad, grid_c, vs7, 0.0, y, transition=tr_c,
                             direction="to")
    lip = 4.0 * 1.5  # |sigma_x| <= |x| q_max on the box
    ok, worst = is_subsolution(fld, quad, grid_c, vs7, 0.0,
                               slack=2 * grid_c.h * lip, transition=tr_c)
    assert ok, worst


# ---------------------------------------------------------------------------
# Aubry set
# ---------------------------------------------------------------------------

def test_aubry_quadratic(quad_crit, grid_c):
    pts = grid_c.coords[quad_crit.aubry_nodes][:, 0]
    assert grid_c.node_near([0.0]) in set(int(z) for z in quad_crit.aubry_nodes)
    assert np.max(np.abs(pts)) <= 5 * grid_c.h + 1e-12
    i0 = grid_c.node_near([0.0])
    assert quad_crit.cycle_cost[i0] <= 2 * grid_c.h ** 2


def test_aubry_excludes_far_nodes(quad_crit, grid_c, vs7, tr_c):
    i1 = grid_c.node_near([1.0])
    assert i1 not in set(int(z) for z in quad_crit.aubry_nodes)
    # the stored value is at least the cheapest outgoing edge, which already
    # exceeds the detection threshold at x = 1
    min_edge = 0.5 * grid_c.h * 1.0 * 0.5
    assert quad_crit.cycle_cost[i1] >= min_edge
    assert quad_crit.cycle_cost[i1] > quad_crit.eps_aubry


def test_aubry_double_well_five_nodes():
    g = build_grid([[-2.0, 2.0]], 0.5)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    nodes = build_critical_data(model, g, vs, eps_aubry=0.6,
                                transition=build_transition(g, vs)).aubry_nodes
    captured = {g.coords[int(z)][0] for z in nodes}
    assert {-1.0, 1.0} <= captured
    assert 2.0 not in captured and -2.0 not in captured


def test_aubry_double_well_fine():
    g = build_grid([[-2.0, 2.0]], 0.05)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    nodes = build_critical_data(model, g, vs, transition=build_transition(g, vs)).aubry_nodes
    pts = g.coords[nodes][:, 0]
    assert np.min(np.abs(pts - 1.0)) == 0.0 and np.min(np.abs(pts + 1.0)) == 0.0
    assert np.all(np.minimum(np.abs(pts - 1.0), np.abs(pts + 1.0)) <= 5 * g.h)


def test_aubry_exact_flags(quad_crit):
    assert np.all(quad_crit.cycle_exact[quad_crit.aubry_nodes])


def test_negative_edge_costs_make_every_cycle_cost_exact(grid_tiny, vs3, tr_tiny):
    # some edges of this asymmetric table cost less than 0 at its level, so
    # a first edge above eps_aubry no longer rules a node out: every node's
    # cycle cost is computed, and each matches the least closed walk
    model = make_asymmetric_sampled(grid_tiny)
    data = build_aubry_data(model, grid_tiny, vs3, transition=tr_tiny)
    ec = edge_costs(model, grid_tiny, vs3, data.level, tr_tiny)
    assert ec.min() < -0.1
    assert data.cycle_exact.all()
    zero = vs3.zero_index()
    for y in range(grid_tiny.num_nodes):
        walks = [ec[y, m] + enumerate_paths_min_cost(
                     ec, tr_tiny, int(tr_tiny.idx[y, m, np.argmax(tr_tiny.w[y, m])]),
                     max_depth=grid_tiny.num_nodes)[y]
                 for m in range(vs3.size) if m != zero and ec[y, m] < INF / 2]
        assert data.cycle_cost[y] == pytest.approx(min(walks), abs=1e-12)


def _assert_fields_match_intrinsic_distance(data, model, grid, vset, transition):
    assert len(data.aubry_nodes) > 1
    assert data.S_to.shape == data.S_from.shape == (len(data.aubry_nodes), grid.num_nodes)
    for r, z in enumerate(data.aubry_nodes):
        for direction, rows in (("to", data.S_to), ("from", data.S_from)):
            fld = intrinsic_distance(model, grid, vset, data.level, int(z),
                                     transition=transition, direction=direction)
            np.testing.assert_array_equal(rows[r], fld)


def test_aubry_fields_are_exact_distances_1d(quad_crit, quad, grid_c, vs7, tr_c):
    _assert_fields_match_intrinsic_distance(quad_crit, quad, grid_c, vs7, tr_c)


def test_aubry_fields_are_exact_distances_2d():
    g = build_grid([[-1.0, 1.0], [-1.0, 1.0]], 0.25)
    vs = build_velocity_set(1.0, 3, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square", dimension=2)
    data = build_critical_data(model, g, vs, transition=tr)
    _assert_fields_match_intrinsic_distance(data, model, g, vs, tr)


def test_critical_data_relaxes_two_distance_batches(quad, grid_c, vs7, tr_c, monkeypatch):
    import weakkam.critical as critical
    calls = []
    real = critical.distances_to_targets

    def counting(costs, transition, targets):
        calls.append(targets)
        return real(costs, transition, targets)

    monkeypatch.setattr(critical, "distances_to_targets", counting)
    data = critical.build_critical_data(quad, grid_c, vs7, transition=tr_c)
    assert len(data.aubry_nodes) > 1
    assert len(calls) == 2


def test_aubry_data_relaxes_one_distance_batch(quad, grid_c, vs7, tr_c, quad_crit,
                                              monkeypatch):
    import weakkam.critical as critical
    calls = []
    real = critical.distances_to_targets

    def counting(costs, transition, targets):
        calls.append(targets)
        return real(costs, transition, targets)

    monkeypatch.setattr(critical, "distances_to_targets", counting)
    data = critical.build_aubry_data(quad, grid_c, vs7, transition=tr_c)
    assert len(calls) == 1
    assert data.S_from is None
    np.testing.assert_array_equal(data.aubry_nodes, quad_crit.aubry_nodes)
    np.testing.assert_array_equal(data.S_to, quad_crit.S_to)


def test_the_weak_kam_fields_refuse_data_without_s_from(quad, grid_c, vs7, tr_c):
    # the Aubry data (the study's `critical`) stops before S_from: each
    # reader of it names the builder that makes it
    from weakkam.limits import uniqueness_test
    data = build_aubry_data(quad, grid_c, vs7, transition=tr_c)
    zero = np.zeros(grid_c.num_nodes)
    for call in (lambda: weak_kam_solution(data, 0.0),
                 lambda: peierls_field_to(data, int(data.aubry_nodes[0])),
                 lambda: uniqueness_test(data, data.aubry_nodes, zero, zero)):
        with pytest.raises(WeakKAMError, match="build_critical_data"):
            call()


# ---------------------------------------------------------------------------
# Peierls barrier and weak KAM
# ---------------------------------------------------------------------------

def test_peierls_examples(quad_crit, grid_c):
    i0 = grid_c.node_near([0.0])
    i1 = grid_c.node_near([1.0])
    to_i1 = peierls_field_to(quad_crit, i1)
    assert to_i1[i0] == pytest.approx(0.5, abs=2 * grid_c.h)
    assert to_i1[i1] == pytest.approx(1.0, abs=4 * grid_c.h)
    for z in quad_crit.aubry_nodes:
        assert peierls_field_to(quad_crit, int(z))[int(z)] <= 2 * quad_crit.eps_aubry


def test_distance_below_peierls(quad_crit, grid_c, quad, vs7, tr_c):
    y = grid_c.node_near([1.5])
    to_y = intrinsic_distance(quad, grid_c, vs7, quad_crit.level, y,
                              transition=tr_c, direction="to")
    for x in (grid_c.node_near([-1.0]), grid_c.node_near([0.5])):
        assert to_y[x] <= peierls_field_to(quad_crit, y)[x] + 1e-9


def test_weak_kam_zero_trace(quad_crit, grid_c):
    fld = weak_kam_solution(quad_crit, 0.0)
    xg = grid_c.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(fld - 0.5 * xg ** 2)[mask]) <= 2 * grid_c.h
    assert np.min(fld) >= -1e-12  # bounded below by min trace


def test_weak_kam_additive_invariance(quad_crit):
    base = weak_kam_solution(quad_crit, 0.0)
    lifted = weak_kam_solution(quad_crit, 3.25)
    np.testing.assert_allclose(lifted, base + 3.25, atol=1e-12)


def test_row_expressions_match_loops_over_aubry_rows(quad_crit, grid_c):
    # the loops over Aubry nodes that the array expressions replaced
    S_to, S_from = quad_crit.S_to, quad_crit.S_from
    nodes = [int(z) for z in quad_crit.aubry_nodes]
    y = grid_c.node_near([1.0])
    ref = np.full(grid_c.num_nodes, np.inf)
    for r in range(len(nodes)):
        ref = np.minimum(ref, S_to[r] + S_from[r, y])
    np.testing.assert_array_equal(peierls_field_to(quad_crit, y), ref)
    # distinct values, all within the compatibility tolerance of each other
    trace = 5e-11 * np.arange(len(nodes))
    ref = np.full(grid_c.num_nodes, np.inf)
    for r in range(len(nodes)):
        ref = np.minimum(ref, trace[r] + S_from[r])
    np.testing.assert_array_equal(weak_kam_solution(quad_crit, trace), ref)
    # an incompatible trace names the first violating (z, y) in loop order
    trace[-1] = 10.0
    first = next((z, y) for r, z in enumerate(nodes) for s, y in enumerate(nodes)
                 if trace[s] - trace[r] > S_from[r, y] + 1e-9 * 11.0)
    with pytest.raises(IncompatibleTrace, match=rf"v0\({first[1]}\) - v0\({first[0]}\) "):
        weak_kam_solution(quad_crit, trace)


def test_weak_kam_incompatible_trace():
    g = build_grid([[-2.0, 2.0]], 0.05)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    data = build_critical_data(model, g, vs, transition=build_transition(g, vs))
    zplus = [int(z) for z in data.aubry_nodes if g.coords[int(z)][0] > 0]
    zminus = [int(z) for z in data.aubry_nodes if g.coords[int(z)][0] < 0]
    trace = np.zeros(len(data.aubry_nodes))
    row = [int(z) for z in data.aubry_nodes].index(zplus[0])
    diam = float(np.nanmax([v for v in data.S_from[row]]))
    trace[row] = 10.0 * diam
    with pytest.raises(IncompatibleTrace):
        weak_kam_solution(data, trace)


# ---------------------------------------------------------------------------
# subsolution utilities
# ---------------------------------------------------------------------------

def test_is_subsolution_exact_solution(quad, grid_c, vs7, tr_c):
    xg = grid_c.coords[:, 0]
    ok, worst = is_subsolution(0.5 * xg ** 2, quad, grid_c,
                               vs7, 0.0, slack=grid_c.h ** 2 * 2.2, transition=tr_c)
    assert ok, worst


def test_is_subsolution_rejects_steep_field(quad, grid_c, vs7, tr_c):
    xg = grid_c.coords[:, 0]
    ok, worst = is_subsolution(2.0 * xg ** 2, quad, grid_c,
                               vs7, 0.0, slack=0.01, transition=tr_c)
    assert not ok
    assert worst > 0.1


def test_is_subsolution_constant_at_upper_level(quad, grid_c, vs7, tr_c):
    from weakkam.models import h_at_zero
    a = float(np.max(h_at_zero(quad, grid_c.coords)))
    ok, worst = is_subsolution(np.zeros(grid_c.num_nodes),
                               quad, grid_c, vs7, a, slack=1e-12, transition=tr_c)
    assert ok, worst
