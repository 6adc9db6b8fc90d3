import dataclasses

import numpy as np
import pytest

from weakkam import limits, measures
from weakkam.critical import INF, build_critical_data, peierls_field_to, weak_kam_solution
from weakkam.errors import MaxIterExceeded, NoMeasures, SingularBasis
from weakkam.grids import build_grid, build_transition, build_velocity_set, interpolate
from weakkam.limits import (
    dirac_marginals,
    enric1_values,
    mather_set,
    maximal_trace,
    selected_solution_deflim,
    uniqueness_test,
    vanishing_discount_study,
)
from weakkam.measures import build_ergodic_lp, lp_solve, mather_face
from weakkam.models import lagrangian_table, make_model, superlinearize

from helpers import mather_set_loop, maximal_trace_loop


def marginals(*measures):
    """The node marginals of (n, M) measures, one row each."""
    return np.array([mu.sum(axis=1) for mu in measures])


def face_of(model, grid, vs, tr):
    problem = build_ergodic_lp(model, grid, vs, transition=tr)
    ergodic = lp_solve(problem)
    return ergodic, mather_face(problem, ergodic)


@pytest.fixture(scope="module")
def quad_setup(quad, grid_c, vs7, tr_c):
    crit = build_critical_data(quad, grid_c, vs7, transition=tr_c)
    ergodic, face = face_of(quad, grid_c, vs7, tr_c)
    return crit, ergodic, face


# ---------------------------------------------------------------------------
# the two estimators
# ---------------------------------------------------------------------------

def test_enric1_barrier_values(quad_setup, grid_c):
    crit, ergodic, face = quad_setup
    v1 = float(enric1_values(crit, face.nodes, [grid_c.node_near([1.0])])[0])
    assert v1 == pytest.approx(0.5, abs=3 * grid_c.h)
    vz = float(enric1_values(crit, face.nodes, [int(crit.aubry_nodes[0])])[0])
    assert abs(vz) <= 2 * crit.eps_aubry + 1e-6


def test_enric1_eikonal(grid_c, vs7):
    eik = superlinearize(make_model("eikonal", "abs"), grid_c)
    tr = build_transition(grid_c, vs7)
    crit = build_critical_data(eik, grid_c, vs7, transition=tr)
    _, face = face_of(eik, grid_c, vs7, tr)
    v2 = float(enric1_values(crit, face.nodes, [grid_c.node_near([2.0])])[0])
    assert v2 == pytest.approx(2.0, abs=0.12)


def test_deflim_field_and_trace(quad_setup, grid_c):
    crit, ergodic, face = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    xg = grid_c.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(w - 0.5 * xg ** 2)[mask]) <= 2 * grid_c.h
    t = maximal_trace(crit, marginals(ergodic.measure))
    origin = list(crit.aubry_nodes).index(grid_c.node_near([0.0]))
    assert t[origin] == pytest.approx(0.0, abs=1e-12)


def test_deflim_requires_measures(quad_setup):
    crit, _, _ = quad_setup
    with pytest.raises(NoMeasures):
        selected_solution_deflim(crit, [])


def test_maximal_trace_raises_when_its_sweeps_run_out(quad_setup, monkeypatch):
    # the ascent takes two sweeps here: one raises the trace, the next
    # finds no change; a trace cut off while still rising need not be maximal
    crit, ergodic, _ = quad_setup
    monkeypatch.setattr(limits, "TRACE_SWEEPS", 1)
    with pytest.raises(MaxIterExceeded, match="still rising after 1 sweeps") as info:
        maximal_trace(crit, marginals(ergodic.measure))
    assert info.value.iterations == 1 and info.value.residual > 0


@pytest.fixture(scope="module")
def double_well_ergodic():
    # only the ergodic measure: the ascent creeps up the unmeasured well by
    # about its cycle cost per sweep, and needs more than TRACE_SWEEPS
    g = build_grid([[-2.0, 2.0]], 0.05)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    tr = build_transition(g, vs)
    crit = build_critical_data(model, g, vs, transition=tr)
    return crit, marginals(lp_solve(build_ergodic_lp(model, g, vs, transition=tr)).measure)


def test_maximal_trace_reads_the_unreachable_sentinel_as_no_bound(double_well_ergodic,
                                                                   monkeypatch):
    # node 0 (x = -2) is not an Aubry node and carries no mass, so a first
    # Aubry node that cannot reach it bounds nothing; read as a distance,
    # INF = 1e30 set the stop tolerance and the ascent ended after one sweep
    crit, ergodic = double_well_ergodic
    assert 0 not in crit.aubry_nodes and not ergodic[:, 0].any()
    cut = dataclasses.replace(crit, S_from=crit.S_from.copy())
    cut.S_from[0, 0] = INF
    for data in (crit, cut):
        with pytest.raises(MaxIterExceeded):
            maximal_trace(data, ergodic)
    monkeypatch.setattr(limits, "TRACE_SWEEPS", 2000)
    full = maximal_trace(crit, ergodic)
    assert np.max(full) > 1.0
    np.testing.assert_array_equal(maximal_trace(cut, ergodic), full)


def test_estimators_agree(quad_setup, grid_c):
    crit, ergodic, face = quad_setup
    w = selected_solution_deflim(crit, dirac_marginals(face.nodes, grid_c.num_nodes))
    nodes = [grid_c.node_near([x]) for x in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    e1 = enric1_values(crit, face.nodes, nodes)
    assert float(np.max(np.abs(e1 - w[nodes]))) <= 4 * grid_c.h


def test_deflim_constraint_validates_post_hoc(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    pairing = float(np.sum(ergodic.measure * w[:, None]))
    assert pairing <= 4 * crit.grid.h


def test_w_reconstructs_through_min_formula(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    rec = weak_kam_solution(crit, w[crit.aubry_nodes])
    assert float(np.max(np.abs(rec - w))) <= 1e-9


# ---------------------------------------------------------------------------
# Mather set
# ---------------------------------------------------------------------------

def test_mather_set_quadratic_single_cluster(quad_setup, grid_c, quad_crit):
    # the face is the rest column at the origin, dilated by one cell
    crit, ergodic, face = quad_setup
    origin = grid_c.node_near([0.0])
    np.testing.assert_array_equal(face.nodes, [origin])
    nodes = mather_set(face.nodes, grid_c)
    np.testing.assert_array_equal(nodes, [origin - 1, origin, origin + 1])
    aubry_pts = grid_c.coords[quad_crit.aubry_nodes][:, 0]
    for p in grid_c.coords[nodes][:, 0]:
        assert np.min(np.abs(aubry_pts - p)) <= 3 * grid_c.h + 1e-12


def test_mather_set_double_well():
    # both wells hold a rest column of the face
    g = build_grid([[-2.0, 2.0]], 0.05)
    vs = build_velocity_set(1.0, 3)
    tr = build_transition(g, vs)
    _, face = face_of(make_model("quadratic", "double_well"), g, vs, tr)
    np.testing.assert_array_equal(face.nodes, [g.node_near([-1.0]), g.node_near([1.0])])
    pts = g.coords[mather_set(face.nodes, g)][:, 0]
    assert np.min(np.abs(pts - 1.0)) <= g.h + 1e-12
    assert np.min(np.abs(pts + 1.0)) <= g.h + 1e-12


def test_mather_set_zero_objectives(quad_setup, grid_c):
    # no objective is sampled: the face alone covers the support of the
    # ergodic optimum, a Mather measure
    crit, ergodic, face = quad_setup
    nodes = mather_set(face.nodes, grid_c)
    support = np.flatnonzero(ergodic.measure.reshape(-1))
    assert set(support.tolist()) <= set(face.columns.tolist())
    assert set((support // ergodic.measure.shape[1]).tolist()) <= set(nodes.tolist())
    assert len(nodes) <= 3 * len(face.nodes)


# ---------------------------------------------------------------------------
# the array forms against the loops over per-node dicts they replaced
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["double_well_1d", "double_well_2d"])
def loop_case(request):
    # configs/quadratic.json with the double well (65 Aubry nodes), and the
    # 2D double well, whose Aubry set is the unit circle (112 nodes)
    if request.param == "double_well_1d":
        g = build_grid([[-4.0, 4.0]], 0.05)
        vs = build_velocity_set(2.0, 17)
    else:
        g = build_grid([[-1.5, 1.5], [-1.5, 1.5]], 0.25)
        vs = build_velocity_set(1.5, 5, dimension=2)
    model = make_model("quadratic", "double_well", dimension=g.dimension)
    tr = build_transition(g, vs)
    crit = build_critical_data(model, g, vs, transition=tr)
    ergodic, face = face_of(model, g, vs, tr)
    # the LP measures sit on a node or two; add scattered masses, whose
    # pairings add many terms, among them three nodes of mass 6e-5 on
    # every velocity
    rng = np.random.default_rng(0)
    mass = np.zeros((g.num_nodes, vs.size))
    mass.reshape(-1)[rng.choice(mass.size, 40, replace=False)] = rng.uniform(0.0, 2e-4, 40)
    mass[rng.choice(g.num_nodes, 3), :] = 6e-5
    marg = np.vstack([marginals(ergodic.measure, mass),
                      dirac_marginals(face.nodes, g.num_nodes)])
    # the face nodes, the box corners and a scatter: the dilation is
    # clipped at the box
    nodes = np.concatenate([face.nodes, [0, g.num_nodes - 1],
                            rng.choice(g.num_nodes, 5, replace=False)])
    return g, crit, marg, nodes


def test_maximal_trace_matches_the_dict_loop(loop_case):
    g, crit, marg, _ = loop_case
    assert len(crit.aubry_nodes) > 50
    ref = maximal_trace_loop(crit, marg)
    np.testing.assert_array_equal(maximal_trace(crit, marg),
                                  [ref[int(z)] for z in crit.aubry_nodes])


def test_mather_set_matches_the_per_node_loop(loop_case):
    g, crit, _, nodes = loop_case
    got = mather_set(nodes, g)
    assert len(got) > len(nodes)
    np.testing.assert_array_equal(got, mather_set_loop(nodes, g))


# ---------------------------------------------------------------------------
# uniqueness test
# ---------------------------------------------------------------------------

def test_uniqueness_equal_fields_pass(quad_setup, grid_c):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    mnodes = crit.aubry_nodes
    verdict = uniqueness_test(crit, mnodes, w, w)
    assert verdict.status == "PASS"
    assert verdict.worst_gap <= 1e-12


def test_uniqueness_vacuous_hypothesis(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    v = w + 1.0
    verdict = uniqueness_test(crit, crit.aubry_nodes, v, w)
    assert verdict.status == "NotApplicable"


def test_uniqueness_ordered_traces(quad_setup):
    crit, ergodic, _ = quad_setup
    w = weak_kam_solution(crit, 0.0)
    v = weak_kam_solution(crit, -0.2)
    verdict = uniqueness_test(crit, crit.aubry_nodes, v, w)
    assert verdict.status == "PASS"
    assert verdict.worst_gap <= -0.2 + 1e-9


def test_uniqueness_rejects_non_weak_kam_field(quad_setup):
    crit, ergodic, _ = quad_setup
    bad = 2.0 * crit.grid.coords[:, 0] ** 2
    w = weak_kam_solution(crit, 0.0)
    with pytest.raises(ValueError):
        uniqueness_test(crit, crit.aubry_nodes, bad, w)


# ---------------------------------------------------------------------------
# the study driver
# ---------------------------------------------------------------------------

def test_study_single_lambda_row(quad, grid_c, vs7, tr_c):
    rep = vanishing_discount_study(quad, grid_c, vs7, [0.5], probes=[(0.0,)],
                                   transition=tr_c)
    assert len(rep.lambda_schedule) == 1
    assert len(rep.sup_gaps) == 1 and np.isfinite(rep.sup_gaps[0])
    assert not rep.failures


def test_study_requires_decreasing_schedule(quad, grid_c, vs7, tr_c):
    with pytest.raises(ValueError):
        vanishing_discount_study(quad, grid_c, vs7, [0.25, 0.5], transition=tr_c)


def test_study_aggregates_failures(quad, grid_c, vs7, tr_c, monkeypatch):
    def failing(*args, **kwargs):
        raise MaxIterExceeded("policy still changing after 3 steps")

    monkeypatch.setattr(limits, "solve_discounted", failing)
    rep = vanishing_discount_study(quad, grid_c, vs7, [0.5, 0.25], probes=[(0.0,)],
                                   transition=tr_c)
    assert [f["stage"] for f in rep.failures] == ["solve", "solve"]
    assert all(np.isnan(g) for g in rep.sup_gaps)


def test_study_starts_each_solve_from_the_last_policy(monkeypatch):
    # the first solve starts from the Aubry tree; lambda 0.25 fails, so
    # 0.125 starts cold; 0.5 passes its policy to 0.25
    from weakkam.errors import WeakKAMError
    starts = []
    real = limits.solve_discounted

    def recording(*args, policy0=None, **kwargs):
        starts.append(None if policy0 is None else policy0.copy())
        if args[3] == 0.25:
            raise WeakKAMError("failed solve")
        sol = real(*args, policy0=policy0, **kwargs)
        policies.append(sol.policy)
        return sol

    policies = []
    monkeypatch.setattr(limits, "solve_discounted", recording)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square")
    rep = vanishing_discount_study(model, g, vs, [0.5, 0.25, 0.125, 0.0625], transition=tr)
    assert [f["stage"] for f in rep.failures] == ["solve"]
    tree = measures.aubry_tree(model, g, vs, tr, build_critical_data(model, g, vs,
                                                                     transition=tr))
    np.testing.assert_array_equal(starts[0], tree)
    assert starts[2] is None
    np.testing.assert_array_equal(starts[1], policies[0])
    np.testing.assert_array_equal(starts[3], policies[1])


def test_study_transport_decreases(grid_c, vs7, tr_c):
    eik = superlinearize(make_model("eikonal", "abs"), grid_c)
    rep = vanishing_discount_study(eik, grid_c, vs7, [0.5, 0.25, 0.125],
                                   probes=[(1.0,)], transition=tr_c)
    w1 = [r.transport_to_ergodic for r in rep.rows if r.probe is not None]
    assert all(b <= a + 2 * grid_c.h for a, b in zip(w1, w1[1:]))
    assert all(b < a for a, b in zip(rep.sup_gaps, rep.sup_gaps[1:]))


def test_two_dimensional_smoke():
    # dimension 2 is accepted at coarse resolution: the pipeline must run and
    # keep its exact identities (critical cross-check, duality, closedness)
    from weakkam.discounted import solve_discounted
    from weakkam.measures import build_discounted_lp, closedness_residual
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    model = make_model("quadratic", "half_square", dimension=2)
    crit = build_critical_data(model, g, vs, transition=tr)
    assert abs(crit.c) <= 1e-3
    assert g.node_near([0.0, 0.0]) in set(int(z) for z in crit.aubry_nodes)
    ergodic = lp_solve(build_ergodic_lp(model, g, vs, transition=tr))
    assert abs(ergodic.objective) <= 1e-9
    assert closedness_residual(ergodic.measure, tr) <= 1e-8
    sol = solve_discounted(model, g, vs, 0.5, tol=1e-6, transition=tr)
    lp = lp_solve(build_discounted_lp(model, g, vs, 0.5, [1.0, 0.0], transition=tr))
    lam_u = 0.5 * float(sol.u[g.node_near([1.0, 0.0])])
    assert abs(lp.objective - lam_u) <= 1e-4


def test_w_is_subsolution_at_critical_level(quad_setup, grid_c, quad, vs7, tr_c):
    from weakkam.critical import is_subsolution
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))
    lip = 4.0 * 1.5
    ok, worst = is_subsolution(w, quad, grid_c, vs7, crit.level,
                               slack=2 * grid_c.h * lip, transition=tr_c)
    assert ok, worst


def test_study_builds_the_ergodic_lp_once(monkeypatch):
    calls = []
    build = measures.build_ergodic_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(measures, "build_ergodic_lp", counting)
    monkeypatch.setattr(limits, "build_ergodic_lp", counting)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5], transition=build_transition(g, vs))
    assert not rep.failures
    assert len(calls) == 1


def _recording_lp_solves(monkeypatch):
    log = []
    lp_solve_ = limits.lp_solve

    def solving(problem):
        res = lp_solve_(problem)
        log.append((problem.kind, res.iterations))
        return res

    monkeypatch.setattr(limits, "lp_solve", solving)
    return log


def test_no_lp_of_the_study_takes_a_policy_step(monkeypatch):
    # the ergodic LP starts from the Aubry tree, the discounted LPs from
    # the policy Howard's iteration ends on, and each start is optimal; the
    # Mather face is read off the ergodic duals
    log = _recording_lp_solves(monkeypatch)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5], transition=build_transition(g, vs))
    assert not rep.failures
    assert log == [("ergodic", 0), ("discounted", 0)]


def test_a_tree_with_unreached_nodes_is_repaired_to_reach_its_root():
    # On the 2D double well at h = 0.25 some node does not reach the tree's
    # root under its greedy moves; those nodes take their least move into
    # the nodes that do, so the root is the tree's only closed class, and
    # the study's ergodic LP reaches the optimum and face of a solve from
    # the rest policy
    model = make_model("quadratic", "double_well", dimension=2)
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    tr = build_transition(g, vs)
    crit = build_critical_data(model, g, vs, transition=tr)
    tree = measures.aubry_tree(model, g, vs, tr, crit)
    zero = vs.zero_index()
    root, = np.flatnonzero(tree == zero)
    assert measures._closed_classes(tr, tree) == [[root]]
    # the greedy moves alone leave some node outside the root's basin
    stage = g.h * lagrangian_table(model, g.coords, vs.vectors)
    rank = int(np.flatnonzero(crit.aubry_nodes == root)[0])
    stage = stage + interpolate(tr, crit.S_to[rank])
    stage[:, zero] = np.inf
    greedy = np.argmin(stage, axis=1)
    greedy[root] = zero
    assert len(measures._closed_classes(tr, greedy)) > 1
    rep = vanishing_discount_study(model, g, vs, [], probes=[(0.0, 0.0)], transition=tr)
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    ergodic = lp_solve(problem)
    assert abs(rep.ergodic_objective - ergodic.objective) <= 1e-12
    np.testing.assert_array_equal(rep.mather_nodes,
                                  mather_set(mather_face(problem, ergodic).nodes, g))


def test_the_acceptance_study_at_h_002_inverts_no_basis(monkeypatch):
    # the acceptance model at h = 0.02 (401 rows in the ergodic LP): every
    # start is optimal and certified from its policy's block factor, and no
    # LP forms or inverts an m x m array
    def no_inverse(a):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    log = _recording_lp_solves(monkeypatch)
    g = build_grid([[-4.0, 4.0]], 0.02)
    vs = build_velocity_set(1.5, 7)
    rep = vanishing_discount_study(superlinearize(make_model("eikonal", "abs"), g), g, vs,
                                   [0.5, 0.25, 0.125], probes=((0.0,), (1.0,)),
                                   transition=build_transition(g, vs))
    assert not rep.failures
    assert log == [("ergodic", 0)] + [("discounted", 0)] * 6


def test_barrier_form_is_at_most_the_ergodic_pairing(quad_setup, grid_c, vs7):
    # the ergodic optimum is one of the Mather measures the barrier form
    # minimizes over; on a one-node face it is the face's only measure
    crit, ergodic, face = quad_setup
    nodes = [grid_c.node_near([x]) for x in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    values = enric1_values(crit, face.nodes, nodes)
    pairing = [float(np.sum(ergodic.measure * peierls_field_to(crit, x)[:, None]))
               for x in nodes]
    assert np.all(values <= np.array(pairing) + 1e-12)
    assert len(face.nodes) == 1
    np.testing.assert_allclose(values, pairing, rtol=0.0, atol=1e-12)


def test_study_pivot_budget(monkeypatch):
    # The acceptance model at h = 0.1: the Aubry tree is the ergodic LP's
    # optimal policy, and Howard's policy every discounted LP's
    log = _recording_lp_solves(monkeypatch)
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    rep = vanishing_discount_study(superlinearize(make_model("eikonal", "abs"), g), g, vs,
                                   [0.5, 0.25], probes=((0.0,), (1.0,)),
                                   transition=build_transition(g, vs))
    assert not rep.failures
    # the ergodic LP and 4 discounted LPs
    assert [kind for kind, _ in log] == ["ergodic"] + ["discounted"] * 4
    assert all(steps == 0 for _, steps in log), log


def test_study_propagates_programming_errors_from_the_solve(monkeypatch):
    # only solver failures (WeakKAMError) are recorded; a TypeError is a bug
    def broken(*args, **kwargs):
        raise TypeError("broken solve")

    monkeypatch.setattr(limits, "solve_discounted", broken)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    with pytest.raises(TypeError, match="broken solve"):
        vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                 [0.5], transition=build_transition(g, vs))


def test_study_propagates_programming_errors_from_the_lp(monkeypatch):
    # the discounted LP stage records solver failures only; a TypeError is a bug
    def broken(*args, **kwargs):
        raise TypeError("broken lp")

    monkeypatch.setattr(limits, "build_discounted_lp", broken)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    with pytest.raises(TypeError, match="broken lp"):
        vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                 [0.5], transition=build_transition(g, vs))


def test_study_records_lp_solver_failures(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularBasis("basis matrix is singular")

    monkeypatch.setattr(limits, "build_discounted_lp", singular)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5], transition=build_transition(g, vs))
    assert [f["stage"] for f in rep.failures] == ["lp@(0.0,)"]
    assert "SingularBasis" in rep.failures[0]["error"]


def test_uniqueness_test_propagates_programming_errors(quad_setup, monkeypatch):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, marginals(ergodic.measure))

    def broken(*args, **kwargs):
        raise TypeError("broken reconstruction")

    monkeypatch.setattr(limits, "weak_kam_solution", broken)
    with pytest.raises(TypeError, match="broken reconstruction"):
        uniqueness_test(crit, crit.aubry_nodes, w, w)
