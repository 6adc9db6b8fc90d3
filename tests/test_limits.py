import dataclasses

import numpy as np
import pytest

from weakkam import limits, measures, simplex
from weakkam.critical import INF, build_critical_data, peierls_field_to, weak_kam_solution
from weakkam.errors import MaxIterExceeded, NoMeasures, SingularBasis
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.limits import (
    enric1_values,
    mather_set,
    maximal_trace,
    sample_vertex_measures,
    selected_solution_deflim,
    uniqueness_test,
    vanishing_discount_study,
)
from weakkam.measures import (
    build_ergodic_lp,
    build_mather_polytope,
    lp_solve,
)
from weakkam.models import make_model, superlinearize

from helpers import mather_set_loop, maximal_trace_loop


@pytest.fixture(scope="module")
def quad_setup(quad, grid_c, vs7, tr_c):
    crit = build_critical_data(quad, grid_c, vs7, transition=tr_c)
    problem = build_ergodic_lp(quad, grid_c, vs7, transition=tr_c)
    ergodic = lp_solve(problem)
    poly = build_mather_polytope(problem, ergodic)
    return crit, ergodic, poly


# ---------------------------------------------------------------------------
# the two estimators
# ---------------------------------------------------------------------------

def test_enric1_barrier_values(quad_setup, grid_c):
    crit, ergodic, poly = quad_setup
    v1 = float(enric1_values(crit, poly, [grid_c.node_near([1.0])])[0])
    assert v1 == pytest.approx(0.5, abs=3 * grid_c.h)
    vz = float(enric1_values(crit, poly, [int(crit.aubry_nodes[0])])[0])
    assert abs(vz) <= 2 * crit.eps_aubry + 1e-6


def test_enric1_eikonal(grid_c, vs7):
    eik = superlinearize(make_model("eikonal", "abs"), grid_c)
    tr = build_transition(grid_c, vs7)
    crit = build_critical_data(eik, grid_c, vs7, transition=tr)
    problem = build_ergodic_lp(eik, grid_c, vs7, transition=tr)
    poly = build_mather_polytope(problem, lp_solve(problem))
    v2 = float(enric1_values(crit, poly, [grid_c.node_near([2.0])])[0])
    assert v2 == pytest.approx(2.0, abs=0.12)


def test_deflim_field_and_trace(quad_setup, grid_c):
    crit, ergodic, poly = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
    xg = grid_c.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(w - 0.5 * xg ** 2)[mask]) <= 2 * grid_c.h
    t = maximal_trace(crit, [ergodic.measure])
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
        maximal_trace(crit, [ergodic.measure])
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
    return crit, lp_solve(build_ergodic_lp(model, g, vs, transition=tr)).measure


def test_maximal_trace_reads_the_unreachable_sentinel_as_no_bound(double_well_ergodic,
                                                                   monkeypatch):
    # node 0 (x = -2) is not an Aubry node and carries no mass, so a first
    # Aubry node that cannot reach it bounds nothing; read as a distance,
    # INF = 1e30 set the stop tolerance and the ascent ended after one sweep
    crit, ergodic = double_well_ergodic
    assert 0 not in crit.aubry_nodes and not ergodic[0].any()
    cut = dataclasses.replace(crit, S_from=crit.S_from.copy())
    cut.S_from[0, 0] = INF
    for data in (crit, cut):
        with pytest.raises(MaxIterExceeded):
            maximal_trace(data, [ergodic])
    monkeypatch.setattr(limits, "TRACE_SWEEPS", 2000)
    full = maximal_trace(crit, [ergodic])
    assert np.max(full) > 1.0
    np.testing.assert_array_equal(maximal_trace(cut, [ergodic]), full)


def test_estimators_agree(quad_setup, grid_c):
    crit, ergodic, poly = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
    nodes = [grid_c.node_near([x]) for x in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    e1 = enric1_values(crit, poly, nodes)
    assert float(np.max(np.abs(e1 - w[nodes]))) <= 4 * grid_c.h


def test_deflim_constraint_validates_post_hoc(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
    pairing = float(np.sum(ergodic.measure * w[:, None]))
    assert pairing <= 4 * crit.grid.h


def test_w_reconstructs_through_min_formula(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
    rec = weak_kam_solution(crit, w[crit.aubry_nodes])
    assert float(np.max(np.abs(rec - w))) <= 1e-9


# ---------------------------------------------------------------------------
# Mather set
# ---------------------------------------------------------------------------

def test_mather_set_quadratic_single_cluster(quad_setup, grid_c, quad_crit):
    crit, ergodic, poly = quad_setup
    aubry_pts = grid_c.coords[quad_crit.aubry_nodes][:, 0]
    for seed in (0, 1, 7):
        nodes = mather_set([ergodic.measure] + sample_vertex_measures(poly, 4, seed),
                           grid_c)
        pts = grid_c.coords[nodes][:, 0]
        assert grid_c.node_near([0.0]) in set(int(z) for z in nodes)
        # support within the 2h Aubry dilation, plus the one-cell reporting
        # dilation of the set itself
        for p in pts:
            assert np.min(np.abs(aubry_pts - p)) <= 3 * grid_c.h + 1e-12


def test_mather_set_double_well():
    g = build_grid([[-2.0, 2.0]], 0.05)
    vs = build_velocity_set(1.0, 3)
    model = make_model("quadratic", "double_well")
    tr = build_transition(g, vs)
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    ergodic = lp_solve(problem)
    poly = build_mather_polytope(problem, ergodic)
    nodes = mather_set([ergodic.measure] + sample_vertex_measures(poly, 8, 0), g)
    pts = g.coords[nodes][:, 0]
    assert np.min(np.abs(pts - 1.0)) <= g.h + 1e-12
    assert np.min(np.abs(pts + 1.0)) <= g.h + 1e-12


def test_mather_set_zero_objectives(quad_setup, grid_c):
    crit, ergodic, poly = quad_setup
    nodes = mather_set([ergodic.measure], grid_c)
    support = set(np.flatnonzero(ergodic.measure.any(axis=1)).tolist())
    assert support <= set(int(z) for z in nodes)
    assert len(nodes) <= 3 * len(support)


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
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    ergodic = lp_solve(problem)
    poly = build_mather_polytope(problem, ergodic)
    # the LP measures sit on a node or two; add scattered masses, whose
    # pairings add many terms, on three nodes with every velocity below the
    # per-entry support threshold and their node marginal above it
    rng = np.random.default_rng(0)
    mass = np.zeros((g.num_nodes, vs.size))
    mass.reshape(-1)[rng.choice(mass.size, 40, replace=False)] = rng.uniform(0.0, 2e-4, 40)
    mass[rng.choice(g.num_nodes, 3), :] = 6e-5
    return g, crit, [ergodic.measure, mass] + sample_vertex_measures(poly, 4, 0)


def test_maximal_trace_matches_the_dict_loop(loop_case):
    g, crit, measures = loop_case
    assert len(crit.aubry_nodes) > 50
    ref = maximal_trace_loop(crit, measures)
    np.testing.assert_array_equal(maximal_trace(crit, measures),
                                  [ref[int(z)] for z in crit.aubry_nodes])


def test_mather_set_matches_the_per_node_loop(loop_case):
    g, crit, measures = loop_case
    nodes = mather_set(measures, g)
    assert len(nodes) > 0
    np.testing.assert_array_equal(nodes, mather_set_loop(measures, g))


# ---------------------------------------------------------------------------
# uniqueness test
# ---------------------------------------------------------------------------

def test_uniqueness_equal_fields_pass(quad_setup, grid_c):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
    mnodes = crit.aubry_nodes
    verdict = uniqueness_test(crit, mnodes, w, w)
    assert verdict.status == "PASS"
    assert verdict.worst_gap <= 1e-12


def test_uniqueness_vacuous_hypothesis(quad_setup):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])
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
                                   n_objectives=0, transition=tr_c)
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
                                   n_objectives=0, transition=tr_c)
    assert [f["stage"] for f in rep.failures] == ["solve", "solve"]
    assert all(np.isnan(g) for g in rep.sup_gaps)


def test_study_starts_each_solve_from_the_last_policy(monkeypatch):
    # lambda 0.25 fails, so 0.125 starts cold; 0.5 passes its policy to 0.25
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
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5, 0.25, 0.125, 0.0625], n_objectives=0,
                                   transition=build_transition(g, vs))
    assert [f["stage"] for f in rep.failures] == ["solve"]
    assert starts[0] is None and starts[2] is None
    np.testing.assert_array_equal(starts[1], policies[0])
    np.testing.assert_array_equal(starts[3], policies[1])


def test_study_transport_decreases(grid_c, vs7, tr_c):
    eik = superlinearize(make_model("eikonal", "abs"), grid_c)
    rep = vanishing_discount_study(eik, grid_c, vs7, [0.5, 0.25, 0.125],
                                   probes=[(1.0,)], n_objectives=0, transition=tr_c)
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
    w = selected_solution_deflim(crit, [ergodic.measure])
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
                                   [0.5], n_objectives=2, transition=build_transition(g, vs))
    assert not rep.failures
    assert len(calls) == 1


def test_study_runs_phase_1_only_for_the_ergodic_lp(monkeypatch):
    # the Mather-face LPs start from the ergodic optimal basis and the
    # discounted LPs from the basis of the policy Howard's iteration ends on
    calls = []
    phase1 = simplex._phase1

    def counting(*args, **kwargs):
        calls.append(1)
        return phase1(*args, **kwargs)

    monkeypatch.setattr(simplex, "_phase1", counting)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5], n_objectives=2, transition=build_transition(g, vs))
    assert not rep.failures
    assert len(calls) == 1


def _counting_inversions(monkeypatch):
    calls = []
    inverse = simplex._inverse

    def counting(*args):
        calls.append(1)
        return inverse(*args)

    monkeypatch.setattr(simplex, "_inverse", counting)
    return calls


def test_study_reuses_the_inverses_it_already_formed(monkeypatch):
    # The ergodic LP starts from phase 1's identity and returns its folded
    # product form; the Mather crash inverse is bordered from it and serves
    # both vertex samples and the first barrier query, and each query hands
    # its inverse to the next.  The discounted LPs' policy starts are
    # certified by two solves each.  Inverting every start afresh took 17
    # inversions, and re-inverting each final basis 8.
    calls = _counting_inversions(monkeypatch)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5, 0.25], probes=((0.0,), (1.0,)), n_objectives=2,
                                   transition=build_transition(g, vs))
    assert not rep.failures
    assert len(calls) == 0


def test_the_acceptance_study_at_h_002_inverts_no_basis(monkeypatch):
    # the acceptance model at h = 0.02 (402 rows per Mather-face LP), with
    # hundreds of pivots in the ergodic LP and the first barrier query: no
    # residual check finds the product form drifted.  Re-inverting each
    # final basis, and every start without an inverse, took 16 inversions.
    calls = _counting_inversions(monkeypatch)
    g = build_grid([[-4.0, 4.0]], 0.02)
    vs = build_velocity_set(1.5, 7)
    rep = vanishing_discount_study(superlinearize(make_model("eikonal", "abs"), g), g, vs,
                                   [0.5, 0.25, 0.125], probes=((0.0,), (1.0,)),
                                   n_objectives=4, seed=1,
                                   transition=build_transition(g, vs))
    assert not rep.failures
    assert len(calls) == 0


@pytest.mark.parametrize("shift", [0.0, -0.5], ids=["budget>0", "budget<0"])
def test_a_solve_given_the_start_inverse_matches_one_without(grid_c, vs7, tr_c, shift):
    # given the inverse that a start without one forms, a solve is the same
    # bit for bit; given the folded product form of an earlier solve (the
    # bordered crash inverse, a returned inverse) it makes the same pivots
    # to the same basis.  A shift of -0.5 makes the budget row's right-hand
    # side negative, a row the solver negates.
    problem = build_ergodic_lp(make_model("quadratic", "half_square",
                                          normalization_shift=shift),
                               grid_c, vs7, transition=tr_c)
    poly = build_mather_polytope(problem, lp_solve(problem))
    assert (poly.b[-1] < 0) == (shift < 0)
    crash, crash_inverse = poly.start_basis, poly.start_inverse
    # two random objectives whose solves pivot
    rng = np.random.default_rng(2)
    c1, c2 = (np.append(rng.uniform(0.0, 1.0, len(poly.c) - 1), 0.0) for _ in range(2))
    first = simplex.solve_lp(c1, poly.A, poly.b, basis0=crash)
    assert first.iterations > 0 and first.inverse is not None
    signed, _, sign = simplex._signed_rows(poly.A, poly.b)
    held = [crash_inverse.copy(), first.inverse.copy()]
    for basis0, folded, c in ((crash, crash_inverse, c1), (first.basis, first.inverse, c2)):
        formed = simplex._inverse(signed, basis0) * sign
        plain = simplex.solve_lp(c, poly.A, poly.b, basis0=basis0)
        given = simplex.solve_lp(c, poly.A, poly.b, basis0=basis0, inverse0=formed)
        assert given.iterations > 0 and given.inverse is not None
        for a, b in ((given.x, plain.x), (given.duals, plain.duals),
                     (given.objective, plain.objective), (given.basis, plain.basis),
                     (given.inverse, plain.inverse)):
            np.testing.assert_array_equal(a, b)
        chained = simplex.solve_lp(c, poly.A, poly.b, basis0=basis0, inverse0=folded)
        assert chained.iterations == plain.iterations
        np.testing.assert_array_equal(chained.basis, plain.basis)
        np.testing.assert_allclose(chained.x, plain.x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(chained.duals, plain.duals, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(plain.duals)))
    # the pivots update a copy, never the caller's inverse
    np.testing.assert_array_equal(crash_inverse, held[0])
    np.testing.assert_array_equal(first.inverse, held[1])


@pytest.mark.parametrize("with_inverse", [True, False], ids=["inverse", "basis"])
def test_a_start_result_is_the_low_level_start(quad_setup, with_inverse):
    # lp_solve(start=res) is simplex.solve_lp from res's basis, and from its
    # inverse when it holds one, bit for bit
    _, _, poly = quad_setup
    rng = np.random.default_rng(5)
    c1, c2 = (rng.uniform(0.0, 1.0, len(poly.c) - 1) for _ in range(2))
    res = lp_solve(poly, c1)
    assert res.inverse is not None
    if not with_inverse:
        res = dataclasses.replace(res, inverse=None)
    got = lp_solve(poly, c2, start=res)
    want = simplex.solve_lp(np.append(c2, 0.0), poly.A, poly.b, basis0=res.basis,
                            inverse0=res.inverse)
    assert got.iterations == want.iterations > 0
    assert got.objective == want.objective
    np.testing.assert_array_equal(got.basis, want.basis)
    np.testing.assert_array_equal(got.duals, want.duals)
    x = want.x[:-1]
    np.testing.assert_array_equal(got.measure.reshape(-1),
                                  np.where(x > measures.SUPPORT_TOL, x, 0.0))


def test_a_polytope_without_a_crash_inverse_certifies_its_crash_start(quad, grid_c, vs7,
                                                                      tr_c):
    # an ergodic result certified from its own optimal basis holds no
    # inverse to border, so the crash start certifies itself and forms one
    problem = build_ergodic_lp(quad, grid_c, vs7, transition=tr_c)
    first = lp_solve(problem)
    again = lp_solve(problem, start=dataclasses.replace(first, inverse=None))
    assert again.iterations == 0 and again.inverse is None
    assert again.objective == pytest.approx(first.objective, abs=1e-14)
    bordered = build_mather_polytope(problem, first)
    certified = build_mather_polytope(problem, again)
    assert certified.start_inverse is None
    c = np.random.default_rng(4).uniform(0.0, 1.0, len(problem.c))
    want, got = lp_solve(bordered, c), lp_solve(certified, c)
    assert got.iterations == want.iterations > 0
    np.testing.assert_array_equal(got.basis, want.basis)
    assert got.objective == pytest.approx(want.objective, abs=1e-12)


def test_warm_started_barrier_queries_match_cold_solves(quad_setup, grid_c, vs7):
    # each query starts from the optimal basis of the one before it, so
    # the chain is run in both orders
    crit, _, poly = quad_setup
    nodes = [grid_c.node_near([x]) for x in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    cold = []
    for x in nodes:
        pfield = peierls_field_to(crit, x)
        c = np.append(np.repeat(pfield, vs7.size), 0.0)
        cold.append(simplex.solve_lp(c, poly.A, poly.b).objective)
    forward = enric1_values(crit, poly, nodes)
    backward = enric1_values(crit, poly, nodes[::-1])[::-1]
    assert np.max(np.abs(forward - cold)) <= 1e-12
    assert np.max(np.abs(backward - cold)) <= 1e-12


@pytest.fixture(scope="module")
def barrier_chain_2d():
    """The quadratic double well on [-2, 2]^2 at h = 0.2 with 13 velocities
    (q_max 1.5, 5 per axis): its critical data, the Mather polytope and
    the study's agreement nodes.  The critical data (two relaxation
    batches of 241 and 177 rows, 37 and 215 sweeps) take about 1.5 s of the
    setup on a 2-core box."""
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.2)
    vs = build_velocity_set(1.5, 5, dimension=2)
    model = make_model("quadratic", "double_well", dimension=2)
    tr = build_transition(g, vs)
    crit = build_critical_data(model, g, vs, transition=tr)
    problem = build_ergodic_lp(model, g, vs, transition=tr)
    poly = build_mather_polytope(problem, lp_solve(problem))
    nodes = limits._agreement_nodes(g, [(0.0, 0.0), (1.0, 0.0)])
    return crit, poly, nodes


def test_chained_barrier_queries_on_the_2d_double_well(barrier_chain_2d):
    # the chained starts reach degenerate vertices where a tie broken by
    # basis index alone pivots on an element 1.7e-20 of its column's
    # largest entry, and the next refresh of the inverse finds the basis
    # singular
    crit, poly, nodes = barrier_chain_2d
    values = enric1_values(crit, poly, nodes)
    assert values.shape == (len(nodes),) and np.all(np.isfinite(values))


def test_study_pivot_budget(monkeypatch):
    # The acceptance model at h = 0.1 (82 rows per Mather-face LP).  Chained
    # starts make the barrier queries after the first nearly free, and the
    # Howard-policy start makes every discounted LP free; restarted from the
    # ergodic basis and the q = 0 crash they took 232 clean-up and 246
    # discounted pivots.
    log = []
    lp_solve_, cleanup = limits.lp_solve, simplex._dual_cleanup

    def solving(problem, *args, **kwargs):
        log.append([problem.kind, 0, 0])
        res = lp_solve_(problem, *args, **kwargs)
        log[-1][1] = res.iterations
        return res

    def cleaning(*args, **kwargs):
        out = cleanup(*args, **kwargs)
        log[-1][2] += out[3]
        return out

    monkeypatch.setattr(limits, "lp_solve", solving)
    monkeypatch.setattr(simplex, "_dual_cleanup", cleaning)
    g = build_grid([[-4.0, 4.0]], 0.1)
    vs = build_velocity_set(1.5, 7)
    rep = vanishing_discount_study(superlinearize(make_model("eikonal", "abs"), g), g, vs,
                                   [0.5, 0.25], probes=((0.0,), (1.0,)), n_objectives=2,
                                   transition=build_transition(g, vs))
    assert not rep.failures
    # the ergodic LP, 2 vertex samples, 9 barrier queries (x = -2, -1.5,
    # ..., 2, the probes among them) and 4 discounted LPs
    kinds = [kind for kind, _, _ in log]
    assert kinds == ["ergodic"] + ["mather"] * 11 + ["discounted"] * 4
    queries, discounted = log[3:12], log[12:]
    later_cleanup = sum(clean for _, _, clean in queries[1:])
    assert later_cleanup <= 20, queries
    assert all(pivots == 0 for _, pivots, _ in discounted), discounted


def test_study_propagates_programming_errors_from_the_solve(monkeypatch):
    # only solver failures (WeakKAMError) are recorded; a TypeError is a bug
    def broken(*args, **kwargs):
        raise TypeError("broken solve")

    monkeypatch.setattr(limits, "solve_discounted", broken)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    with pytest.raises(TypeError, match="broken solve"):
        vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                 [0.5], n_objectives=0, transition=build_transition(g, vs))


def test_study_propagates_programming_errors_from_the_lp(monkeypatch):
    # the discounted LP stage records solver failures only; a TypeError is a bug
    def broken(*args, **kwargs):
        raise TypeError("broken lp")

    monkeypatch.setattr(limits, "build_discounted_lp", broken)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    with pytest.raises(TypeError, match="broken lp"):
        vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                 [0.5], n_objectives=0, transition=build_transition(g, vs))


def test_study_records_lp_solver_failures(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularBasis("basis matrix is singular")

    monkeypatch.setattr(limits, "build_discounted_lp", singular)
    g = build_grid([[-2.0, 2.0]], 0.1)
    vs = build_velocity_set(1.0, 5)
    rep = vanishing_discount_study(make_model("quadratic", "half_square"), g, vs,
                                   [0.5], n_objectives=0, transition=build_transition(g, vs))
    assert [f["stage"] for f in rep.failures] == ["lp@(0.0,)"]
    assert "SingularBasis" in rep.failures[0]["error"]


def test_uniqueness_test_propagates_programming_errors(quad_setup, monkeypatch):
    crit, ergodic, _ = quad_setup
    w = selected_solution_deflim(crit, [ergodic.measure])

    def broken(*args, **kwargs):
        raise TypeError("broken reconstruction")

    monkeypatch.setattr(limits, "weak_kam_solution", broken)
    with pytest.raises(TypeError, match="broken reconstruction"):
        uniqueness_test(crit, crit.aubry_nodes, w, w)
