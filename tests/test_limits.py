from dataclasses import replace

import numpy as np
import pytest

from weakkam import discounted, limits, measures
from weakkam.critical import build_critical_data, peierls_field_to, weak_kam_solution
from weakkam.errors import MaxIterExceeded, NoMeasures, SingularBasis
from weakkam.grids import build_grid, build_transition, build_velocity_set, interpolate
from weakkam.limits import (
    mather_set,
    policy_limit,
    stage_costs,
    swept_limit,
    uniqueness_test,
    vanishing_discount_study,
)
from weakkam.measures import build_ergodic_lp, lp_solve, mather_face
from weakkam.models import SampledTable, lagrangian_table, make_model, superlinearize

from helpers import mather_set_loop


def ergodic_of(model, grid, vs, tr):
    """(the ergodic program, its solve, its Mather face)."""
    problem = build_ergodic_lp(model, grid, vs, transition=tr)
    ergodic = lp_solve(problem)
    return problem, ergodic, mather_face(problem, ergodic)


def face_of(model, grid, vs, tr):
    return ergodic_of(model, grid, vs, tr)[1:]


@pytest.fixture(scope="module")
def quad_ergodic(quad, grid_c, vs7, tr_c):
    return ergodic_of(quad, grid_c, vs7, tr_c)


@pytest.fixture(scope="module")
def quad_setup(quad, grid_c, vs7, tr_c, quad_ergodic):
    crit = build_critical_data(quad, grid_c, vs7, transition=tr_c)
    return (crit,) + quad_ergodic[1:]


@pytest.fixture(scope="module")
def quad_limit(quad_ergodic):
    """The scheme's limit on the quadratic model: (stage costs, w)."""
    problem, ergodic, face = quad_ergodic
    return stage_costs(problem, ergodic), policy_limit(problem, ergodic, face.nodes)


# ---------------------------------------------------------------------------
# the Peierls barrier over the face
# ---------------------------------------------------------------------------

def barrier_form(crit, face_nodes, x):
    """min over the face nodes y of P(y, x)."""
    return float(np.min(peierls_field_to(crit, x)[face_nodes]))


def test_enric1_barrier_values(quad_setup, grid_c):
    crit, ergodic, face = quad_setup
    v1 = barrier_form(crit, face.nodes, grid_c.node_near([1.0]))
    assert v1 == pytest.approx(0.5, abs=3 * grid_c.h)
    vz = barrier_form(crit, face.nodes, int(crit.aubry_nodes[0]))
    assert abs(vz) <= 2 * crit.eps_aubry + 1e-6


def test_enric1_eikonal(grid_c, vs7):
    eik = superlinearize(make_model("eikonal", "abs"), grid_c)
    tr = build_transition(grid_c, vs7)
    crit = build_critical_data(eik, grid_c, vs7, transition=tr)
    _, face = face_of(eik, grid_c, vs7, tr)
    v2 = barrier_form(crit, face.nodes, grid_c.node_near([2.0]))
    assert v2 == pytest.approx(2.0, abs=0.12)


# ---------------------------------------------------------------------------
# the limit w_h and its two solvers
# ---------------------------------------------------------------------------

def test_deflim_field_and_trace(quad, grid_c):
    # configs/quadratic.json's velocities (q_max 2): the optimal speed |x|
    # stays under the velocity cap on [-2, 2]; w is 0 on the face, the origin
    vs = build_velocity_set(2.0, 17)
    problem, ergodic, face = ergodic_of(quad, grid_c, vs, build_transition(grid_c, vs))
    w = policy_limit(problem, ergodic, face.nodes)
    xg = grid_c.coords[:, 0]
    mask = np.abs(xg) <= 2.0
    assert np.max(np.abs(w - 0.5 * xg ** 2)[mask]) <= 2 * grid_c.h
    np.testing.assert_array_equal(face.nodes, [grid_c.node_near([0.0])])
    assert w[face.nodes[0]] == 0.0


def test_deflim_requires_measures(quad_ergodic):
    problem, ergodic, _ = quad_ergodic
    with pytest.raises(NoMeasures):
        policy_limit(problem, ergodic, np.array([], dtype=int))


def test_estimators_agree(quad_ergodic, quad_limit):
    # the two solvers share no code and reach the same fixed point
    problem, ergodic, face = quad_ergodic
    _, w = quad_limit
    swept = swept_limit(problem, ergodic, face.nodes)
    assert float(np.max(np.abs(swept - w))) <= 1e-12 * (1.0 + float(np.max(np.abs(w))))


def test_policy_limit_makes_any_start_proper(quad_ergodic, quad_limit, grid_c, vs7):
    # under the rest policy no node off the face reaches it, and the policy
    # matrix with F absorbing is singular; the backward search from F sends
    # every node there first, and the iteration ends at the same w
    problem, ergodic, face = quad_ergodic
    _, w = quad_limit
    rest = replace(ergodic, policy=np.full(grid_c.num_nodes, vs7.zero_index()))
    np.testing.assert_allclose(policy_limit(problem, rest, face.nodes), w,
                               rtol=0.0, atol=1e-12 * (1.0 + float(np.max(w))))


def test_deflim_constraint_validates_post_hoc(quad_setup, quad_limit):
    # <mu, w> <= 0 for every Mather measure: w is 0 on the face nodes
    _, ergodic, _ = quad_setup
    _, w = quad_limit
    assert float(np.sum(ergodic.measure * w[:, None])) == 0.0


def test_w_reconstructs_through_min_formula(quad_ergodic, quad_limit, tr_c):
    # w = min over q of [stage + w(foot)] off the face, and 0 on it
    _, _, face = quad_ergodic
    stage, w = quad_limit
    bellman = np.min(stage + interpolate(tr_c, w), axis=1)
    off = np.ones(len(w), dtype=bool)
    off[face.nodes] = False
    assert float(np.max(np.abs(bellman - w)[off])) <= 1e-12 * (1.0 + float(np.max(w)))
    assert np.all(w[face.nodes] == 0.0)


def test_the_limit_is_the_limit_of_the_schemes_u_lambda():
    # sup |u_lambda - w| / lambda on the central half-box is bounded and
    # constant over four decades (1.43, 1.13, 0.435 and 0.552 here); a
    # limit off the scheme's own leaves a floor in sup |u_lambda - w|, and
    # the ratio grows like 1 / lambda
    lams = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    g1 = build_grid([[-4.0, 4.0]], 0.05)
    g2 = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.2)
    cases = [  # configs/eikonal_abs.json, configs/quadratic.json, then with a double well
        (superlinearize(make_model("eikonal", "abs"), g1), g1, build_velocity_set(1.5, 7)),
        (make_model("quadratic", "half_square"), g1, build_velocity_set(2.0, 17)),
        (make_model("quadratic", "double_well"), g1, build_velocity_set(2.0, 17)),
        (make_model("quadratic", "double_well", dimension=2), g2,
         build_velocity_set(1.5, 5, dimension=2)),
    ]
    for model, g, vs in cases:
        rep = vanishing_discount_study(model, g, vs, lams, probes=[(0.0,) * g.dimension],
                                       transition=build_transition(g, vs))
        assert not rep.failures
        ratio = np.array(rep.sup_gaps) / lams
        assert np.max(ratio) <= 2.0, ratio
        assert np.max(ratio) <= 1.02 * np.min(ratio), ratio


def test_a_face_node_leaves_for_a_route_below_0_to_another():
    # H = (p + 1.2)^2 / 2 - (x^2 - 1)^2, tabulated: both wells are face
    # nodes, and the drift makes the route from -1 to 1 cost about
    # 4 sqrt(2) / 3 - 2.4 = -0.51, so the largest subsolution <= 0 on the
    # face is below 0 at -1.  Both solvers find that route, face nodes
    # included, and u_lambda converges to it at rate lambda; a limit held
    # at 0 on the face leaves a floor of 0.5 in sup |u_lambda - w|
    g = build_grid([[-2.0, 2.0]], 0.05)
    x = g.coords[:, 0]
    pg = np.linspace(-6.0, 6.0, 241)
    values = 0.5 * (pg[None, :] + 1.2) ** 2 - (x[:, None] ** 2 - 1.0) ** 2
    model = make_model("sampled", sampled=SampledTable(x_coords=x.copy(), p_grid=pg,
                                                       values=values))
    vs = build_velocity_set(2.0, 17)
    tr = build_transition(g, vs)
    problem, ergodic, face = ergodic_of(model, g, vs, tr)
    np.testing.assert_array_equal(face.nodes, [g.node_near([-1.0]), g.node_near([1.0])])
    w = policy_limit(problem, ergodic, face.nodes)
    swept = swept_limit(problem, ergodic, face.nodes)
    assert float(np.max(np.abs(swept - w))) <= 1e-12 * (1.0 + float(np.max(np.abs(w))))
    assert w[face.nodes[0]] == pytest.approx(-0.50, abs=0.01)
    assert w[face.nodes[1]] == 0.0
    # a subsolution at every node, the face nodes too
    bellman = np.min(stage_costs(problem, ergodic) + interpolate(tr, w), axis=1)
    assert np.all(w <= bellman + 1e-12)
    lams = [1e-3, 1e-4, 1e-5]
    rep = vanishing_discount_study(model, g, vs, lams, probes=[(-1.0,)], transition=tr)
    assert not rep.failures and rep.estimator_agreement <= 1e-12
    np.testing.assert_array_equal(rep.w, w)
    ratio = np.array(rep.sup_gaps) / lams
    assert np.max(ratio) <= 1.0 and np.max(ratio) <= 1.02 * np.min(ratio), ratio


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
    # configs/quadratic.json with the double well, and the 2D double well
    if request.param == "double_well_1d":
        g = build_grid([[-4.0, 4.0]], 0.05)
        vs = build_velocity_set(2.0, 17)
    else:
        g = build_grid([[-1.5, 1.5], [-1.5, 1.5]], 0.25)
        vs = build_velocity_set(1.5, 5, dimension=2)
    model = make_model("quadratic", "double_well", dimension=g.dimension)
    _, face = face_of(model, g, vs, build_transition(g, vs))
    # the face nodes, the box corners and a scatter: the dilation is
    # clipped at the box
    rng = np.random.default_rng(0)
    nodes = np.concatenate([face.nodes, [0, g.num_nodes - 1],
                            rng.choice(g.num_nodes, 5, replace=False)])
    return g, nodes


def test_mather_set_matches_the_per_node_loop(loop_case):
    g, nodes = loop_case
    got = mather_set(nodes, g)
    assert len(got) > len(nodes)
    np.testing.assert_array_equal(got, mather_set_loop(nodes, g))


# ---------------------------------------------------------------------------
# uniqueness test
# ---------------------------------------------------------------------------

def test_uniqueness_equal_fields_pass(quad_setup, grid_c):
    crit, ergodic, _ = quad_setup
    w = weak_kam_solution(crit, 0.0)
    mnodes = crit.aubry_nodes
    verdict = uniqueness_test(crit, mnodes, w, w)
    assert verdict.status == "PASS"
    assert verdict.worst_gap <= 1e-12


def test_uniqueness_vacuous_hypothesis(quad_setup):
    crit, ergodic, _ = quad_setup
    w = weak_kam_solution(crit, 0.0)
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


def test_the_2d_double_well_study_follows_each_policys_chain(monkeypatch):
    # the study on a 2D grid, end to end: every policy solve (Howard's,
    # both LPs' with their transposed solves, and the limit's with its
    # absorbing face nodes) is acyclic and runs level by level, with no
    # block elimination; the study's checks hold and the sup gaps fall
    # with lambda
    def no_block(*args, **kwargs):
        raise AssertionError("a policy solve of the 2D study took the block elimination")

    transposed, real = [], discounted.ChainFactor.transposed_solve

    def counted(factor, rhs):
        transposed.append(len(rhs))
        return real(factor, rhs)

    monkeypatch.setattr(discounted, "_block_solve", no_block)
    monkeypatch.setattr(discounted.ChainFactor, "transposed_solve", counted)
    g = build_grid([[-2.0, 2.0], [-2.0, 2.0]], 0.25)
    vs = build_velocity_set(1.5, 5, dimension=2)
    lams = [0.5, 0.25, 0.125]
    rep = vanishing_discount_study(make_model("quadratic", "double_well", dimension=2), g,
                                   vs, lams, probes=[(0.0, 0.0), (1.0, 0.0)],
                                   transition=build_transition(g, vs))
    assert rep.failures == []
    assert rep.critical_crosscheck <= 0.02
    assert rep.estimator_agreement <= 0.03
    rep81 = [r.rep81_gap for r in rep.rows if r.rep81_gap is not None]
    assert len(rep81) == 2 * len(lams) and max(rep81) <= 0.03, rep81
    assert all(b < a for a, b in zip(rep.sup_gaps, rep.sup_gaps[1:])), rep.sup_gaps
    assert len(transposed) >= 2 * len(lams)


def test_w_is_subsolution_at_critical_level(quad_setup, quad_limit, grid_c, quad, vs7,
                                           tr_c):
    from weakkam.critical import is_subsolution
    crit, _, _ = quad_setup
    _, w = quad_limit
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
    values = np.array([barrier_form(crit, face.nodes, x) for x in nodes])
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
    w = weak_kam_solution(crit, 0.0)

    def broken(*args, **kwargs):
        raise TypeError("broken reconstruction")

    monkeypatch.setattr(limits, "weak_kam_solution", broken)
    with pytest.raises(TypeError, match="broken reconstruction"):
        uniqueness_test(crit, crit.aubry_nodes, w, w)
