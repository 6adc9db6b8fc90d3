"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
the measured margins.  The expensive fixtures (the h = 0.01 solves and the
full discount study) are shared module-wide.
"""

import json
import time

import numpy as np
import pytest

from weakkam.critical import (
    build_critical_data,
    edge_costs,
    intrinsic_distance,
    peierls_field_to,
    weak_kam_solution,
)
from weakkam.discounted import oracle_abs, quadratic_rate, solve_discounted
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.limits import uniqueness_test, vanishing_discount_study
from weakkam.measures import (
    build_discounted_lp,
    build_ergodic_lp,
    closedness_residual,
    lp_solve,
    support_check,
)
from weakkam.models import fenchel_transform, hamiltonian, make_model, superlinearize

from helpers import enumerate_paths_min_cost, min_cycle_mean


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# shared expensive setups
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eik_fine():
    grid = build_grid([[-4.0, 4.0]], 0.01)
    vset = build_velocity_set(1.5, 7)
    model = superlinearize(make_model("eikonal", "abs"), grid)
    return model, grid, vset, build_transition(grid, vset)


@pytest.fixture(scope="module")
def coarse_pair():
    """Both built-in families with their critical data at h = 0.05."""
    grid = build_grid([[-4.0, 4.0]], 0.05)
    vset = build_velocity_set(1.5, 7)
    tr = build_transition(grid, vset)
    out = {}
    for name, model in (("quadratic", make_model("quadratic", "half_square")),
                        ("eikonal", superlinearize(make_model("eikonal", "abs"), grid))):
        crit = build_critical_data(model, grid, vset, transition=tr)
        ergodic = lp_solve(build_ergodic_lp(model, grid, vset, transition=tr))
        out[name] = (model, crit, ergodic)
    return grid, vset, tr, out


@pytest.fixture(scope="module")
def study_fine():
    grid = build_grid([[-4.0, 4.0]], 0.01)
    vset = build_velocity_set(1.5, 7)
    model = superlinearize(make_model("eikonal", "abs"), grid)
    return grid, vanishing_discount_study(
        model, grid, vset, [0.5, 0.25, 0.125], probes=[(0.0,), (1.0,)],
        transition=build_transition(grid, vset))


# ---------------------------------------------------------------------------
# criterion 1: closed-form discounted oracle for H = |p| - |x|
# ---------------------------------------------------------------------------

def test_criterion_1_eikonal_oracle(eik_fine):
    model, grid, vset, tr = eik_fine
    xg = grid.coords[:, 0]
    sub = np.abs(xg) <= 2.0
    worst = {}
    for lam in (0.5, 0.25, 0.125):
        t0 = time.monotonic()
        sol = solve_discounted(model, grid, vset, lam, tol=1e-7, transition=tr)
        elapsed = time.monotonic() - t0
        err = float(np.max(np.abs(sol.u - oracle_abs(lam, xg))[sub]))
        worst[lam] = (err, elapsed)
        assert err <= 0.05, (lam, err)
        assert elapsed <= 60.0, (lam, elapsed)
    report("criterion 1 PASS: sup|u_lam - oracle| on [-2,2] = "
           + ", ".join(f"{l}: {e:.4f} ({t:.1f}s)" for l, (e, t) in worst.items())
           + " (tol 0.05, 60 s per lambda)")


# ---------------------------------------------------------------------------
# criterion 2: quadratic oracle and its limit field
# ---------------------------------------------------------------------------

def test_criterion_2_quadratic_oracle():
    grid = build_grid([[-4.0, 4.0]], 0.01)
    vset = build_velocity_set(2.0, 65)
    tr = build_transition(grid, vset)
    model = make_model("quadratic", "half_square")
    i1 = grid.node_near([1.0])
    errs = {}
    for lam in (1.0, 0.5, 0.1):
        sol = solve_discounted(model, grid, vset, lam, tol=1e-7, transition=tr)
        errs[lam] = abs(float(sol.u[i1]) - quadratic_rate(lam))
        assert errs[lam] <= 0.02, (lam, errs[lam])
    vset_graph = build_velocity_set(1.0, 3)
    crit = build_critical_data(model, grid, vset_graph,
                               transition=build_transition(grid, vset_graph))
    w = weak_kam_solution(crit, 0.0)
    xg = grid.coords[:, 0]
    werr = float(np.max(np.abs(w - 0.5 * xg ** 2)[np.abs(xg) <= 2.0]))
    assert werr <= 0.03
    report("criterion 2 PASS: |u_lam(1) - rate| = "
           + ", ".join(f"{l}: {e:.4f}" for l, e in errs.items())
           + f" (tol 0.02); sup|w - x^2/2| = {werr:.4f} (tol 0.03)")


# ---------------------------------------------------------------------------
# criterion 3: two independent critical-value estimators
# ---------------------------------------------------------------------------

def test_criterion_3_critical_crosscheck(coarse_pair):
    grid, vset, tr, families = coarse_pair
    gaps = {}
    for name, (model, crit, ergodic) in families.items():
        lo, hi = crit.bracket
        assert hi - lo <= 1e-3, name
        gaps[name] = abs(crit.c + ergodic.objective)
        assert gaps[name] <= 0.02, (name, gaps[name])
    report("criterion 3 PASS: |c_bisection + LP optimum| = "
           + ", ".join(f"{k}: {v:.2e}" for k, v in gaps.items())
           + " (tol 0.02, brackets <= 1e-3)")


# ---------------------------------------------------------------------------
# criterion 4: <mu, L> = lambda u_lambda(z) duality
# ---------------------------------------------------------------------------

def test_criterion_4_rep81_duality():
    grid = build_grid([[-4.0, 4.0]], 0.05)
    vset = build_velocity_set(2.0, 17)
    tr = build_transition(grid, vset)
    model = make_model("quadratic", "half_square")
    gaps = []
    for lam in (1.0, 0.5):
        sol = solve_discounted(model, grid, vset, lam, tol=1e-9, transition=tr)
        for z in (0.0, 1.0):
            res = lp_solve(build_discounted_lp(model, grid, vset, lam, [z],
                                               transition=tr))
            lam_u = lam * float(sol.u[grid.node_near([z])])
            gaps.append(abs(res.objective - lam_u))
            assert gaps[-1] <= 0.03, (lam, z, gaps[-1])
    report(f"criterion 4 PASS: max |LP - lambda*u(z)| = {max(gaps):.2e} "
           f"over lambda in (1, 0.5), z in (0, 1) (tol 0.03)")


# ---------------------------------------------------------------------------
# criterion 5: vanishing-discount decay on the eikonal example
# ---------------------------------------------------------------------------

def test_criterion_5_discount_decay(study_fine):
    grid, rep = study_fine
    assert not rep.failures, rep.failures
    xg = grid.coords[:, 0]
    sub = np.abs(xg) <= 2.0
    targets = [float(np.max(np.abs(oracle_abs(lam, xg) - 0.5 * xg ** 2)[sub]))
               for lam in rep.lambda_schedule]
    for measured, target in zip(rep.sup_gaps, targets):
        assert abs(measured - target) <= 0.05, (measured, target)
    assert all(a > b for a, b in zip(rep.sup_gaps, rep.sup_gaps[1:]))
    assert rep.estimator_agreement <= 0.03
    report("criterion 5 PASS: sup-gaps "
           + ", ".join(f"{g:.4f} (target {t:.4f})" for g, t in
                       zip(rep.sup_gaps, targets))
           + f"; strictly decreasing; estimator agreement "
             f"{rep.estimator_agreement:.2e} (tol 0.03)")


# ---------------------------------------------------------------------------
# criterion 6: structural property suite
# ---------------------------------------------------------------------------

def test_criterion_6_structural_properties(coarse_pair, study_fine):
    grid, vset, tr, families = coarse_pair
    lines = []

    # triangle inequality, exact on the graph (exact-hit tiny grid)
    gt = build_grid([[-2.0, 2.0]], 0.5)
    vt = build_velocity_set(1.0, 3)
    trt = build_transition(gt, vt)
    model_t = make_model("quadratic", "half_square")
    from weakkam.critical import distances_to_targets
    costs = edge_costs(model_t, gt, vt, 0.0, trt)
    S = distances_to_targets(costs, trt, list(range(gt.num_nodes))).T
    n = gt.num_nodes
    tri = max(S[x, y] - S[x, z] - S[z, y]
              for x in range(n) for y in range(n) for z in range(n))
    assert tri <= 0.0
    lines.append("triangle exact")

    # Fenchel-Young on 1e4 random triples
    rng = np.random.default_rng(42)
    X = rng.uniform(-4, 4, (10_000, 1))
    P = rng.uniform(-6, 6, (10_000, 1))
    Q = rng.uniform(-3, 3, (10_000, 1))
    for name, (model, crit, ergodic) in families.items():
        L = np.asarray(fenchel_transform(model, X, Q))
        H = np.asarray(hamiltonian(model, X, P))
        assert float(np.max(P[:, 0] * Q[:, 0] - H - L)) <= 1e-10, name
    lines.append("Fenchel-Young 1e4 triples")

    # closedness residual of every LP measure
    for name, (model, crit, ergodic) in families.items():
        assert closedness_residual(ergodic.measure, tr) <= 1e-8, name
    lines.append("closedness <= 1e-8")

    # support check for ergodic measures
    for name, (model, crit, ergodic) in families.items():
        sup = support_check(ergodic.measure, crit)
        assert sup.outside_mass <= 1e-3 + 2 * grid.h, name
        assert sup.passed, name
    lines.append("support mass")

    # Peierls barrier separation
    for name, (model, crit, ergodic) in families.items():
        for z in crit.aubry_nodes:
            assert peierls_field_to(crit, int(z))[int(z)] <= 2 * crit.eps_aubry
        far = grid.node_near([1.0 + float(np.max(
            np.abs(grid.coords[crit.aubry_nodes])))])
        assert peierls_field_to(crit, far)[far] >= 10 * crit.eps_aubry, name
    lines.append("Peierls separation")

    # Mather set inside the Aubry dilation
    _, rep = study_fine
    aubry_pts = rep.critical.grid.coords[rep.critical.aubry_nodes]
    for i in rep.mather_nodes:
        d = float(np.min(np.abs(rep.critical.grid.coords[i] - aubry_pts)))
        assert d <= 2 * rep.critical.grid.h + rep.critical.grid.h + 1e-12
    lines.append("Mather set in Aubry dilation")

    # uniqueness test on constructed weak KAM pairs
    model, crit, ergodic = families["quadratic"]
    w = weak_kam_solution(crit, 0.0)
    v = weak_kam_solution(crit, -0.1)
    verdict = uniqueness_test(crit, crit.aubry_nodes, v, w)
    assert verdict.status == "PASS"
    lines.append("uniqueness test")

    report("criterion 6 PASS: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 7: brute-force oracle equivalence on the 9-node grid
# ---------------------------------------------------------------------------

def test_criterion_7_brute_force_oracles():
    grid = build_grid([[-2.0, 2.0]], 0.5)
    vset = build_velocity_set(1.0, 3)
    tr = build_transition(grid, vset)
    model = make_model("quadratic", "half_square")
    costs = edge_costs(model, grid, vset, 0.0, tr)
    src = grid.node_near([0.0])
    oracle = enumerate_paths_min_cost(costs, tr, src, max_depth=20)
    fld = intrinsic_distance(model, grid, vset, 0.0, src, transition=tr)
    assert np.array_equal(fld, oracle)

    res = lp_solve(build_ergodic_lp(model, grid, vset, transition=tr))
    from weakkam.models import lagrangian_table
    L = lagrangian_table(model, grid.coords, vset.vectors)
    L = np.where(np.isfinite(L), L, 1e30)
    lp_gap = abs(res.objective - min_cycle_mean(L, tr))
    assert lp_gap <= 1e-9
    report(f"criterion 7 PASS: shortest paths exactly equal enumeration; "
           f"LP vs cycle-mean gap {lp_gap:.1e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 8: determinism of repeated study runs
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    from weakkam.cli import main
    cfg = {
        "model": {"family": "eikonal", "potential": {"name": "abs"}},
        "grid": {"box": [[-2.0, 2.0]], "h": 0.1},
        "velocity": {"q_max": 1.5, "per_axis_count": 7},
        "schedule": {"lambdas": [0.5, 0.25]},
        "probes": [[0.0]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    for p in sorted(out.iterdir()):
        assert p.read_bytes() == snapshot[p.name], p.name
    report("criterion 8 PASS: repeated study is byte-identical "
           f"({len(snapshot)} artifacts incl. manifest)")
