"""Critical value, intrinsic distances, Aubry set, Peierls barrier, weak KAM.

Everything here lives on the weighted graph whose edges are the unclipped
foot-point transitions (i -> x_i + h*q) with cost h * sigma_a(x_i, q), the
discrete length element of the level-a Finsler metric.  Distances are
computed by min-plus relaxation (Jacobi sweeps) with multilinear
interpolation of the continuation value at off-node feet, over extended
reals: an edge whose foot reads an unreachable node is unusable, and
unreachable nodes stay at INF.  A sweep re-evaluates only the nodes that
read a value the sweep before changed, which leaves every value and the
sweep count as full sweeps give them.  An edge whose foot lies in a cell
with its own node as a corner puts weight w_s < 1 on that node; each sweep
solves D(i) = c + w_s D(i) + rest for D(i) exactly, so such an edge costs
one sweep rather than a geometric series of them, with the same fixed
point.  A subcritical level raises NegativeCycle:
from the relaxation on a negative cycle, or its subclass EmptySublevel from
`edge_costs` on an empty sublevel.  The critical value is bracketed by
bisection between max_x min_p H and max_x H(x,0) (the level at which
constants become subsolutions).

A node belongs to the (discrete) Aubry set when some nontrivial cycle
through it has intrinsic cost below eps_aubry; cycle costs at true Aubry
points scale like h^2 * Lip(sigma), which fixes the default threshold.
`build_aubry_data` finds the Aubry set and keeps the distance fields to
the Aubry nodes; `build_critical_data` adds the fields from them.  Both are
(k, n) arrays whose rows follow `aubry_nodes`, and a trace on the Aubry set
is a length-k array in the same order; the Peierls barrier and the weak
KAM min-formula are array expressions over them.  Every field on the grid
(a distance, a weak KAM solution) is an (n,) array over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (BracketInvalid, EmptyAubrySet, EmptySublevel, IncompatibleTrace,
                     NegativeCycle, WeakKAMError)
from .grids import interpolate
from .models import (
    h_at_zero,
    h_min_over_p,
    lagrangian_table,
    support_function,
)

INF = 1e30
NEG_TOL = 1e-9    # relative drop at the sweep cap that certifies a negative cycle
CHUNK = 64        # distance rows relaxed together
SLICE_BYTES = 1 << 18  # bytes of one slice of a sweep's gather
COMPAT_TOL = 1e-9  # relative slack of the weak KAM trace compatibility check
BISECTION_TOL = 1e-3  # width of the critical-value bracket


# ---------------------------------------------------------------------------
# edge costs
# ---------------------------------------------------------------------------

def edge_costs(model, grid, velocity_set, a, transition):
    """Cost h*sigma_a(x_i, q) per unclipped transition; +INF marks excluded
    edges.  Raises EmptySublevel, naming the first such node, when some node
    has an empty a-sublevel."""
    sigma = support_function(model, a, grid.coords[:, None, :],
                             velocity_set.vectors[None, :, :])
    bad = np.isnan(sigma[:, velocity_set.zero_index()])
    if bad.any():
        i = int(np.argmax(bad))
        raise EmptySublevel(f"empty sublevel at node {i} (x = {grid.coords[i].tolist()}): "
                            f"level {a:g} is subcritical")
    costs = grid.h * sigma
    costs[transition.clipped] = INF
    return costs


def reverse_edge_costs(model, grid, velocity_set, a, transition):
    """Costs for walking edges backwards: step (j, u) mirrors the forward edge
    foot(j,u) --(-u)--> j, so it pays h*sigma_a(foot(j,u), -u)."""
    out = grid.h * support_function(model, a, transition.feet, -velocity_set.vectors)
    out[np.isnan(out)] = INF
    out[transition.clipped] = INF
    return out


# ---------------------------------------------------------------------------
# min-plus relaxation
# ---------------------------------------------------------------------------

def relax_batch(costs, transition, D0):
    """Sweep D <- min(D, min_q (c(i,q) + rest(i,q)) / (1 - w_s(i,q))) to a
    fixed point.  D0 has shape (T, n) and holds finite values, with INF for
    unreachable; rows relax independently.

    A foot in a cell with node i as a corner carries node i itself among its
    interpolation weights, with weight w_s; rest sums the other corners.
    Each step solves D(i) = c + w_s D(i) + rest for D(i) exactly instead of
    iterating on it: for w_s < 1, D <= c + w_s D + rest holds exactly when
    D <= (c + rest) / (1 - w_s), so the fixed-point set is that of the plain
    sweep D <- min(D, c + sum_k w_k D(idx_k)), and only the round-off and
    the sweep count differ.  A self-loop (w_s = 1: the q = 0 edge, of cost
    h*sigma_a(x, 0) = 0, or a foot clipped onto its own node) only restates
    D <= c + D and is left out, and so is an edge of cost INF.

    Inside the sweeps values are extended reals: INF becomes +inf on entry
    and INF again on exit, so an edge that reads an unreachable node (a
    corner of positive weight other than the node itself) is unusable, as
    the scheme says, instead of costing about w * INF.  The sweeps are
    Jacobi sweeps, but per block of CHUNK rows a sweep re-evaluates only
    the nodes that read a node whose value changed in the sweep before:
    any other node would get its previous candidate again, so the values
    and the sweep count are those of full sweeps.  Each block is held
    node-major, so a read gathers the block's values for that node at
    once.  The corner terms are summed in corner order.

    Memory: a sweep evaluates its nodes in slices whose gather (one value
    per node, usable velocity and row of the block) holds at most
    SLICE_BYTES, with one term of the same size beside it, and writes the
    new values only after the last slice, so it stays a Jacobi sweep.
    Beyond the slices it holds the (T, n) field, one node-major block, the
    new values of one sweep and the edge table: a read index and a weight
    per usable edge and read slot, 16 bytes each.  The setup fills the
    table a corner at a time from a byte mask of the transition's
    (n, M, 2^N) shape; the one float array of that shape, the self weights
    before they are summed, is dropped at once.

    With no usable edge the rows are returned as they are, after 0 sweeps.
    Raises NegativeCycle when 2n+64 sweeps end while values still drop by
    more than NEG_TOL relative to the field (the min-plus operator is
    unbounded below).
    """
    D = np.array(D0, dtype=float)
    T, n = D.shape
    max_sweeps = 2 * n + 64
    idx, w = transition.idx, transition.w
    own = idx == np.arange(n)[:, None, None]
    w_self = np.where(own, w, 0.0).sum(axis=2)
    loop = w_self >= 1.0
    inv = 1.0 / (1.0 - np.where(loop, 0.0, w_self))
    usable = ~loop & (costs < INF)
    # an edge reads its corners of positive weight other than its own node,
    # in corner order: read slot s holds the (s+1)-th of them
    reads = (w > 0.0) & ~own & usable[:, :, None]
    del own
    # velocities sorted by their most reads, so that read slot s covers the
    # first width of them; a velocity no node can use (q = 0) is dropped
    most = np.count_nonzero(reads, axis=2).max(axis=0)
    cols = np.argsort(-most, kind="stable")[:np.count_nonzero(most)]
    if cols.size == 0:
        return D, 0                    # no usable edge: no row can drop
    width = [m for m in (np.count_nonzero(most > s) for s in range(idx.shape[2])) if m]
    # a slot past an edge's last read reads the pad row n, which holds 0
    # with weight 0, so inf never meets a zero weight; node_reads holds the
    # reads of every slot side by side
    node_reads = np.full((n, sum(width)), n)
    weights = np.zeros((n, sum(width), 1))
    start = np.cumsum([0] + width)
    slots = [(node_reads[:, a:a + m], weights[:, a:a + m]) for a, m in zip(start, width)]
    count = np.zeros((n, cols.size), dtype=int)       # reads seen so far
    for k in range(idx.shape[2]):
        hit_k = reads[:, cols, k]
        idx_k, w_k = idx[:, cols, k], w[:, cols, k, None]
        for s, (r, wk) in enumerate(slots[:k + 1]):
            m = r.shape[1]
            hit = hit_k[:, :m] & (count[:, :m] == s)
            r[hit] = idx_k[:, :m][hit]
            wk[hit] = w_k[:, :m][hit]
        count += hit_k
    del reads, count
    c = np.where(usable, costs, np.inf)[:, cols, None]
    inv = inv[:, cols, None]
    D[D >= INF] = np.inf
    sweeps = 0
    improvement = 0.0
    for t0 in range(0, T, CHUNK):
        # node-major block: a read pulls the block's values contiguously
        Dn = np.zeros((n + 1, min(CHUNK, T - t0)))
        Dn[:n] = D[t0:t0 + CHUNK].T
        step = max(1, SLICE_BYTES // (Dn.itemsize * cols.size * Dn.shape[1]))
        # the first sweep evaluates the nodes that read a finite value: the
        # candidates of any other node are all inf
        moved = np.zeros(n + 1, dtype=bool)
        moved[:n] = np.isfinite(Dn[:n]).any(axis=1)
        for sweep in range(1, max_sweeps + 1):
            act = np.flatnonzero(moved[node_reads].any(axis=1))
            if act.size == 0:
                drop = 0.0
                break
            new = np.empty((act.size, Dn.shape[1]))
            for s in range(0, act.size, step):
                _candidates(Dn, act[s:s + step], slots, c, inv, new[s:s + step])
            old = Dn[act]
            np.minimum(old, new, out=new)
            lower = new < old
            drop = float(np.max(old[lower] - new[lower])) if lower.any() else 0.0
            moved[:] = False
            moved[act] = lower.any(axis=1)
            Dn[act] = new
            if drop <= 0.0:
                break
        sweeps = max(sweeps, sweep)
        improvement = max(improvement, drop)
        D[t0:t0 + CHUNK] = Dn[:n].T
    D[np.isinf(D)] = INF
    if improvement <= 0.0:
        return D, sweeps
    scale = 1.0 + float(np.max(np.abs(D[D < INF / 2]))) if np.any(D < INF / 2) else 1.0
    if improvement > NEG_TOL * scale:
        raise NegativeCycle(
            f"min-plus relaxation still improving by {improvement:.3e} after {sweeps} sweeps")
    return D, sweeps


def _candidates(Dn, a, slots, c, inv, out):
    """out[j] = min_q (c + rest) / (1 - w_s) at node a[j], per row of the
    node-major block Dn."""
    r, wk = slots[0]
    rest = Dn[r[a]]
    rest *= wk[a]
    for r, wk in slots[1:]:
        term = Dn[r[a]]
        term *= wk[a]
        rest[:, :r.shape[1]] += term
    rest += c[a]
    rest *= inv[a]
    np.min(rest, axis=1, out=out)


def distances_to_targets(costs, transition, targets):
    """Matrix S[t, i] = least cost of walking from node i to targets[t]."""
    targets = list(targets)
    n = costs.shape[0]
    D0 = np.full((len(targets), n), INF)
    for r, t in enumerate(targets):
        D0[r, t] = 0.0
    D, _ = relax_batch(costs, transition, D0)
    return D


def intrinsic_distance(model, grid, velocity_set, a, source, transition,
                       direction="from"):
    """Distance field of the level-a metric: S_a(source, .) for direction
    "from" (cost of reaching each node from `source`), S_a(., source) for
    direction "to", as an (n,) array.  Raises NegativeCycle when a is
    subcritical."""
    if direction == "from":
        costs = reverse_edge_costs(model, grid, velocity_set, a, transition)
    else:
        costs = edge_costs(model, grid, velocity_set, a, transition)
    return distances_to_targets(costs, transition, [source])[0]


# ---------------------------------------------------------------------------
# critical value by bisection
# ---------------------------------------------------------------------------

@dataclass
class CriticalData:
    """Bisection result plus the Aubry set at `level` (the upper end of the
    bracket).  Row r of S_to is S(., aubry_nodes[r]) and row r of S_from is
    S(aubry_nodes[r], .), both (k, n) arrays of level-`level` distances."""
    c: float
    bracket: tuple
    trace: list = field(default_factory=list)
    aubry_nodes: Optional[np.ndarray] = None
    cycle_cost: Optional[np.ndarray] = None
    cycle_exact: Optional[np.ndarray] = None
    eps_aubry: Optional[float] = None
    level: Optional[float] = None          # level used for distances (c_hi)
    S_to: Optional[np.ndarray] = None
    S_from: Optional[np.ndarray] = None
    grid: object = None
    velocity_set: object = None


def is_subcritical(model, grid, velocity_set, a, transition):
    """(subcritical, reason) for level a: the edge costs are relaxed from the
    zero field, and the two exceptions that certify a subcritical level give
    the reasons "empty-sublevel" and "negative-cycle" (negative path values
    are legitimate; only a negative cycle keeps the sweeps from a fixed point)."""
    try:
        relax_batch(edge_costs(model, grid, velocity_set, a, transition), transition,
                    np.zeros((1, grid.num_nodes)))
    except EmptySublevel:
        return True, "empty-sublevel"
    except NegativeCycle:
        return True, "negative-cycle"
    return False, "feasible"


def critical_value(model, grid, velocity_set, tol=BISECTION_TOL, *, transition):
    """Bisection for the critical value between max_x min_p H (below which
    some sublevel empties) and max_x H(x,0) (above which constants are
    subsolutions), to a bracket no wider than tol > 0.  A level is
    subcritical iff a sublevel is empty or the cost graph carries a
    negative cycle."""
    if not tol > 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol!r}")
    pts = grid.coords
    a_lo = float(np.max(h_min_over_p(model, pts)))
    a_hi = float(np.max(h_at_zero(model, pts)))
    if a_hi < a_lo - 1e-12 * (1 + abs(a_lo)):
        raise BracketInvalid(f"endpoints disordered: [{a_lo}, {a_hi}]")
    trace = []
    sub_hi, reason = is_subcritical(model, grid, velocity_set, a_hi, transition)
    trace.append((a_hi, sub_hi, reason))
    if sub_hi:
        raise BracketInvalid("upper endpoint max_x H(x,0) tests subcritical; "
                             "discretization too coarse")
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        sub, reason = is_subcritical(model, grid, velocity_set, mid, transition)
        trace.append((mid, sub, reason))
        if sub:
            a_lo = mid
        else:
            a_hi = mid
    data = CriticalData(c=0.5 * (a_lo + a_hi), bracket=(a_lo, a_hi), trace=trace,
                        level=a_hi, grid=grid, velocity_set=velocity_set)
    return data


# ---------------------------------------------------------------------------
# Aubry set via small cycles
# ---------------------------------------------------------------------------

def sigma_lipschitz_estimate(model, grid, a):
    """Largest axis-difference quotient of sigma_a(., e) over the grid."""
    e = np.zeros((1, grid.dimension))
    e[0, 0] = 1.0
    vals = support_function(model, a, grid.coords, e)
    vals = np.where(np.isnan(vals), 0.0, vals).reshape(grid.shape)
    worst = 0.0
    for k in range(grid.dimension):
        d = np.abs(np.diff(vals, axis=k)) / grid.h
        if d.size:
            worst = max(worst, float(np.max(d)))
    return worst


def default_eps_aubry(model, grid, a):
    """Cycle costs at true Aubry points scale like Lip(sigma) * h^2."""
    lip = max(sigma_lipschitz_estimate(model, grid, a), 1e-9)
    return 2.0 * lip * grid.h ** 2


def build_aubry_data(model, grid, velocity_set, eps_aubry=None, *, transition):
    """Bisection, then the Aubry set and the distances to it at data.level.

    Aubry nodes are those traversed by nontrivial cycles of intrinsic cost
    <= eps_aubry: cycle_cost(y) = min over q != 0 of [cost(y,q) +
    S(foot(y,q) -> y)], with the return distance interpolated at the foot.
    When all edge costs are nonnegative, nodes whose cheapest outgoing edge
    already exceeds the threshold cannot be Aubry (the return leg costs
    >= 0), so the exact cycle cost is only computed on the surviving
    candidates; elsewhere the stored value is that first-edge lower bound
    (cycle_exact reports which).  The return distances of the Aubry
    nodes are kept as S_to; S_from is left unset.  No node within the
    threshold raises EmptyAubrySet.
    """
    data = critical_value(model, grid, velocity_set, transition=transition)
    # the bisection certified data.level feasible, so no sublevel is empty
    ec = edge_costs(model, grid, velocity_set, data.level, transition)
    if eps_aubry is None:
        eps_aubry = default_eps_aubry(model, grid, data.level)
    n, M = ec.shape
    zero_m = velocity_set.zero_index()
    moving = np.ones(M, dtype=bool)
    moving[zero_m] = False
    first_edge = np.min(np.where(moving[None, :], ec, INF), axis=1)
    finite = ec[ec < INF / 2]
    nonneg = finite.size == 0 or float(np.min(finite)) >= -1e-15
    if not nonneg:
        cand_nodes = np.arange(n)
    else:
        cand_nodes = np.nonzero(first_edge <= eps_aubry * (1 + 1e-9) + 1e-15)[0]
    cycle = first_edge.copy()
    exact = np.zeros(n, dtype=bool)
    D = distances_to_targets(ec, transition, cand_nodes)
    for r, y in enumerate(cand_nodes):
        cont = np.sum(transition.w[y] * D[r][transition.idx[y]], axis=1)  # (M,)
        vals = ec[y] + cont
        vals[zero_m] = INF
        cycle[y] = float(np.min(vals))
        exact[y] = True
    # a node outside the candidates has a first edge above eps_aubry
    in_aubry = cycle[cand_nodes] <= eps_aubry
    if not in_aubry.any():
        # a first-edge lower bound that is least bounds the least cycle cost
        y = int(np.argmin(cycle))
        least = ("no cycle has a finite cost" if cycle[y] >= INF / 2 else
                 f"the least is {'' if exact[y] else 'at least '}{cycle[y]:.6g}")
        raise EmptyAubrySet(f"no cycle cost is within eps_aubry = {eps_aubry:.6g}: {least}")
    data.aubry_nodes = cand_nodes[in_aubry]
    data.cycle_cost = cycle
    data.cycle_exact = exact
    data.eps_aubry = eps_aubry
    data.S_to = D[in_aubry]
    return data


def build_critical_data(model, grid, velocity_set, eps_aubry=None, *, transition):
    """`build_aubry_data` plus S_from, the distances from the Aubry nodes
    (one relaxation over the reversed edges), which the Peierls barrier
    and the weak KAM min-formula read."""
    data = build_aubry_data(model, grid, velocity_set, eps_aubry=eps_aubry,
                            transition=transition)
    data.S_from = distances_to_targets(
        reverse_edge_costs(model, grid, velocity_set, data.level, transition),
        transition, data.aubry_nodes)
    return data


# ---------------------------------------------------------------------------
# Peierls barrier and weak KAM solutions
# ---------------------------------------------------------------------------

def _distances_from(critical):
    """critical.S_from; a WeakKAMError when the data was built without it."""
    if critical.S_from is None:
        raise WeakKAMError("the Peierls barrier and the weak KAM min-formula read S_from, "
                           "the distances from the Aubry nodes, which build_aubry_data "
                           "does not build: build the data with build_critical_data")
    return critical.S_from


def peierls_field_to(critical, y):
    """P(., y) as a vector over nodes: P(x, y) = min over Aubry z of
    S(x,z) + S(z,y), from the stored fields."""
    return np.min(critical.S_to + _distances_from(critical)[:, y, None], axis=0,
                  initial=np.inf)


def weak_kam_solution(critical, v0):
    """Field v(x) = min over Aubry y of [v0(y) + S(y,x)], an (n,) array.

    v0 is the trace: an array aligned with critical.aubry_nodes, or anything
    that broadcasts to one (a scalar gives a constant trace).  The trace
    must satisfy v0(y) - v0(y') <= S(y', y); otherwise the min formula
    cannot reproduce it and IncompatibleTrace is raised (up to COMPAT_TOL
    relative to the trace).
    """
    nodes = critical.aubry_nodes
    t = np.broadcast_to(np.asarray(v0, dtype=float), nodes.shape)
    scale = 1.0 + float(np.max(np.abs(t)))
    S_from = _distances_from(critical)
    # bad[r, s]: v0(y_s) - v0(z_r) exceeds S(z_r, y_s)
    bad = t[None, :] - t[:, None] > S_from[:, nodes] + COMPAT_TOL * scale
    if bad.any():
        r, s = np.argwhere(bad)[0]
        z, y = nodes[r], nodes[s]
        raise IncompatibleTrace(
            f"v0({y}) - v0({z}) = {t[s] - t[r]:.6g} exceeds "
            f"S({z},{y}) = {S_from[r, y]:.6g}")
    return np.min(t[:, None] + S_from, axis=0, initial=np.inf)


# ---------------------------------------------------------------------------
# subsolution utilities
# ---------------------------------------------------------------------------

def is_subsolution(u, model, grid, velocity_set, a, slack, transition):
    """Discrete Fenchel-form check u(foot(i,q)) - u(i) <= h*(L(x_i,q) + a)
    for a field u, an (n,) array over the nodes.

    Runs over unclipped (i,q) pairs; returns (verdict, worst residual) where
    the residual is the largest violation before slack.
    """
    vals = np.asarray(u, dtype=float)
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    cont = interpolate(transition, vals)
    res = cont - vals[:, None] - grid.h * (L + a)
    mask = ~transition.clipped
    worst = float(np.max(res[mask])) if mask.any() else 0.0
    return worst <= slack, worst
