"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production code paths: distances come from
exhaustive path enumeration, LP optima from basis enumeration or simple
cycle means, so agreement is evidence rather than tautology.
"""

import itertools

import numpy as np

BIG = 1e30


def relax_batch_jacobi(costs, transition, D0):
    """`critical.relax_batch` as plain Jacobi sweeps D <- min(D, min_q
    [c(i,q) + sum_k w(i,q,k) D(idx(i,q,k))]), the node's own weight
    included, so a self-weighted edge converges only geometrically.  Same
    cap (2n+64 sweeps) and NegativeCycle verdict; returns (D, sweeps)."""
    from weakkam.critical import NEG_TOL
    from weakkam.errors import NegativeCycle
    D = np.array(D0, dtype=float)
    n = D.shape[1]
    max_sweeps = 2 * n + 64
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        cont = np.einsum("bnmk,nmk->bnm", D[:, transition.idx], transition.w)
        new = np.minimum(D, np.min(costs[None, :, :] + cont, axis=2))
        improvement = float(np.max(D - new))
        D = new
        if improvement <= 0.0:
            return D, sweeps
    finite = D[D < BIG / 2]
    scale = 1.0 + float(np.max(np.abs(finite))) if finite.size else 1.0
    if improvement > NEG_TOL * scale:
        raise NegativeCycle(
            f"min-plus relaxation still improving by {improvement:.3e} after {sweeps} sweeps")
    return D, sweeps


def exact_successors(costs, transition):
    """(node, cost) successor lists; requires every foot to be an exact node
    hit (interpolation weight 1)."""
    n, M = costs.shape
    zero_m = transition.velocity_set.zero_index()
    succ = [[] for _ in range(n)]
    for i in range(n):
        for m in range(M):
            if m == zero_m or costs[i, m] >= BIG / 2:
                continue
            w = transition.w[i, m]
            k = int(np.argmax(w))
            assert abs(w[k] - 1.0) < 1e-12, "oracle needs exact node hits"
            succ[i].append((int(transition.idx[i, m, k]), float(costs[i, m])))
    return succ


def enumerate_paths_min_cost(costs, transition, source, max_depth=20):
    """Least path cost source -> every node over all edge sequences of
    length <= max_depth, by exhaustive depth-first enumeration."""
    succ = exact_successors(costs, transition)
    n = costs.shape[0]
    best = np.full(n, np.inf)
    best[source] = 0.0

    def walk(node, cost, depth):
        if cost < best[node]:
            best[node] = cost
        if depth == 0:
            return
        for j, c in succ[node]:
            walk(j, cost + c, depth - 1)

    walk(source, 0.0, max_depth)
    return best


def min_cycle_mean(costs, transition):
    """Minimum mean cost over self-loops and simple two-cycles (the extreme
    closed flows of an exact-hit line graph)."""
    n, M = costs.shape
    zero_m = transition.velocity_set.zero_index()
    best = np.inf
    for i in range(n):
        if costs[i, zero_m] < BIG / 2:
            best = min(best, costs[i, zero_m])
    succ = exact_successors(costs, transition)
    for i in range(n):
        for j, c_ij in succ[i]:
            for k, c_ji in succ[j]:
                if k == i:
                    best = min(best, 0.5 * (c_ij + c_ji))
    return best


def brute_force_lp(c, A, b, tol=1e-9):
    """Optimal value of min c.x, Ax=b, x>=0 by enumerating basis subsets."""
    m, n = A.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        try:
            x = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(x) < -tol:
            continue
        best = min(best, float(np.asarray(c)[list(cols)] @ x))
    return best


def dense_lp_matrix(problem):
    """The constraint matrix of an ergodic, discounted or Mather LPProblem,
    built densely from its transition by accumulating each (i, q) column's
    out-entry and interpolation weights with np.add.at."""
    meta = problem.meta
    tr = meta["transition"]
    active = problem.active
    n = tr.grid.num_nodes
    M = tr.velocity_set.size
    K = tr.idx.shape[2]
    factor = 1.0
    if problem.kind == "discounted":
        factor += meta["lambda"] * tr.grid.h
    cols = np.arange(len(active))
    A = np.zeros((n, len(active)))
    np.add.at(A, (active // M, cols), factor)
    idx = tr.idx.reshape(n * M, K)[active]
    w = tr.w.reshape(n * M, K)[active]
    for k in range(K):
        np.add.at(A, (idx[:, k], cols), -w[:, k])
    if problem.kind == "discounted":
        return A
    # the last balance row is left out (it is implied by the others)
    A = np.vstack([A[:-1], np.ones((1, len(active)))])
    if problem.kind == "ergodic":
        return A
    budget = np.append(problem.c[:len(active)], 1.0)
    return np.vstack([np.hstack([A, np.zeros((n, 1))]), budget])


def make_asymmetric_sampled(grid, offset=0.3, p_span=3.0, p_count=121):
    """Tabulated H(x,p) = |p + offset| - x^2/2: convex, coercive, and with a
    genuinely asymmetric support function (negative edge costs appear)."""
    from weakkam.models import SampledTable, make_model
    pg = np.linspace(-p_span, p_span, p_count)
    f = 0.5 * grid.coords[:, 0] ** 2
    vals = np.abs(pg[None, :] + offset) - f[:, None]
    table = SampledTable(x_coords=grid.coords[:, 0].copy(), p_grid=pg, values=vals)
    return make_model("sampled", sampled=table)


def maximal_trace_loop(critical, measures, sweeps=200, tol=1e-12):
    """`limits.maximal_trace` as a loop over per-node dicts: the marginals
    map node -> mass, the trace maps Aubry node -> value, and every min and
    pairing is a Python loop.  Returns the dict trace."""
    nodes = [int(z) for z in critical.aubry_nodes]
    S = dict(zip(nodes, critical.S_from))
    marginals = []
    for mu in measures:
        m = {}
        for i, q in zip(*np.nonzero(mu.mass)):
            m[int(i)] = m.get(int(i), 0.0) + float(mu.mass[i, q])
        marginals.append(m)
    t = {z: 0.0 for z in nodes}

    def field_at(i):
        return min(t[z] + float(S[z][i]) for z in nodes)

    scale = 1.0 + max(float(np.max(np.abs(S[z][np.isfinite(S[z])]))) for z in nodes)
    for _ in range(sweeps):
        change = 0.0
        for y in nodes:
            ceil = min((t[z] + float(S[z][y]) for z in nodes if z != y),
                       default=np.inf)
            for m in marginals:
                my = m.get(y, 0.0)
                if my > 1e-12:
                    rest = sum(mass * (t[i] if i in t else field_at(i))
                               for i, mass in m.items() if i != y)
                    ceil = min(ceil, -rest / my)
            if np.isfinite(ceil) and ceil > t[y]:
                change = max(change, ceil - t[y])
                t[y] = ceil
        if change <= tol * scale:
            break
    worst = 0.0
    for m in marginals:
        worst = max(worst, sum(mass * (t[i] if i in t else field_at(i))
                               for i, mass in m.items()))
    if worst > 0.0:
        for z in nodes:
            t[z] -= worst
    return t


def mather_set_loop(measures, grid, support_tol=1e-4):
    """`limits.mather_set` with a set of support nodes and one dilation
    step per node."""
    support = set()
    for mu in measures:
        support.update(int(i) for i, q in zip(*np.nonzero(mu.mass > support_tol)))
    pts = grid.coords
    near = np.zeros(grid.num_nodes, dtype=bool)
    for i in sorted(support):
        near |= np.max(np.abs(pts - pts[i]), axis=1) <= grid.h * (1.0 + 1e-9)
    return np.nonzero(near)[0]
