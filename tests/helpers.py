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


def reachable_nodes(costs, transition, D0):
    """Boolean (T, n) fixed point of reachability, one node at a time: a
    node is reachable in row r when D0 holds a finite value there, or when
    some edge of finite cost that is not a self-loop (its own corner's
    weight below 1) has every corner of positive weight other than the node
    itself reachable."""
    T, n = D0.shape
    M, K = transition.idx.shape[1:]
    reach = np.asarray(D0) < BIG / 2
    for r in range(T):
        grew = True
        while grew:
            grew = False
            for i in range(n):
                if reach[r, i]:
                    continue
                for m in range(M):
                    if costs[i, m] >= BIG / 2:
                        continue
                    corners = [(int(transition.idx[i, m, k]), transition.w[i, m, k])
                               for k in range(K)]
                    if sum(w for j, w in corners if j == i) >= 1.0:
                        continue
                    if all(reach[r, j] for j, w in corners if j != i and w > 0):
                        reach[r, i] = grew = True
                        break
    return reach


def relax_batch_extended(costs, transition, D0):
    """`critical.relax_batch` as full Jacobi sweeps over every node and row
    at once: BIG becomes +inf, each step takes (c + rest) / (1 - w_s) with
    the corner terms summed in corner order, and self-loops and edges of
    cost BIG are left out.  Same cap and NegativeCycle verdict; returns
    (D, sweeps) with BIG for unreachable."""
    from weakkam.critical import NEG_TOL
    from weakkam.errors import NegativeCycle
    D = np.array(D0, dtype=float)
    D[D >= BIG] = np.inf
    n = D.shape[1]
    max_sweeps = 2 * n + 64
    idx, w = transition.idx, transition.w
    own = idx == np.arange(n)[:, None, None]
    w_self = np.where(own, w, 0.0).sum(axis=2)
    loop = w_self >= 1.0
    inv = 1.0 / (1.0 - np.where(loop, 0.0, w_self))
    c = np.where(loop | (costs >= BIG), np.inf, costs)
    w_rest = np.where(own, 0.0, w)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        # a corner of zero weight adds 0, never 0 * inf
        terms = np.where(w_rest > 0.0, D[:, idx], 0.0) * w_rest
        rest = terms[..., 0]
        for k in range(1, terms.shape[-1]):
            rest = rest + terms[..., k]
        cand = np.min((rest + c) * inv, axis=2)
        new = np.minimum(D, cand)
        lower = new < D
        improvement = float(np.max(D[lower] - new[lower])) if lower.any() else 0.0
        D = new
        if improvement <= 0.0:
            break
    finite = D[np.isfinite(D)]
    D[np.isinf(D)] = BIG
    if improvement > 0.0:
        scale = 1.0 + float(np.max(np.abs(finite))) if finite.size else 1.0
        if improvement > NEG_TOL * scale:
            raise NegativeCycle(
                f"min-plus relaxation still improving by {improvement:.3e} after {sweeps} sweeps")
    return D, sweeps


def relax_batch_unsliced(costs, transition, D0):
    """`critical.relax_batch` before its sweeps were sliced: the edge table
    is built from full (n, M, K) sorted copies, and each sweep gathers
    every active node at once.  Same blocks of CHUNK rows, active sets,
    cap and NegativeCycle verdict; returns (D, sweeps)."""
    from weakkam.critical import CHUNK, NEG_TOL
    from weakkam.errors import NegativeCycle
    D = np.array(D0, dtype=float)
    T, n = D.shape
    max_sweeps = 2 * n + 64
    idx = transition.idx
    w_rest = np.where(idx == np.arange(n)[:, None, None], 0.0, transition.w)
    w_self = np.sum(transition.w - w_rest, axis=2)
    loop = w_self >= 1.0
    inv = 1.0 / (1.0 - np.where(loop, 0.0, w_self))
    usable = ~loop & (costs < BIG)
    c = np.where(usable, costs, np.inf)
    w_rest[~usable] = 0.0
    first = np.argsort(w_rest <= 0.0, axis=2, kind="stable")
    w_rest = np.take_along_axis(w_rest, first, axis=2)
    reads = np.where(w_rest > 0.0, np.take_along_axis(idx, first, axis=2), n)
    most = np.count_nonzero(w_rest, axis=2).max(axis=0)
    cols = np.argsort(-most, kind="stable")[:np.count_nonzero(most)]
    width = [np.count_nonzero(most > k) for k in range(idx.shape[2])]
    slots = [(reads[:, cols[:m], k], w_rest[:, cols[:m], k, None])
             for k, m in enumerate(width) if m]
    node_reads = np.concatenate([r for r, _ in slots], axis=1)
    c = c[:, cols, None]
    inv = inv[:, cols, None]
    D[D >= BIG] = np.inf
    sweeps = 0
    improvement = 0.0
    for t0 in range(0, T, CHUNK):
        Dn = np.zeros((n + 1, min(CHUNK, T - t0)))
        Dn[:n] = D[t0:t0 + CHUNK].T
        moved = np.zeros(n + 1, dtype=bool)
        moved[:n] = np.isfinite(Dn[:n]).any(axis=1)
        for sweep in range(1, max_sweeps + 1):
            act = np.flatnonzero(moved[node_reads].any(axis=1))
            if act.size == 0:
                drop = 0.0
                break
            r, wk = slots[0]
            rest = Dn[r[act]]
            rest *= wk[act]
            for r, wk in slots[1:]:
                term = Dn[r[act]]
                term *= wk[act]
                rest[:, :r.shape[1]] += term
            rest += c[act]
            rest *= inv[act]
            old = Dn[act]
            new = np.minimum(old, np.min(rest, axis=1))
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
    D[np.isinf(D)] = BIG
    if improvement <= 0.0:
        return D, sweeps
    scale = 1.0 + float(np.max(np.abs(D[D < BIG / 2]))) if np.any(D < BIG / 2) else 1.0
    if improvement > NEG_TOL * scale:
        raise NegativeCycle(
            f"min-plus relaxation still improving by {improvement:.3e} after {sweeps} sweeps")
    return D, sweeps


def policy_solve_full_band(transition, q, rhs, lam_h):
    """The block elimination of `discounted.policy_solve` (the path of 1D
    and of cyclic chains) with the whole (blocks, B, 3B) band formed by one
    bincount before the elimination."""
    from weakkam.discounted import MIN_BLOCK
    n = len(q)
    rows = np.arange(n)
    idx, w = transition.idx[rows, q], transition.w[rows, q]
    B = max(int(np.max(np.abs(idx - rows[:, None]))), MIN_BLOCK)
    nb = -(-n // B)
    at = rows[:, None] * (3 * B) + idx - (rows[:, None] // B - 1) * B
    band = np.bincount(at.ravel(), weights=-w.ravel(), minlength=nb * B * 3 * B)
    band = band.reshape(nb, B, 3 * B)
    band[:, np.arange(B), B + np.arange(B)] += 1.0
    band[:, np.arange(B), B + np.arange(B)] += lam_h
    b = np.zeros(nb * B)
    b[:n] = rhs
    b = b.reshape(nb, B)
    C = np.empty((nb, B, B))
    z = np.empty((nb, B))
    for r in range(nb):
        S, y = band[r, :, B:2 * B], b[r]
        if r:
            S = S - band[r, :, :B] @ C[r - 1]
            y = y - band[r, :, :B] @ z[r - 1]
        X = np.linalg.solve(S, np.column_stack([band[r, :, 2 * B:], y]))
        C[r], z[r] = X[:, :B], X[:, B]
    for r in range(nb - 2, -1, -1):
        z[r] -= C[r] @ z[r + 1]
    return z.reshape(-1)[:n]


def interp_weights_whole(grid, points):
    """`Grid.interp_weights` with the (npts, N) floors and fractions formed
    whole, each corner's weight as a product over the axes in axis order,
    and the weights divided into a new array."""
    from weakkam.grids import _SNAP
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, N = pts.shape
    t = (pts - grid.box[:, 0][None, :]) / grid.h
    base = np.floor(t + _SNAP).astype(int)
    for k in range(N):
        base[:, k] = np.clip(base[:, k], 0, grid.shape[k] - 2 if grid.shape[k] > 1 else 0)
    frac = np.clip(t - base, 0.0, 1.0)
    frac[np.abs(frac) < _SNAP] = 0.0
    frac[np.abs(frac - 1.0) < _SNAP] = 1.0
    K = 1 << N
    idx = np.zeros((n, K), dtype=np.int64)
    w = np.ones((n, K))
    strides = np.ones(N, dtype=np.int64)
    for k in range(N - 2, -1, -1):
        strides[k] = strides[k + 1] * grid.shape[k + 1]
    flat_base = base @ strides
    for corner in range(K):
        offset = 0
        wc = np.ones(n)
        for k in range(N):
            bit = (corner >> (N - 1 - k)) & 1
            offset += bit * strides[k]
            wc *= frac[:, k] if bit else (1.0 - frac[:, k])
        idx[:, corner] = flat_base + offset
        w[:, corner] = wc
    return idx, w / w.sum(axis=1, keepdims=True)


def transition_whole(grid, velocity_set):
    """(feet, clipped, idx, w) of `grids.build_transition`, with the
    unclipped feet kept beside the clipped ones and the weights from
    `interp_weights_whole`."""
    pts = grid.coords
    V = velocity_set.vectors
    n, N = pts.shape
    M = len(V)
    feet_raw = pts[:, None, :] + grid.h * V[None, :, :]
    feet = np.clip(feet_raw, grid.box[:, 0][None, None, :], grid.box[:, 1][None, None, :])
    clipped = np.any(np.abs(feet - feet_raw) > 1e-12, axis=2)
    idx, w = interp_weights_whole(grid, feet.reshape(n * M, N))
    K = idx.shape[1]
    return feet, clipped, idx.reshape(n, M, K), w.reshape(n, M, K)


def interpolate_gathered(transition, values):
    """`grids.interpolate` with the (n, M, 2^N) gather and its product with
    the weights formed whole, then summed over the corners."""
    v = np.asarray(values, dtype=float)
    return np.sum(transition.w * v[transition.idx], axis=2)


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


def dense_lp_matrix(problem, lam=None):
    """The constraint matrix of an ergodic or discounted LPProblem
    (the last built with discount `lam`), built densely from its transition
    by accumulating each (i, q) column's out-entry and interpolation weights
    with np.add.at; column i*M + q is the pair (i, q)."""
    tr = problem.transition
    n = tr.grid.num_nodes
    M = tr.velocity_set.size
    K = tr.idx.shape[2]
    factor = 1.0
    if problem.kind == "discounted":
        factor += lam * tr.grid.h
    cols = np.arange(n * M)
    A = np.zeros((n, n * M))
    np.add.at(A, (cols // M, cols), factor)
    idx = tr.idx.reshape(n * M, K)
    w = tr.w.reshape(n * M, K)
    for k in range(K):
        np.add.at(A, (idx[:, k], cols), -w[:, k])
    if problem.kind == "discounted":
        return A
    # the last balance row is left out (it is implied by the others)
    return np.vstack([A[:-1], np.ones((1, n * M))])


def make_asymmetric_sampled(grid, offset=0.3, p_span=3.0, p_count=121):
    """Tabulated H(x,p) = |p + offset| - x^2/2: convex, coercive, and with a
    genuinely asymmetric support function (negative edge costs appear)."""
    from weakkam.models import SampledTable, make_model
    pg = np.linspace(-p_span, p_span, p_count)
    f = 0.5 * grid.coords[:, 0] ** 2
    vals = np.abs(pg[None, :] + offset) - f[:, None]
    table = SampledTable(x_coords=grid.coords[:, 0].copy(), p_grid=pg, values=vals)
    return make_model("sampled", sampled=table)


def mather_set_loop(nodes, grid):
    """`limits.mather_set` with one dilation step per node, in coordinates."""
    pts = grid.coords
    near = np.zeros(grid.num_nodes, dtype=bool)
    for i in sorted(set(int(i) for i in nodes)):
        near |= np.max(np.abs(pts - pts[i]), axis=1) <= grid.h * (1.0 + 1e-9)
    return np.nonzero(near)[0]
