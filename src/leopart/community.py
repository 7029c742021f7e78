"""Cluster co-occurrence network and map-equation community detection.

Edges carry the minimum of the two conditional spatial-adjacency
probabilities between clusters. Communities are found by greedy local
moving (with module aggregation) minimizing the two-level map equation,
followed by a merge phase that enforces an exact community count. Nodes
without edges go to background.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor_io

DEFAULT_EDGE_THRESHOLD = 0.09
DEFAULT_MARKOV_TIME = 2.0
DEFAULT_DISTANCE = 1
BACKGROUND = -1


class CommunityError(RuntimeError):
    pass


@dataclass
class CoocGraph:
    """Undirected weighted graph over cluster ids 0..n-1.

    ``weights`` is symmetric with zero diagonal (no self-loops);
    ``node_counts`` holds total pixel counts per cluster.
    """

    weights: np.ndarray
    node_counts: np.ndarray

    def __post_init__(self) -> None:
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be square")
        if not np.allclose(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("no self-loops allowed")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("weights must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)


def cooccurrence_graph(cluster_maps: np.ndarray, k: int,
                       d: int = DEFAULT_DISTANCE) -> CoocGraph:
    """Build the co-occurrence network from (N, H, W) cluster-id grids.

    Per image, P_img(j|i) is the fraction of cluster-i pixels with a
    cluster-j pixel within Chebyshev distance d. P(j|i) averages P_img over
    the images where i appears; the edge weight is the minimum of the two
    directions.

    All maps are counted in one pass: each pixel's neighbourhood labels,
    sorted, give its distinct neighbours, and one sort of the (image, i, j)
    keys of all pixels counts seen_img(i, j), the cluster-i pixels of an
    image with a cluster-j pixel near. Every pixel is its own neighbour, so
    seen_img(i, i) is the image's cluster-i pixel count. The terms
    seen/count are then summed into P(j|i) in image order, the order of a
    per-image loop, so every float sum is that loop's to the bit.
    """
    if d < 1:
        raise ValueError("neighborhood distance must be >= 1")
    maps = np.asarray(cluster_maps, dtype=np.int64)
    if maps.size == 0:  # no maps, or maps without pixels
        return CoocGraph(weights=np.zeros((k, k)), node_counts=np.zeros(k, np.int64))
    if maps.ndim != 3:
        raise ValueError(f"cluster maps must be one (N, H, W) array, got shape {maps.shape}")
    if maps.min() < 0 or maps.max() >= k:
        raise ValueError(f"cluster ids must lie in [0, {k})")
    total_counts = np.bincount(maps.ravel(), minlength=k)
    # key (image * k + i) * k + j of each distinct (pixel, neighbour label) pair
    key_type = np.min_scalar_type(len(maps) * k * k)
    # label k pads the border, so it stands for "no cluster"
    stack = maps.astype(np.min_scalar_type(k))
    padded = np.pad(stack, [(0, 0), (d, d), (d, d)], constant_values=k)
    n, h, w = maps.shape
    near = np.stack([padded[:, dy:dy + h, dx:dx + w] for dy in range(2 * d + 1)
                     for dx in range(2 * d + 1)], axis=-1).reshape(stack.size, -1)
    near.sort(axis=1)  # each pixel's neighbourhood labels, ascending
    distinct = near < k
    distinct[:, 1:] &= near[:, 1:] != near[:, :-1]
    image = np.repeat(np.arange(n, dtype=key_type), h * w)
    pixel = (image * k + stack.ravel()) * k
    keys = np.repeat(pixel, distinct.sum(axis=1)) + near[distinct]
    keys, seen = np.unique(keys, return_counts=True)  # sorted, so image by image
    pair = keys % (k * k)  # i * k + j
    i, j = np.divmod(pair, k)
    count = seen[np.searchsorted(keys, keys - j + i)]  # seen_img(i, i)
    # bincount adds its weights in input order, so each (i, j) sum runs in image order
    cond_sum = np.bincount(pair, weights=seen / count, minlength=k * k).reshape(k, k)
    appearances = np.bincount(i[i == j], minlength=k)
    cond = cond_sum / np.maximum(appearances, 1)[:, None]
    w = np.minimum(cond, cond.T)
    np.fill_diagonal(w, 0.0)
    return CoocGraph(weights=w, node_counts=total_counts)


def filter_edges(graph: CoocGraph, threshold: float) -> CoocGraph:
    """Drop edges with weight below *threshold*."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [0, 1]")
    w = graph.weights.copy()
    w[w < threshold] = 0.0
    return CoocGraph(weights=w, node_counts=graph.node_counts.copy())


def disconnect(graph: CoocGraph, keep: np.ndarray) -> CoocGraph:
    """Drop every edge of the nodes where *keep* is False (e.g. background
    clusters), so that detection leaves them in the background."""
    w = graph.weights.copy()
    w[~keep, :] = 0.0
    w[:, ~keep] = 0.0
    return CoocGraph(weights=w, node_counts=graph.node_counts)


@dataclass
class Partition:
    """Community id per node (0-based); BACKGROUND marks unassigned nodes."""

    assignment: np.ndarray

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    @property
    def n_communities(self) -> int:
        assigned = self.assignment[self.assignment != BACKGROUND]
        return len(np.unique(assigned))

    def canonical(self) -> "Partition":
        """Relabel communities 0..M-1 in order of their smallest node id."""
        out = np.full_like(self.assignment, BACKGROUND)
        next_id = 0
        seen: dict[int, int] = {}
        for node, comm in enumerate(self.assignment):
            if comm == BACKGROUND:
                continue
            if comm not in seen:
                seen[int(comm)] = next_id
                next_id += 1
            out[node] = seen[int(comm)]
        return Partition(out)


def _plogp(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    out = x * np.log2(np.where(x > 0, x, 1.0))
    return out if out.ndim else float(out)


def _module_stats(weights: np.ndarray, p: np.ndarray, assignment: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_m, cut_m, community ids) for assigned nodes."""
    nodes = np.flatnonzero(assignment != BACKGROUND)
    comms, index = np.unique(assignment[nodes], return_inverse=True)
    module = np.full(len(assignment), -1)
    module[nodes] = index
    p_m = np.bincount(index, weights=p[nodes], minlength=len(comms))
    deg_m = np.bincount(index, weights=weights[nodes].sum(axis=1), minlength=len(comms))
    # both directions of each internal edge, so twice the internal weight
    i, j = np.nonzero(weights)
    inside = (module[i] == module[j]) & (module[i] >= 0)
    internal2 = np.bincount(module[i[inside]], weights=weights[i[inside], j[inside]],
                            minlength=len(comms))
    return p_m, deg_m - internal2, comms


def _map_equation_terms(p_m: np.ndarray, cut_m: np.ndarray, two_w: float,
                        markov_time: float, node_entropy_term: float) -> float:
    q_m = markov_time * cut_m / two_w
    q_tot = q_m.sum()
    p_circ = p_m + q_m
    return float(
        _plogp(q_tot) - 2.0 * _plogp(q_m).sum() + _plogp(p_circ).sum()
        - node_entropy_term
    )


def map_equation(graph: CoocGraph, partition: Partition,
                 markov_time: float = 1.0) -> float:
    """Two-level map-equation description length in bits.

    Node visit rates come from weighted degrees of the undirected walk;
    inter-module exit flows are scaled linearly by *markov_time*. Nodes with
    zero degree have visit rate zero and contribute nothing.
    """
    deg = graph.degrees()
    two_w = deg.sum()
    if two_w <= 0:
        return 0.0
    p = deg / two_w
    assignment = partition.assignment
    if len(assignment) != graph.n:
        raise ValueError("partition does not cover the graph's nodes")
    active = deg > 0
    if np.any(active & (assignment == BACKGROUND)):
        raise ValueError("partition leaves a connected node unassigned")
    p_m, cut_m, _ = _module_stats(graph.weights, p, assignment)
    return _map_equation_terms(p_m, cut_m, two_w, markov_time, _plogp(p).sum())


_TIE = 1e-12  # a candidate must beat the best so far by more than this


def _scan_best(deltas: np.ndarray, best: float | None = None) -> int:
    """Index that a left-to-right scan of *deltas* keeps, or -1.

    The scan takes a value only when it is below the best so far by more
    than ``_TIE``; with ``best=None`` it takes the first value outright.
    """
    idx, pos = -1, 0
    if best is None:
        idx, best, pos = 0, float(deltas[0]), 1
    while True:
        better = np.flatnonzero(deltas[pos:] < best - _TIE)
        if not len(better):
            return idx
        idx = pos + int(better[0])
        best, pos = float(deltas[idx]), idx + 1


class _LocalMover:
    """Greedy map-equation minimization over movable units of nodes.

    Module m keeps its visit rate P_m, degree sum D_m and internal weight
    I_m (summed over both edge directions), so its exit weight is
    cut_m = D_m - I_m and its exit flow q_m = t * cut_m / 2W. A move or a
    merge changes only the terms of the modules it touches and of the total
    exit flow, so every candidate is scored by that closed-form difference
    (Rosvall & Bergstrom 2008) instead of by recomputing the whole
    description length.
    """

    def __init__(self, graph: CoocGraph, markov_time: float, rng: np.random.Generator):
        self.w = graph.weights
        self.deg = graph.degrees()
        self.two_w = float(self.deg.sum())
        self.p = self.deg / self.two_w
        self.t = markov_time
        self.rng = rng
        self.active = np.flatnonzero(self.deg > 0)
        self.assignment = np.full(graph.n, BACKGROUND, dtype=np.int64)
        self.assignment[self.active] = np.arange(len(self.active))
        self.node_entropy = float(_plogp(self.p).sum())
        # splitting adds at most one module per active node
        n_ids = 2 * len(self.active)
        self.flow = np.zeros(n_ids)
        self.deg_sum = np.zeros(n_ids)
        self.internal = np.zeros(n_ids)
        self.size = np.zeros(n_ids, dtype=np.int64)
        self.flow[:len(self.active)] = self.p[self.active]
        self.deg_sum[:len(self.active)] = self.deg[self.active]
        self.size[:len(self.active)] = 1
        self.total_cut = float(self.deg_sum.sum())

    def _q(self, cut: np.ndarray | float) -> np.ndarray | float:
        return self.t * cut / self.two_w

    def _module_terms(self, flow, cut) -> np.ndarray | float:
        """A module's own terms of the description length: plogp(P + q) - 2 plogp(q)."""
        q = self._q(cut)
        return _plogp(flow + q) - 2.0 * _plogp(q)

    def level_bits(self) -> float:
        used = self.size > 0
        return _map_equation_terms(self.flow[used], (self.deg_sum - self.internal)[used],
                                   self.two_w, self.t, self.node_entropy)

    def _delta(self, d_cut_total, old_flow, old_cut, new_flow, new_cut) -> np.ndarray:
        """Description-length change when the touched modules go from the
        old (flow, cut) pairs to the new ones and the total cut changes by
        *d_cut_total*; each argument may be a tuple over touched modules."""
        before = self._q(self.total_cut)
        after = self._q(self.total_cut + d_cut_total)
        out = _plogp(after) - _plogp(before)
        for f, c in zip(old_flow, old_cut):
            out = out - self._module_terms(f, c)
        for f, c in zip(new_flow, new_cut):
            out = out + self._module_terms(f, c)
        return out

    def _unit(self, unit: np.ndarray) -> tuple[int, np.ndarray, float, float, float]:
        """(module of *unit*, its weight to every module, its visit rate,
        degree sum and internal weight)."""
        w_unit = self.w[unit].sum(axis=0)
        k_to = np.bincount(self.assignment[self.active], weights=w_unit[self.active],
                           minlength=len(self.flow))
        return (int(self.assignment[unit[0]]), k_to, float(self.p[unit].sum()),
                float(self.deg[unit].sum()), float(w_unit[unit].sum()))

    def _source_after(self, unit: np.ndarray, s: int, k_to: np.ndarray, p_u: float,
                      d_u: float, w_uu: float) -> tuple[float, float, float]:
        """(P, D, I) of module *s* once *unit* has left it."""
        if self.size[s] == len(unit):
            return 0.0, 0.0, 0.0
        return (self.flow[s] - p_u, self.deg_sum[s] - d_u,
                self.internal[s] - 2.0 * k_to[s] + w_uu)

    def move_deltas(self, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbouring modules of *unit*, in ascending id, and the change in
        description length of moving the unit into each."""
        s, k_to, p_u, d_u, w_uu = self._unit(unit)
        cands = np.flatnonzero(k_to > 0)
        cands = cands[cands != s]
        flow_s, deg_s, internal_s = self._source_after(unit, s, k_to, p_u, d_u, w_uu)
        cut_s = self.deg_sum[s] - self.internal[s]
        cut_s_new = deg_s - internal_s
        flow_t, cut_t = self.flow[cands], self.deg_sum[cands] - self.internal[cands]
        cut_t_new = cut_t + d_u - 2.0 * k_to[cands] - w_uu
        deltas = self._delta(cut_s_new - cut_s + cut_t_new - cut_t,
                             (self.flow[s], flow_t), (cut_s, cut_t),
                             (flow_s, flow_t + p_u), (cut_s_new, cut_t_new))
        return cands, deltas

    def _apply_move(self, unit: np.ndarray, target: int) -> None:
        s, k_to, p_u, d_u, w_uu = self._unit(unit)
        cut_before = (self.deg_sum[s] - self.internal[s]
                      + self.deg_sum[target] - self.internal[target])
        self.flow[s], self.deg_sum[s], self.internal[s] = self._source_after(
            unit, s, k_to, p_u, d_u, w_uu)
        self.size[s] -= len(unit)
        self.flow[target] += p_u
        self.deg_sum[target] += d_u
        self.internal[target] += 2.0 * k_to[target] + w_uu
        self.size[target] += len(unit)
        self.total_cut += (self.deg_sum[s] - self.internal[s]
                           + self.deg_sum[target] - self.internal[target]) - cut_before
        self.assignment[unit] = target

    def _try_unit_moves(self, units: list[np.ndarray]) -> bool:
        """One sweep moving whole units; returns True if anything moved."""
        moved = False
        order = self.rng.permutation(len(units))
        for ui in order:
            unit = units[ui]
            cands, deltas = self.move_deltas(unit)
            if not len(cands):
                continue
            best = _scan_best(deltas, 0.0)
            if best >= 0:
                self._apply_move(unit, int(cands[best]))
                moved = True
        return moved

    def run(self) -> None:
        improved = True
        while improved:
            improved = False
            # level 1: single-node moves to a local optimum
            units = [np.array([n]) for n in self.active]
            while self._try_unit_moves(units):
                improved = True
            # level 2: aggregated moves of whole communities
            comms = np.unique(self.assignment[self.active])
            units = [np.flatnonzero(self.assignment == m) for m in comms]
            while self._try_unit_moves(units):
                improved = True

    def _module_weights(self, comms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(node-to-module weights of the active nodes, module-to-module weights)."""
        member = (self.assignment[self.active][:, None] == comms[None, :]).astype(np.float64)
        to_module = self.w[np.ix_(self.active, self.active)] @ member
        return to_module, member.T @ to_module

    def merge_deltas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Module pairs (a, b), a < b, in row-major order, the weight between
        them and the change in description length of merging each pair."""
        comms = np.unique(self.assignment[self.active])
        _, between = self._module_weights(comms)
        ai, bi = np.triu_indices(len(comms), 1)
        a, b, w_ab = comms[ai], comms[bi], between[ai, bi]
        flow_a, flow_b = self.flow[a], self.flow[b]
        cut_a = self.deg_sum[a] - self.internal[a]
        cut_b = self.deg_sum[b] - self.internal[b]
        deltas = self._delta(-2.0 * w_ab, (flow_a, flow_b), (cut_a, cut_b),
                             (flow_a + flow_b,), (cut_a + cut_b - 2.0 * w_ab,))
        return a, b, w_ab, deltas

    def merge_to_target(self, target_m: int) -> None:
        while len(np.unique(self.assignment[self.active])) > target_m:
            a, b, w_ab, deltas = self.merge_deltas()
            best = _scan_best(deltas)
            a, b, w_ab = int(a[best]), int(b[best]), float(w_ab[best])
            self.flow[a] += self.flow[b]
            self.deg_sum[a] += self.deg_sum[b]
            self.internal[a] += self.internal[b] + 2.0 * w_ab
            self.size[a] += self.size[b]
            self.flow[b] = self.deg_sum[b] = self.internal[b] = 0.0
            self.size[b] = 0
            self.total_cut -= 2.0 * w_ab
            self.assignment[self.assignment == b] = a

    def split_deltas(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes of modules with two or more nodes, by module id and then
        node id, and the change in description length of moving each into
        a new, empty module."""
        comms = np.unique(self.assignment[self.active])
        to_module, _ = self._module_weights(comms)
        mod = self.assignment[self.active]
        rows = np.flatnonzero(self.size[mod] >= 2)
        rows = rows[np.argsort(mod[rows], kind="stable")]  # active nodes are ascending
        nodes, s = self.active[rows], mod[rows]
        k_s = to_module[rows, np.searchsorted(comms, s)]
        d = self.deg[nodes]
        cut_s = self.deg_sum[s] - self.internal[s]
        cut_s_new = cut_s - d + 2.0 * k_s
        deltas = self._delta(2.0 * k_s, (self.flow[s],), (cut_s,),
                             (self.flow[s] - self.p[nodes], self.p[nodes]),
                             (cut_s_new, d))
        return nodes, deltas

    def split_to_target(self, target_m: int) -> None:
        next_comm = int(self.assignment.max()) + 1
        while len(np.unique(self.assignment[self.active])) < target_m:
            nodes, deltas = self.split_deltas()
            if not len(nodes):
                raise CommunityError("cannot split further to reach the target count")
            self._apply_move(nodes[_scan_best(deltas)][None], next_comm)
            next_comm += 1


def detect_communities(graph: CoocGraph, target_m: int,
                       markov_time: float = DEFAULT_MARKOV_TIME,
                       seed: int = 0) -> Partition:
    """Greedy local-moving map-equation communities with an exact count.

    After local optimization, communities are merged (pair with the smallest
    description-length increase first) until exactly *target_m* remain.
    Zero-degree nodes are assigned to background.
    """
    deg = graph.degrees()
    n_active = int((deg > 0).sum())
    if n_active < target_m:
        raise CommunityError(
            f"only {n_active} nodes have edges; at most {n_active} communities "
            f"are achievable, requested {target_m}"
        )
    mover = _LocalMover(graph, markov_time, np.random.default_rng([seed, 29]))
    mover.run()
    mover.merge_to_target(target_m)
    mover.split_to_target(target_m)
    return Partition(mover.assignment).canonical()


def merge_by_communities(cluster_maps: np.ndarray, partition: Partition) -> np.ndarray:
    """Relabel (N, H, W) cluster maps to community labels; background
    becomes label 0.

    Community m maps to label m + 1 so that label 0 is reserved for
    background (unassigned or unseen cluster ids).
    """
    k = len(partition.assignment)
    lut = np.where(partition.assignment == BACKGROUND, -1, partition.assignment) + 1
    cm = np.asarray(cluster_maps, dtype=np.int64)
    unseen = cm >= k
    merged = lut[np.where(unseen, 0, cm)]
    merged[unseen] = 0
    return merged


# --------------------------------------------------------------------------
# text export / import

def write_graph(graph: CoocGraph, path: str | Path) -> None:
    lines = [f"nodes {graph.n}"]
    lines += [f"node {i} {int(graph.node_counts[i])}" for i in range(graph.n)]
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.weights[i, j] > 0:
                lines.append(f"{i} {j} {float(graph.weights[i, j])!r}")
    tensor_io.write_text(path, "\n".join(lines) + "\n")


def _content_lines(path: str | Path) -> list[tuple[str, list[str]]]:
    """("<path>: line <n>", fields) for each non-blank line of *path*."""
    lines = tensor_io.read_text(path).splitlines()
    return [(f"{path}: line {i}", ln.split()) for i, ln in enumerate(lines, start=1)
            if ln.strip()]


@contextmanager
def _named(where: str, fields: list[str]):
    """Re-raise a ValueError from parsing *fields* naming the file and line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}: {' '.join(fields)!r}") from None


def _node_id(text: str, n: int) -> int:
    node = int(text)
    if not 0 <= node < n:
        raise ValueError(f"node id {node} is out of range for {n} nodes")
    return node


def read_graph(path: str | Path) -> CoocGraph:
    """The graph of a :func:`write_graph` file. Every node needs its ``node``
    line, which bounds the header's node count before the dense weights are
    allocated. Raises ``ValueError`` naming the file (and line)."""
    lines = _content_lines(path)
    if not lines or lines[0][1][0] != "nodes":
        raise ValueError(f"{path}: missing node-count header")
    with _named(*lines[0]):
        _, n = lines[0][1]
        n = int(n)
    nodes, edges = [], []
    for where, fields in lines[1:]:
        with _named(where, fields):
            if fields[0] == "node":
                _, node, count = fields
                nodes.append((_node_id(node, n), int(count)))
            else:
                a, b, w = fields
                edges.append((_node_id(a, n), _node_id(b, n), float(w)))
    ids = {node for node, _ in nodes}
    if len(nodes) != n or len(ids) != n:
        raise ValueError(f"{path}: expected one node line for each of the {n} nodes, "
                         f"got {len(nodes)} lines for {len(ids)} nodes")
    weights, counts = np.zeros((n, n)), np.zeros(n, dtype=np.int64)
    for node, count in nodes:
        counts[node] = count
    for i, j, w in edges:
        weights[i, j] = weights[j, i] = w
    return CoocGraph(weights=weights, node_counts=counts)


def write_partition(partition: Partition, path: str | Path) -> None:
    lines = []
    for node, comm in enumerate(partition.assignment):
        lines.append(f"{node} {'bg' if comm == BACKGROUND else int(comm)}")
    tensor_io.write_text(path, "\n".join(lines) + "\n")


def read_partition(path: str | Path) -> Partition:
    lines = _content_lines(path)
    assignment = np.full(len(lines), BACKGROUND, dtype=np.int64)
    for where, fields in lines:
        with _named(where, fields):
            node, comm = fields
            if comm != "bg":
                assignment[_node_id(node, len(lines))] = int(comm)
    return Partition(assignment)
