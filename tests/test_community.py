"""Co-occurrence graph oracles and hand-computed map-equation values."""

import copy
import re

import numpy as np
import pytest

from leopart import cluster_eval, community, pipeline, synth


def two_node_graph(w=0.5):
    weights = np.array([[0.0, w], [w, 0.0]])
    return community.CoocGraph(weights=weights, node_counts=np.array([1, 1]))


def two_triangles_graph():
    """Two disjoint 3-cliques with unit edges (nodes 0-2 and 3-5)."""
    w = np.zeros((6, 6))
    for block in (range(0, 3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    w[i, j] = 1.0
    return community.CoocGraph(weights=w, node_counts=np.ones(6, dtype=np.int64))


# ---------------------------------------------------------------- graph


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        community.CoocGraph(np.array([[0.0, 0.5], [0.2, 0.0]]), np.ones(2))
    with pytest.raises(ValueError, match="self-loops"):
        community.CoocGraph(np.array([[0.1, 0.0], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(ValueError, match="weights"):
        community.CoocGraph(np.array([[0.0, 1.5], [1.5, 0.0]]), np.ones(2))


def test_cooccurrence_halves_oracle():
    """Left half cluster 0, right half cluster 1 on a 4x4 grid.

    With d=1, exactly the two middle columns see the other cluster:
    P(1|0) = P(0|1) = 4/8 = 0.5.
    """
    cm = np.zeros((4, 4), dtype=np.int64)
    cm[:, 2:] = 1
    graph = community.cooccurrence_graph([cm], k=2, d=1)
    assert graph.weights[0, 1] == pytest.approx(0.5)
    assert list(graph.node_counts) == [8, 8]


def test_cooccurrence_asymmetric_conditionals_take_min():
    """A single 0-pixel in a field of 1s: P(1|0)=1, P(0|1)=3/24."""
    cm = np.ones((5, 5), dtype=np.int64)
    cm[0, 0] = 0
    graph = community.cooccurrence_graph([cm], k=2, d=1)
    assert graph.weights[0, 1] == pytest.approx(3 / 24)


def test_cooccurrence_averages_over_images_where_node_appears():
    adjacent = np.array([[0, 1], [0, 1]])
    only_ones = np.ones((2, 2), dtype=np.int64)
    # P(1|0) is averaged over the single image containing 0, so it stays 1;
    # P(0|1) averages 1.0 and 0.0 over the two images containing 1.
    graph = community.cooccurrence_graph([adjacent, only_ones], k=2, d=1)
    assert graph.weights[0, 1] == pytest.approx(0.5)


def test_cooccurrence_larger_distance_reaches_farther():
    cm = np.array([[0, 2, 2, 2, 1]])
    near = community.cooccurrence_graph([cm], k=3, d=1)
    far = community.cooccurrence_graph([cm], k=3, d=4)
    assert near.weights[0, 1] == 0.0
    assert far.weights[0, 1] > 0.0


def reference_cooccurrence_graph(cluster_maps, k, d=1):
    """The per-image loop (oracle): cooccurrence_graph must give its weights
    and node counts bit for bit."""
    cond_sum = np.zeros((k, k))
    appearances = np.zeros(k)
    total_counts = np.zeros(k, dtype=np.int64)
    offsets = [(dy, dx) for dy in range(2 * d + 1) for dx in range(2 * d + 1)]
    for cm in cluster_maps:
        cm = np.asarray(cm, dtype=np.int64)
        h, w = cm.shape
        counts = np.bincount(cm.ravel(), minlength=k)
        total_counts += counts
        appearances[counts > 0] += 1
        padded = np.pad(cm, d, constant_values=k)
        near = np.stack([padded[dy:dy + h, dx:dx + w].ravel() for dy, dx in offsets])
        pairs = np.unique(np.arange(h * w) * (k + 1) + near)
        pixel, label = np.divmod(pairs, k + 1)
        real = label < k
        seen = np.bincount(cm.ravel()[pixel[real]] * k + label[real],
                           minlength=k * k).reshape(k, k)
        with np.errstate(invalid="ignore"):
            cond_sum += np.where(counts[:, None] > 0, seen / np.maximum(counts, 1)[:, None], 0.0)
    with np.errstate(invalid="ignore"):
        cond = cond_sum / np.maximum(appearances, 1)[:, None]
    w = np.minimum(cond, cond.T)
    np.fill_diagonal(w, 0.0)
    return community.CoocGraph(weights=w, node_counts=total_counts)


def assert_cooccurrence_matches_reference(maps, k, d):
    got = community.cooccurrence_graph(maps, k, d=d)
    want = reference_cooccurrence_graph(maps, k, d=d)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.node_counts, want.node_counts)
    assert got.node_counts.dtype == want.node_counts.dtype


@pytest.mark.parametrize("d", [1, 2])
def test_cooccurrence_matches_per_image_loop(d):
    """One map shape per trial (1-pixel and 1-row maps too), clusters absent
    from every map and from some, few and many clusters, and no maps at all."""
    rng = np.random.default_rng(d)
    for _ in range(150):
        k = int(rng.integers(1, 40))
        used = int(rng.integers(1, k + 1))  # ids >= used never appear
        shape = (int(rng.integers(0, 7)), int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        maps = rng.integers(0, used, size=shape).astype(rng.choice([np.uint16, np.int64]))
        assert_cooccurrence_matches_reference(maps, k, d)


def test_cooccurrence_matches_per_image_loop_at_k150(tmp_path):
    """The maps of the k = 150 CLI walkthrough on the default data."""
    manifest, _ = synth.generate(synth.SynthSpec(seed=0), tmp_path)
    maps, _ = cluster_eval.cluster_maps_for(pipeline.load_dataset(manifest).features, 150,
                                            seed=0)
    for d in (1, 2):
        assert_cooccurrence_matches_reference(maps, 150, d)


def test_cooccurrence_of_no_maps_is_empty():
    for maps in ([], np.zeros((0, 4, 4), np.uint16)):
        graph = community.cooccurrence_graph(maps, 3)
        assert np.array_equal(graph.weights, np.zeros((3, 3)))
        assert graph.node_counts.tolist() == [0, 0, 0]


@pytest.mark.parametrize("bad", [-1, 4])
def test_cooccurrence_rejects_out_of_range_ids(bad):
    maps = [np.zeros((2, 2), dtype=np.int64), np.full((2, 2), bad)]
    with pytest.raises(ValueError, match=re.escape("cluster ids must lie in [0, 4)")):
        community.cooccurrence_graph(maps, 4)


@pytest.mark.parametrize("maps", [
    [np.zeros((2, 2), np.int64), np.zeros((3, 1), np.int64)],  # ragged
    np.zeros((2, 2), np.int64),  # one map, not a stack of maps
], ids=["ragged", "one_map"])
def test_cooccurrence_rejects_maps_that_are_not_one_stack(maps):
    with pytest.raises(ValueError, match=r"inhomogeneous|\(N, H, W\)"):
        community.cooccurrence_graph(maps, 4)


def test_filter_edges():
    graph = two_node_graph(w=0.08)
    kept = community.filter_edges(graph, 0.05)
    dropped = community.filter_edges(graph, community.DEFAULT_EDGE_THRESHOLD)
    assert kept.weights[0, 1] == 0.08
    assert dropped.weights[0, 1] == 0.0


# ---------------------------------------------------------------- map equation


def test_map_equation_two_nodes_one_module():
    """Single module, no exits: L = -sum p_i log2 p_i = 1 bit."""
    graph = two_node_graph()
    val = community.map_equation(graph, community.Partition([0, 0]), markov_time=1.0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_map_equation_two_nodes_singletons():
    """Each step exits its module: hand value is 3 bits at unit Markov time."""
    graph = two_node_graph()
    val = community.map_equation(graph, community.Partition([0, 1]), markov_time=1.0)
    assert val == pytest.approx(3.0, abs=1e-9)


def test_map_equation_two_nodes_singletons_markov_time_two():
    # q_m = 1 each, q_tot = 2, p_circ = 3/2:
    # L = 2 log2 2 - 0 + 2 * (3/2) log2(3/2) + 1
    expected = 2.0 + 3.0 * np.log2(1.5) + 1.0
    graph = two_node_graph()
    val = community.map_equation(graph, community.Partition([0, 1]), markov_time=2.0)
    assert val == pytest.approx(expected, abs=1e-9)


def test_map_equation_two_triangles_closed_form():
    """Disjoint cliques in their own modules: L = log2(6) - 1 bits."""
    graph = two_triangles_graph()
    part = community.Partition([0, 0, 0, 1, 1, 1])
    val = community.map_equation(graph, part, markov_time=1.0)
    assert val == pytest.approx(np.log2(6) - 1.0, abs=1e-9)


def test_map_equation_scale_invariant_in_edge_weights():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.4
    w[2, 3] = w[3, 2] = 0.4
    w[1, 2] = w[2, 1] = 0.1
    a = community.CoocGraph(w, np.ones(4))
    b = community.CoocGraph(w / 2, np.ones(4))
    part = community.Partition([0, 0, 1, 1])
    assert community.map_equation(a, part) == pytest.approx(
        community.map_equation(b, part), abs=1e-12)


def test_map_equation_rejects_unassigned_connected_node():
    graph = two_node_graph()
    with pytest.raises(ValueError, match="unassigned"):
        community.map_equation(graph, community.Partition([0, community.BACKGROUND]))
    with pytest.raises(ValueError, match="cover"):
        community.map_equation(graph, community.Partition([0]))


def test_map_equation_ignores_zero_degree_nodes():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.5
    graph = community.CoocGraph(w, np.ones(3))
    part = community.Partition([0, 0, community.BACKGROUND])
    assert community.map_equation(graph, part) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- detection


def test_detect_recovers_two_triangles():
    graph = two_triangles_graph()
    part = community.detect_communities(graph, target_m=2, seed=0)
    assert part.n_communities == 2
    assert len(set(part.assignment[:3])) == 1
    assert len(set(part.assignment[3:])) == 1
    assert part.assignment[0] != part.assignment[3]
    # canonical labels: community of node 0 is 0
    assert part.assignment[0] == 0


def test_detect_recovers_planted_three_blocks():
    rng = np.random.default_rng(0)
    n, block = 12, 4
    w = np.zeros((n, n))
    for b in range(3):
        ix = slice(b * block, (b + 1) * block)
        sub = rng.uniform(0.5, 0.9, size=(block, block))
        sub = (sub + sub.T) / 2
        np.fill_diagonal(sub, 0.0)
        w[ix, ix] = sub
    graph = community.CoocGraph(w, np.ones(n))
    part = community.detect_communities(graph, target_m=3, seed=1)
    truth = np.repeat(np.arange(3), block)
    for b in range(3):
        assert len(set(part.assignment[truth == b])) == 1
    assert part.n_communities == 3


def test_detected_partition_beats_balanced_random_split():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = 10
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = (w + w.T) / 2
        w[w < 0.5] = 0.0
        np.fill_diagonal(w, 0.0)
        if np.any(w.sum(axis=1) == 0):
            continue
        graph = community.CoocGraph(w, np.ones(n))
        part = community.detect_communities(graph, target_m=2, seed=trial)
        detected = community.map_equation(graph, part, community.DEFAULT_MARKOV_TIME)
        random_part = community.Partition(rng.permutation(np.arange(n) % 2))
        baseline = community.map_equation(graph, random_part,
                                          community.DEFAULT_MARKOV_TIME)
        assert detected <= baseline + 1e-9


def test_detect_exact_target_count_even_when_structure_disagrees():
    graph = two_triangles_graph()
    part = community.detect_communities(graph, target_m=1, seed=0)
    assert part.n_communities == 1
    part = community.detect_communities(graph, target_m=4, seed=0)
    assert part.n_communities == 4


def test_detect_sends_isolated_nodes_to_background():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.6
    graph = community.CoocGraph(w, np.ones(4))
    part = community.detect_communities(graph, target_m=1, seed=0)
    assert part.assignment[2] == community.BACKGROUND
    assert part.assignment[3] == community.BACKGROUND
    assert part.assignment[0] == part.assignment[1] == 0


def test_detect_rejects_unreachable_target():
    graph = two_node_graph()
    with pytest.raises(community.CommunityError):
        community.detect_communities(graph, target_m=3)


def test_detect_is_deterministic():
    graph = two_triangles_graph()
    a = community.detect_communities(graph, target_m=2, seed=5)
    b = community.detect_communities(graph, target_m=2, seed=5)
    assert np.array_equal(a.assignment, b.assignment)


# ---------------------------------------------------------------- reference mover


def reference_module_stats(weights, p, assignment):
    """Per-module loop over node masks: the oracle for community._module_stats."""
    comms = np.unique(assignment[assignment != community.BACKGROUND])
    p_m = np.zeros(len(comms))
    cut_m = np.zeros(len(comms))
    deg = weights.sum(axis=1)
    for idx, m in enumerate(comms):
        members = assignment == m
        p_m[idx] = p[members].sum()
        internal = weights[np.ix_(members, members)].sum() / 2.0
        cut_m[idx] = deg[members].sum() - 2.0 * internal
    return p_m, cut_m, comms


def reference_map_equation(graph, partition, markov_time):
    deg = graph.degrees()
    p = deg / deg.sum()
    p_m, cut_m, _ = reference_module_stats(graph.weights, p, partition.assignment)
    return community._map_equation_terms(p_m, cut_m, deg.sum(), markov_time,
                                         community._plogp(p).sum())


@pytest.mark.parametrize("seed", range(20))
def test_map_equation_matches_module_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 160))
    graph = planted_graph(n, int(rng.integers(1, 8)), seed) if seed % 2 else random_graph(n, seed)
    deg = graph.degrees()
    for _ in range(5):
        assignment = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        assignment[deg == 0] = rng.choice([community.BACKGROUND, 0], size=int((deg == 0).sum()))
        part = community.Partition(assignment)
        t = float(rng.uniform(0.5, 2.0))
        got = community.map_equation(graph, part, t)
        want = reference_map_equation(graph, part, t)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        got_stats = community._module_stats(graph.weights, deg / deg.sum(), assignment)
        want_stats = reference_module_stats(graph.weights, deg / deg.sum(), assignment)
        assert np.array_equal(got_stats[2], want_stats[2])
        assert np.allclose(got_stats[0], want_stats[0], rtol=1e-12, atol=0.0)
        assert np.allclose(got_stats[1], want_stats[1], rtol=1e-12, atol=1e-12 * deg.sum())


class ReferenceMover:
    """Full-recompute local mover: the oracle for community._LocalMover.

    Every candidate move, merge and split is scored by recomputing the whole
    two-level description length, with the same random draws, scan order
    and tie rule as the incremental mover.
    """

    def __init__(self, graph, markov_time, rng):
        self.w = graph.weights
        self.deg = graph.degrees()
        self.two_w = float(self.deg.sum())
        self.p = self.deg / self.two_w
        self.t = markov_time
        self.rng = rng
        self.active = np.flatnonzero(self.deg > 0)
        self.assignment = np.full(graph.n, community.BACKGROUND, dtype=np.int64)
        self.assignment[self.active] = np.arange(len(self.active))
        self.node_entropy = float(community._plogp(self.p).sum())

    def level_bits(self):
        p_m, cut_m, _ = reference_module_stats(self.w, self.p, self.assignment)
        return community._map_equation_terms(p_m, cut_m, self.two_w, self.t,
                                             self.node_entropy)

    def _try_unit_moves(self, units):
        moved = False
        order = self.rng.permutation(len(units))
        for ui in order:
            unit = units[ui]
            current = int(self.assignment[unit[0]])
            w_unit = self.w[unit].sum(axis=0)
            comm_of = self.assignment
            neighbor_comms = np.unique(
                comm_of[(w_unit > 0) & (comm_of != community.BACKGROUND)])
            candidates = [int(c) for c in neighbor_comms if c != current]
            if not candidates:
                continue
            best_bits = self.level_bits()
            best_comm = current
            for cand in candidates:
                self.assignment[unit] = cand
                bits = self.level_bits()
                if bits < best_bits - 1e-12:
                    best_bits = bits
                    best_comm = cand
            self.assignment[unit] = best_comm
            if best_comm != current:
                moved = True
        return moved

    def run(self):
        improved = True
        while improved:
            improved = False
            units = [np.array([n]) for n in self.active]
            while self._try_unit_moves(units):
                improved = True
            comms = np.unique(self.assignment[self.active])
            units = [np.flatnonzero(self.assignment == m) for m in comms]
            while self._try_unit_moves(units):
                improved = True

    def merge_to_target(self, target_m):
        while True:
            comms = np.unique(self.assignment[self.active])
            if len(comms) <= target_m:
                break
            best = None
            for ai in range(len(comms)):
                for bi in range(ai + 1, len(comms)):
                    saved = self.assignment.copy()
                    self.assignment[self.assignment == comms[bi]] = comms[ai]
                    bits = self.level_bits()
                    self.assignment = saved
                    if best is None or bits < best[0] - 1e-12:
                        best = (bits, comms[ai], comms[bi])
            self.assignment[self.assignment == best[2]] = best[1]

    def split_to_target(self, target_m):
        next_comm = int(self.assignment.max()) + 1
        while True:
            comms, sizes = np.unique(self.assignment[self.active], return_counts=True)
            if len(comms) >= target_m:
                break
            best = None
            for m, size in zip(comms, sizes):
                if size < 2:
                    continue
                for node in np.flatnonzero(self.assignment == m):
                    saved = int(self.assignment[node])
                    self.assignment[node] = next_comm
                    bits = self.level_bits()
                    self.assignment[node] = saved
                    if best is None or bits < best[0] - 1e-12:
                        best = (bits, int(node))
            if best is None:
                raise community.CommunityError("cannot split further")
            self.assignment[best[1]] = next_comm
            next_comm += 1


class CheckedMover(community._LocalMover):
    """The incremental mover, checking every delta it scores against the
    difference of two full map_equation evaluations."""

    def __init__(self, graph, markov_time, rng):
        super().__init__(graph, markov_time, rng)
        self.graph = graph
        self.checked = 0

    def _check(self, deltas, after_assignments):
        before = community.map_equation(self.graph, community.Partition(self.assignment),
                                        self.t)
        for delta, after in zip(deltas, after_assignments):
            full = community.map_equation(self.graph, community.Partition(after), self.t)
            assert delta == pytest.approx(full - before, abs=1e-9)
            self.checked += 1
        assert self.level_bits() == pytest.approx(before, abs=1e-9)

    def _moved(self, nodes, target):
        after = self.assignment.copy()
        after[nodes] = target
        return after

    def move_deltas(self, unit):
        cands, deltas = super().move_deltas(unit)
        self._check(deltas, (self._moved(unit, c) for c in cands))
        return cands, deltas

    def merge_deltas(self):
        a, b, w_ab, deltas = super().merge_deltas()
        self._check(deltas, (self._moved(self.assignment == bb, aa)
                             for aa, bb in zip(a, b)))
        return a, b, w_ab, deltas

    def split_deltas(self):
        nodes, deltas = super().split_deltas()
        new_id = self.assignment.max() + 1
        self._check(deltas, (self._moved(node, new_id) for node in nodes))
        return nodes, deltas


def planted_graph(n, n_blocks, seed, p_in=0.5, p_out=0.04):
    """Blocks of dense, heavy edges joined by sparse, light ones; the last
    node is isolated, as one cluster is in the k = 150 CLI graph."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) * n_blocks // n
    same = block[:, None] == block[None, :]
    keep = rng.uniform(size=(n, n)) < np.where(same, p_in, p_out)
    w = np.where(same, rng.uniform(0.3, 1.0, (n, n)), rng.uniform(0.09, 0.3, (n, n)))
    w = np.triu(w * keep, 1)
    w = w + w.T
    w[-1, :] = w[:, -1] = 0.0
    return community.CoocGraph(w, np.ones(n, dtype=np.int64))


def random_graph(n, seed, mean_degree=5):
    rng = np.random.default_rng(seed)
    keep = rng.uniform(size=(n, n)) < mean_degree / n
    w = np.triu(rng.uniform(0.09, 1.0, (n, n)) * keep, 1)
    return community.CoocGraph(w + w.T, np.ones(n, dtype=np.int64))


@pytest.fixture(scope="module")
def cli_k150_graph(tmp_path_factory):
    """The `cooc` graph of the k = 150 CLI walkthrough on the default data."""
    manifest, _ = synth.generate(synth.SynthSpec(seed=0), tmp_path_factory.mktemp("k150"))
    dataset = pipeline.load_dataset(manifest)
    maps, _ = cluster_eval.cluster_maps_for(dataset.features, 150, seed=0)
    graph = community.cooccurrence_graph(maps, 150)
    return community.filter_edges(graph, community.DEFAULT_EDGE_THRESHOLD)


def assert_mover_matches_reference(graph, seed, t):
    """Run the shared local phase, then merge down to one community and split
    up to three more than the local optimum; partitions and description
    lengths must match the reference at every step, and every delta the
    incremental mover scores must match two full map_equation runs."""
    ref = ReferenceMover(graph, t, np.random.default_rng([seed, 29]))
    new = CheckedMover(graph, t, np.random.default_rng([seed, 29]))
    ref.run()
    new.run()
    assert np.array_equal(new.assignment, ref.assignment)
    local = len(np.unique(ref.assignment[ref.active]))
    assert 1 < local <= len(ref.active) - 3
    for target in (1, local + 3):
        r, m = copy.deepcopy(ref), copy.deepcopy(new)
        for mover in (r, m):
            mover.merge_to_target(target)
            mover.split_to_target(target)
        assert np.array_equal(m.assignment, r.assignment)
        got = community.map_equation(graph, community.Partition(m.assignment), t)
        want = community.map_equation(graph, community.Partition(r.assignment), t)
        assert got == pytest.approx(want, abs=1e-9)
    return new


def test_detect_matches_reference_on_cli_k150_graph(cli_k150_graph):
    graph = cli_k150_graph
    assert int((graph.degrees() > 0).sum()) == 149
    part = community.detect_communities(graph, target_m=7, seed=0)
    ref = ReferenceMover(graph, community.DEFAULT_MARKOV_TIME, np.random.default_rng([0, 29]))
    ref.run()
    ref.merge_to_target(7)
    ref.split_to_target(7)
    assert np.array_equal(part.assignment,
                          community.Partition(ref.assignment).canonical().assignment)
    assert community.map_equation(graph, part) == pytest.approx(
        ref.level_bits(), abs=1e-9)


@pytest.mark.parametrize("n", [20, 50, 100, 150])
@pytest.mark.parametrize("kind", ["planted", "random"])
def test_mover_matches_reference(kind, n):
    # uniform random graphs form a single module at the default Markov time
    if kind == "planted":
        mover = assert_mover_matches_reference(planted_graph(n, 5, seed=n), n, 2.0)
    else:
        mover = assert_mover_matches_reference(random_graph(n, seed=n), n, 1.0)
    assert mover.checked > 0


# ---------------------------------------------------------------- merging


def test_merge_by_communities_labels():
    part = community.Partition([1, 0, community.BACKGROUND])
    maps = [np.array([[0, 1], [2, 0]])]
    merged = community.merge_by_communities(maps, part)
    # community m -> label m+1, background cluster -> 0
    assert np.array_equal(merged[0], np.array([[2, 1], [0, 2]]))


def test_merge_by_communities_unseen_cluster_ids():
    part = community.Partition([0])
    merged = community.merge_by_communities([np.array([[0, 5]])], part)
    assert np.array_equal(merged[0], np.array([[1, 0]]))


def test_partition_canonical_and_count():
    part = community.Partition([7, 7, 3, community.BACKGROUND, 3])
    canon = part.canonical()
    assert np.array_equal(canon.assignment,
                          np.array([0, 0, 1, community.BACKGROUND, 1]))
    assert canon.n_communities == 2


# ---------------------------------------------------------------- persistence


def test_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    w = rng.uniform(size=(5, 5))
    w = (w + w.T) / 2
    w[w < 0.4] = 0.0
    np.fill_diagonal(w, 0.0)
    graph = community.CoocGraph(w, rng.integers(1, 100, size=5))
    path = tmp_path / "graph.txt"
    community.write_graph(graph, path)
    back = community.read_graph(path)
    assert np.array_equal(back.weights, graph.weights)
    assert np.array_equal(back.node_counts, graph.node_counts)


def test_graph_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 0.5\n")
    with pytest.raises(ValueError, match="header"):
        community.read_graph(path)


@pytest.mark.parametrize("text, message", [
    ("nodes 3\n0 7 0.5\n", "line 2: node id 7 is out of range for 3 nodes"),
    ("nodes 3\n0 1\n", "line 2: not enough values"),
    ("nodes 3\nnode 3 10\n", "line 2: node id 3 is out of range"),
    ("nodes 3\n\n0 1 heavy\n", "line 3: could not convert"),
    ("nodes\n", "line 1: not enough values"),
])
def test_graph_read_names_the_malformed_line(tmp_path, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        community.read_graph(path)


@pytest.mark.parametrize("text, message", [
    ("nodes 100000000\n", "expected one node line for each of the 100000000 nodes, got 0 "),
    ("nodes 2\nnode 0 4\nnode 0 5\n", "expected .* 2 nodes, got 2 lines for 1 nodes"),
    ("nodes 2\nnode 0 4\nnode 1 5\nnode 1 5\n", "expected .* 2 nodes, got 3 lines"),
])
def test_graph_read_requires_one_node_line_per_node(tmp_path, text, message):
    """The header's node count is checked before the dense weights of that
    many nodes are allocated."""
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        community.read_graph(path)


@pytest.mark.parametrize("text, message", [
    ("0 1\n5 0\n", "line 2: node id 5 is out of range for 2 nodes"),
    ("0 1 2\n", "line 1: too many values"),
])
def test_partition_read_names_the_malformed_line(tmp_path, text, message):
    path = tmp_path / "part.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        community.read_partition(path)


def test_disconnect_drops_only_the_edges_of_dropped_nodes():
    w = np.array([[0, .5, .2], [.5, 0, .7], [.2, .7, 0]])
    graph = community.CoocGraph(w, np.array([3, 4, 5]))
    cut = community.disconnect(graph, np.array([True, False, True]))
    assert np.array_equal(cut.weights, [[0, 0, .2], [0, 0, 0], [.2, 0, 0]])
    assert np.array_equal(cut.node_counts, graph.node_counts)
    assert np.array_equal(graph.weights, w)


def test_partition_roundtrip(tmp_path):
    part = community.Partition([2, community.BACKGROUND, 0, 1])
    path = tmp_path / "part.txt"
    community.write_partition(part, path)
    back = community.read_partition(path)
    assert np.array_equal(back.assignment, part.assignment)
