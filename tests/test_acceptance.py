"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines. The slow end-to-end criteria share one trained model via
module-scoped fixtures.
"""

import contextlib
import io
import itertools
import warnings

import numpy as np
import pytest

from leopart import (cbfe, cli, cluster_eval, community, crops, loss, model,
                     pipeline, sinkhorn, synth, training)


def verdict(n: int, ok: bool, desc: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}", flush=True)
    assert ok, f"criterion {n}: {desc}"


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


# --------------------------------------------------------------------- shared


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """The canonical planted dataset: 200 images, 10x10, 3 objects x 3 parts."""
    out = tmp_path_factory.mktemp("canonical")
    manifest, key = synth.generate(synth.SynthSpec(), out)
    return manifest, pipeline.load_dataset(manifest)


def _train(manifest, seed=0, epochs=40, fg="fg"):
    cfg = training.TrainConfig(
        epochs=epochs, batch_size=16, n_prototypes=8, queue_capacity=512,
        hidden_dim=64, out_dim=32, global_grid=5, local_grid=3, align_size=5,
        lr_head=1e-3, lr_encoder=1e-4, seed=seed, fg_masking=fg)
    ckpt, _ = training.train(manifest, cfg)
    return {k.removeprefix("student/"): v for k, v in ckpt.tensors.items()
            if k.startswith("student/")}


@pytest.fixture(scope="module")
def trained_params(canonical):
    manifest, _ = canonical
    return _train(manifest)


# ------------------------------------------------------------- 1: gradients


def test_criterion_01_gradient_suite():
    """Every analytic gradient of the batched training loss matches central
    finite differences in f64."""
    worst = 0.0
    for instance in range(3):
        rng = np.random.default_rng(100 + instance)
        dims = model.ModelDims(raw_dim=8, token_dim=8, hidden_dim=16,
                               out_dim=8, n_prototypes=5)
        student = model.init_params(dims, rng, dtype=np.float64)
        teacher = model.init_params(dims, rng, dtype=np.float64)
        boxes = [crops.CropBox(0.0, 0.0, 0.8, 0.8, kind="global"),
                 crops.CropBox(0.15, 0.1, 0.95, 0.9, kind="global"),
                 crops.CropBox(0.2, 0.25, 0.6, 0.65, kind="local"),
                 crops.CropBox(0.3, 0.2, 0.7, 0.6, kind="local")]
        n_img = 2  # two images with the same boxes, so per-image normalization is checked
        batch = loss.CropBatch(
            global_raw=rng.normal(size=(n_img, 2, 8, 3, 3)),
            local_raw=rng.normal(size=(n_img, 2, 8, 3, 3)),
            boxes=np.stack([loss.box_array(crops.box_matrix(boxes))] * n_img),
            masks=np.ones((n_img, 2, 3, 3), dtype=np.uint8))
        targets, _ = loss.compute_targets(batch, teacher, student["prototypes"],
                                          None, epsilon=0.05, n_iters=3)
        _, grads, _ = loss.loss_given_targets(batch, student, targets, tau=0.1, out_size=3)

        def scalar():
            val, _, _ = loss.loss_given_targets(batch, student, targets, tau=0.1, out_size=3)
            return val

        eps = 1e-6
        for name, p in student.items():
            fd = np.zeros_like(p)
            flat, fdflat = p.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = scalar()
                flat[i] = orig - eps
                dn = scalar()
                flat[i] = orig
                fdflat[i] = (up - dn) / (2 * eps)
            worst = max(worst, rel_err(grads[name], fd))
    verdict(1, worst <= 1e-4,
            f"analytic vs finite-difference gradients, worst rel err {worst:.2e}")


# -------------------------------------------------------------- 2: sinkhorn


def test_criterion_02_sinkhorn_suite():
    rng = np.random.default_rng(0)
    m, k = 256, 16
    z = rng.normal(size=(m, 32))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    c = rng.normal(size=(k, 32))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    out = sinkhorn.assign(sinkhorn.FeatureBatch.from_rows(z), c,
                          epsilon=0.05, n_iters=50)
    rows_ok = np.allclose(out.q.sum(axis=1), 1.0, atol=1e-6)
    cols_ok = np.allclose(out.plan_col_sums, m / k, rtol=0.01)

    # orthonormal square case: soft assignment recovers the permutation
    basis, _ = np.linalg.qr(rng.normal(size=(k, k)))
    perm = rng.permutation(k)
    out_sq = sinkhorn.assign(sinkhorn.FeatureBatch.from_rows(basis[perm]), basis,
                             epsilon=0.05, n_iters=50)
    reference = cluster_eval.hungarian(-(basis[perm] @ basis.T))
    perm_ok = np.array_equal(out_sq.q.argmax(axis=1), reference)
    verdict(2, rows_ok and cols_ok and perm_ok,
            "row sums 1, column sums M/K +/- 1%, permutation recovered")


# ------------------------------------------------------------- 3: alignment


def bilinear_oracle(src, box, out_h, out_w):
    """Direct scalar bilinear interpolation, clamped at edges."""
    x0, y0, x1, y1 = box
    h, w = src.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        for c in range(out_w):
            yy = (y0 + (r + 0.5) / out_h * (y1 - y0)) * h - 0.5
            xx = (x0 + (c + 0.5) / out_w * (x1 - x0)) * w - 0.5
            yy = min(max(yy, 0.0), h - 1.0)
            xx = min(max(xx, 0.0), w - 1.0)
            iy, ix = int(np.floor(yy)), int(np.floor(xx))
            iy2, ix2 = min(iy + 1, h - 1), min(ix + 1, w - 1)
            fy, fx = yy - iy, xx - ix
            out[r, c] = ((1 - fy) * (1 - fx) * src[iy, ix]
                         + (1 - fy) * fx * src[iy, ix2]
                         + fy * (1 - fx) * src[iy2, ix]
                         + fy * fx * src[iy2, ix2])
    return out


def test_criterion_03_alignment_suite():
    rng = np.random.default_rng(1)
    worst_fwd, worst_adj = 0.0, 0.0
    for _ in range(100):
        h, w = rng.integers(2, 10, size=2)
        out_h, out_w = rng.integers(1, 7, size=2)
        x0, y0 = rng.uniform(0, 0.6, size=2)
        box = (x0, y0, rng.uniform(x0 + 0.2, 1.0), rng.uniform(y0 + 0.2, 1.0))
        src = rng.normal(size=(h, w))
        got = crops.align(src, box, out_h, out_w)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(
            got - bilinear_oracle(src, box, out_h, out_w)))))

        x32 = rng.normal(size=(h, w)).astype(np.float32)
        g32 = rng.normal(size=(out_h, out_w)).astype(np.float32)
        lhs = float(np.sum(crops.align(x32, box, out_h, out_w).astype(np.float64)
                           * g32.astype(np.float64)))
        rhs = float(np.sum(x32.astype(np.float64)
                           * crops.align_backward(g32, box, h, w).astype(np.float64)))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    verdict(3, worst_fwd <= 1e-6 and worst_adj <= 1e-4,
            f"bilinear oracle (max abs {worst_fwd:.2e}), "
            f"adjoint identity (rel {worst_adj:.2e})")


# ------------------------------------------------------------- 4: hungarian


def test_criterion_04_hungarian_suite():
    rng = np.random.default_rng(2)
    ok = True
    for case in range(500):
        n = 6 if case % 2 == 0 else 7
        cost = rng.integers(0, 10, size=(n, n)).astype(np.float64)
        perms = np.array(list(itertools.permutations(range(n))))
        totals = cost[np.arange(n), perms].sum(axis=1)
        best = perms[np.argmin(totals)]  # lexicographically smallest optimum
        got = cluster_eval.hungarian(cost)
        ok = ok and np.array_equal(got, best)
    verdict(4, ok, "500 random 6x6/7x7 matrices match exhaustive search")


# ---------------------------------------------------------- 5: map equation


def test_criterion_05_map_equation_suite():
    # two-node graph: one module costs 1 bit, singletons cost 3 bits
    two = community.CoocGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    l_joined = community.map_equation(two, community.Partition([0, 0]))
    l_single = community.map_equation(two, community.Partition([0, 1]))
    hand_ok = (abs(l_joined - 1.0) < 1e-9 and abs(l_single - 3.0) < 1e-9)

    # two disjoint 3-cliques: the correct split costs log2(6) - 1,
    # lumping everything into one module costs log2(6)
    clique = np.ones((3, 3)) - np.eye(3)
    w = np.zeros((6, 6))
    w[:3, :3] = clique
    w[3:, 3:] = clique
    cliques = community.CoocGraph(w, np.ones(6))
    l_split = community.map_equation(cliques, community.Partition([0] * 3 + [1] * 3))
    l_lump = community.map_equation(cliques, community.Partition([0] * 6))
    hand_ok = (hand_ok and abs(l_split - (np.log2(6) - 1.0)) < 1e-9
               and abs(l_lump - np.log2(6)) < 1e-9 and l_split < l_lump)

    # local moving never increases the description length
    monotone_ok = True
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        w = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        w = np.triu(w, 1)
        w = w + w.T
        if w.sum() == 0:
            w[0, 1] = w[1, 0] = 1.0
        mover = community._LocalMover(community.CoocGraph(w, np.ones(n)),
                                      markov_time=1.0,
                                      rng=np.random.default_rng(4))
        before = mover.level_bits()
        mover.run()
        monotone_ok = monotone_ok and mover.level_bits() <= before + 1e-9

    # planted 3-block graphs recovered exactly with target_m=3
    planted_ok = True
    for seed in range(3):
        rng = np.random.default_rng(10 + seed)
        n, block = 12, 4
        w = np.zeros((n, n))
        for b in range(3):
            ix = slice(b * block, (b + 1) * block)
            sub = rng.uniform(0.5, 0.9, size=(block, block))
            sub = (sub + sub.T) / 2
            np.fill_diagonal(sub, 0.0)
            w[ix, ix] = sub
        part = community.detect_communities(community.CoocGraph(w, np.ones(n)),
                                            target_m=3, seed=seed)
        truth = np.repeat(np.arange(3), block)
        planted_ok = (planted_ok and part.n_communities == 3
                      and all(len(set(part.assignment[truth == b])) == 1
                              for b in range(3)))
    verdict(5, hand_ok and monotone_ok and planted_ok,
            "hand values to 1e-9, monotone local moves, planted blocks recovered")


# ------------------------------------------------------ 6: pipeline ladder


def test_criterion_06_pipeline_ladder(canonical, trained_params):
    _, dataset = canonical
    result = pipeline.run_ladder(dataset, trained_params,
                                 overcluster_k=20, cbfe_threshold=0.35)
    ok = (result.raw_kmeans < result.trained_kmeans < result.cbfe < result.cd
          and result.cd >= 0.90)
    verdict(6, ok,
            f"mIoU ladder raw {result.raw_kmeans:.3f} < trained "
            f"{result.trained_kmeans:.3f} < CBFE {result.cbfe:.3f} < "
            f"CD {result.cd:.3f} (>= 0.90)")


# --------------------------------------------------- 7: CBFE beats its hint


def test_criterion_07_cbfe_beats_corrupted_hint(canonical, trained_params):
    _, dataset = canonical
    embedded = pipeline.embed_dataset(dataset, trained_params, use_head=True)
    hints = pipeline.attention_hints(dataset)
    art = pipeline.run_cbfe(embedded, hints, k=20, threshold=0.35)
    true_fg = [(g > 0).astype(np.uint8) for g in dataset.object_maps]
    j_cbfe = float(np.mean([cbfe.jaccard(p, g)
                            for p, g in zip(art.fg_masks, true_fg)]))
    j_hint = float(np.mean([cbfe.jaccard(h, g)
                            for h, g in zip(hints, true_fg)]))
    verdict(7, j_cbfe - j_hint >= 0.05,
            f"foreground Jaccard {j_cbfe:.3f} vs corrupted hint {j_hint:.3f} "
            f"(margin {j_cbfe - j_hint:+.3f} >= 0.05)")


# -------------------------------------------- 8: foreground-masking ablation


def test_criterion_08_fg_masking_beats_bg_masking(canonical):
    manifest, dataset = canonical
    ok = True
    details = []
    for seed in (0, 1, 2):
        scores = {}
        for mode in ("fg", "bg"):
            params = _train(manifest, seed=seed, epochs=30, fg=mode)
            emb = pipeline.embed_dataset(dataset, params, use_head=True)
            mean, _, _ = cluster_eval.overcluster_eval(
                emb, dataset.object_maps, k=20, n_classes=4,
                n_seeds=2, ignore_label=0, seed=seed)
            scores[mode] = mean
        ok = ok and scores["fg"] >= scores["bg"]
        details.append(f"seed {seed} fg {scores['fg']:.3f} bg {scores['bg']:.3f}")
    verdict(8, ok, "foreground masking >= background masking on foreground "
            "mIoU over 3 seeds (" + "; ".join(details) + ")")


# ------------------------------------------------------------ 9: determinism


DET_CFG = """
[synth]
n_images = 24
raw_dim = 16

[train]
epochs = 4
batch_size = 8
n_prototypes = 8
hidden_dim = 32
out_dim = 16
global_grid = 5
local_grid = 3
align_size = 5
n_local = 2
lr_head = 0.001
lr_encoder = 0.0001

[sinkhorn]
queue_capacity = 128

[cbfe]
k = 16

[eval]
k = 16
n_seeds = 2

[cd]
target_m = 3
"""


def _run_pipeline(root, cfg_path):
    c = ["--config", str(cfg_path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(c + ["gen", "--out", str(root / "data")]) == 0
        assert cli.main(c + ["train", "--data", str(root / "data"),
                             "--out", str(root / "train")]) == 0
        assert cli.main(c + ["cluster", "--data", str(root / "data"),
                             "--out", str(root / "clusters"),
                             "--checkpoint", str(root / "train" / "checkpoint.lpc")]) == 0
        assert cli.main(c + ["cbfe", "--data", str(root / "data"),
                             "--clusters", str(root / "clusters"),
                             "--out", str(root / "fg")]) == 0
        assert cli.main(c + ["cooc", "--clusters", str(root / "clusters"),
                             "--out", str(root / "cooc"),
                             "--fg-map", str(root / "fg" / "fg_map.txt")]) == 0
        assert cli.main(c + ["communities", "--graph", str(root / "cooc" / "graph.txt"),
                             "--out", str(root / "comm")]) == 0
    metrics = io.StringIO()
    with contextlib.redirect_stdout(metrics):
        assert cli.main(c + ["eval", "--data", str(root / "data"),
                             "--protocol", "unsupseg",
                             "--checkpoint", str(root / "train" / "checkpoint.lpc")]) == 0
    artifacts = {p.relative_to(root): p.read_bytes()
                 for p in sorted(root.rglob("*"))
                 if p.suffix in (".lpt", ".lpc")}
    return artifacts, metrics.getvalue()


def test_criterion_09_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(DET_CFG)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    arts_a, metrics_a = _run_pipeline(run_a, cfg_path)
    arts_b, metrics_b = _run_pipeline(run_b, cfg_path)
    same_names = set(arts_a) == set(arts_b) and len(arts_a) > 0
    same_bytes = same_names and all(arts_a[n] == arts_b[n] for n in arts_a)
    same_metrics = metrics_a == metrics_b and "final mIoU:" in metrics_a
    verdict(9, same_bytes and same_metrics,
            f"{len(arts_a)} binary artifacts byte-identical, metric output identical")


# ---------------------------------------------------------- 10: metric oracles


def miou_oracle(pred_maps, gt_maps, n_classes):
    ious = []
    for g in range(n_classes):
        inter = sum(int(np.sum((p == g) & (t == g)))
                    for p, t in zip(pred_maps, gt_maps))
        union = sum(int(np.sum((p == g) | (t == g)))
                    for p, t in zip(pred_maps, gt_maps))
        present = any(np.any(t == g) for t in gt_maps)
        if present:
            ious.append(inter / union if union else np.nan)
    return float(np.mean(ious))


def jaccard_oracle(pred, gt):
    inter = total = 0
    for p, t in zip(pred.ravel(), gt.ravel()):
        inter += bool(p) and bool(t)
        total += bool(p) or bool(t)
    return inter / total if total else 1.0


def boundary_oracle(mask):
    mask = mask.astype(bool)
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and not mask[rr, cc]:
                    out[r, c] = True
    return out


def boundary_f1_oracle(pred, gt, tol):
    pb = [(r, c) for r, c in zip(*np.nonzero(boundary_oracle(pred)))]
    gb = [(r, c) for r, c in zip(*np.nonzero(boundary_oracle(gt)))]
    if not pb and not gb:
        return 1.0
    if not pb or not gb:
        return 0.0

    def hit(p, other):
        return any(np.hypot(p[0] - q[0], p[1] - q[1]) <= tol for q in other)

    precision = sum(hit(p, gb) for p in pb) / len(pb)
    recall = sum(hit(q, pb) for q in gb) / len(gb)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def precision_oracle(cluster_maps, hint_masks, k):
    out = np.zeros(k)
    for c in range(k):
        inside = total = 0
        for cm, hm in zip(cluster_maps, hint_masks):
            for label, hint in zip(cm.ravel(), hm.ravel()):
                if label == c:
                    total += 1
                    inside += bool(hint)
        out[c] = inside / total if total else 0.0
    return out


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(100):
            h, w = rng.integers(3, 8, size=2)
            n_classes = int(rng.integers(2, 5))
            pred = rng.integers(0, n_classes, size=(h, w))
            gt = rng.integers(0, n_classes, size=(h, w))
            got, _ = cluster_eval.miou([pred], [gt], n_classes)
            worst = max(worst, abs(got - miou_oracle([pred], [gt], n_classes)))

            a = rng.integers(0, 2, size=(h, w))
            b = rng.integers(0, 2, size=(h, w))
            worst = max(worst, abs(cbfe.jaccard(a, b) - jaccard_oracle(a, b)))

            tol = float(rng.uniform(0.5, 2.5))
            worst = max(worst, abs(cbfe.boundary_f1(a, b, tol_px=tol)
                                   - boundary_f1_oracle(a, b, tol)))

            k = int(rng.integers(2, 5))
            cm = rng.integers(0, k, size=(h, w))
            got_p = cbfe.cluster_precision([cm], [a], k)
            worst = max(worst, float(np.max(np.abs(
                got_p - precision_oracle([cm], [a], k)))))
    verdict(10, worst <= 1e-9,
            f"mIoU/Jaccard/boundary-F1/cluster-precision vs brute-force "
            f"counting, worst abs err {worst:.1e}")
