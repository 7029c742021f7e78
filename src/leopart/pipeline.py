"""Fully unsupervised segmentation pipeline stages and their evaluation.

The ladder of stages, each adding one component:

1. K-means with K = #classes directly on raw encoder tokens.
2. The same on tokens from a trained encoder.
3. Plus cluster-based foreground extraction: overcluster, label clusters
   fg/bg by attention precision, re-cluster foreground tokens only.
4. Plus community detection: group the foreground clusters of stage 3's
   overclustering by co-occurrence into exactly #objects communities.

Every stage outputs label maps with 0 = background and is scored by
Hungarian-matched mIoU against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, cbfe, cluster_eval, community, model, tensor_io
from .cluster_eval import hungarian_matched_miou
from .tensor_io import Dataset


def load_dataset(manifest: tensor_io.DatasetManifest) -> Dataset:
    """The dataset of *manifest*; each kind of tensor is read on first use."""
    return Dataset(manifest)


def embed_dataset(dataset: Dataset, params: dict[str, np.ndarray] | None,
                  use_head: bool) -> np.ndarray:
    """(N, D, H, W) encoder (and head, if *use_head*) embeddings of all
    images, one image at a time into one stack; raw features if params is None."""
    if params is None:
        return dataset.features

    def embed(grid: np.ndarray) -> np.ndarray:
        tokens = model.encoder_forward(model.token_rows(grid).astype(np.float32), params)
        if use_head:
            tokens = model.project(tokens, params)
        return model.token_grids(tokens, grid.shape[-2:])

    ids = [rec.id for rec in dataset.manifest.records]
    return tensor_io.stack_tensors(map(embed, dataset.features), ids, "embedding")


def attention_hints(dataset: Dataset) -> np.ndarray:
    """(N, H, W) binary foreground hints from the attention stacks, all in
    one ``attention.foreground_mask`` call."""
    if dataset.attn_stacks is None:
        raise ValueError("the dataset has no attention maps for foreground hints")
    return attention.foreground_mask(dataset.attn_stacks)


def stage_kmeans(features: np.ndarray, gt_maps: np.ndarray,
                 n_classes: int, seed: int = 0) -> float:
    """Stages 1/2: K-means with K = #classes, Hungarian-matched mIoU."""
    maps, _ = cluster_eval.cluster_maps_for(features, n_classes, seed=seed)
    return hungarian_matched_miou(maps, gt_maps, n_classes)


@dataclass
class CbfeArtifacts:
    cluster_maps: np.ndarray  # (N, H, W)
    fg_map: cbfe.ForegroundMap
    fg_masks: np.ndarray  # (N, H, W)


def run_cbfe(features: np.ndarray, hints: np.ndarray,
             k: int, threshold: float, seed: int = 0) -> CbfeArtifacts:
    """Overcluster the embeddings and classify each cluster fg/bg."""
    maps, _ = cluster_eval.cluster_maps_for(features, k, seed=seed)
    return label_foreground(maps, hints, k, threshold)


def label_foreground(maps: np.ndarray, hints: np.ndarray,
                     k: int, threshold: float) -> CbfeArtifacts:
    """Label each of the k clusters fg/bg by its precision against the
    attention hints, and mask every map to its foreground clusters."""
    precisions = cbfe.cluster_precision(maps, hints, k)
    fg_map = cbfe.build_theta(precisions, threshold)
    return CbfeArtifacts(cluster_maps=maps, fg_map=fg_map,
                         fg_masks=cbfe.extract_foreground(maps, fg_map))


def stage_cbfe(features: np.ndarray, artifacts: CbfeArtifacts,
               gt_maps: np.ndarray, n_classes: int, seed: int = 0) -> float:
    """Stage 3: background from CBFE, K-means over foreground tokens only."""
    fg = artifacts.fg_masks.ravel().astype(bool)
    result = cluster_eval.kmeans(model.token_rows(features)[fg], n_classes - 1, seed=seed)
    labels = np.zeros(len(fg), dtype=np.int64)
    labels[fg] = result.labels + 1
    return hungarian_matched_miou(labels.reshape(artifacts.fg_masks.shape), gt_maps, n_classes)


def foreground_graph(cluster_maps: np.ndarray, theta: np.ndarray,
                     edge_threshold: float, distance: int) -> community.CoocGraph:
    """Co-occurrence graph of the len(theta) clusters without the edges of
    background clusters (theta False) or edges below *edge_threshold*."""
    graph = community.cooccurrence_graph(cluster_maps, len(theta), d=distance)
    return community.filter_edges(community.disconnect(graph, theta), edge_threshold)


def stage_cd(artifacts: CbfeArtifacts, gt_maps: np.ndarray,
             n_classes: int, edge_threshold: float = community.DEFAULT_EDGE_THRESHOLD,
             markov_time: float = community.DEFAULT_MARKOV_TIME,
             distance: int = community.DEFAULT_DISTANCE, seed: int = 0,
             ) -> tuple[float, community.Partition]:
    """Stage 4: co-occurrence communities over the foreground clusters.

    Background-labeled clusters are disconnected from the network before
    detection, so they land in the background partition; the remaining
    clusters are grouped into exactly #classes - 1 communities.
    """
    graph = foreground_graph(artifacts.cluster_maps, artifacts.fg_map.theta,
                             edge_threshold, distance)
    partition = community.detect_communities(
        graph, target_m=n_classes - 1, markov_time=markov_time, seed=seed)
    merged = community.merge_by_communities(artifacts.cluster_maps, partition)
    score = hungarian_matched_miou(merged, gt_maps, n_classes)
    return score, partition


@dataclass
class LadderResult:
    raw_kmeans: float
    trained_kmeans: float
    cbfe: float
    cd: float

    def as_dict(self) -> dict[str, float]:
        return {"raw_kmeans": self.raw_kmeans, "trained_kmeans": self.trained_kmeans,
                "cbfe": self.cbfe, "cd": self.cd}


def run_ladder(dataset: Dataset, trained_params: dict[str, np.ndarray],
               overcluster_k: int, cbfe_threshold: float,
               edge_threshold: float = community.DEFAULT_EDGE_THRESHOLD,
               markov_time: float = community.DEFAULT_MARKOV_TIME,
               seed: int = 0, distance: int = community.DEFAULT_DISTANCE,
               use_head: bool = True) -> LadderResult:
    """All four unsup-seg stages on one dataset."""
    gt = dataset.object_maps
    n_classes = int(gt.max()) + 1
    hints = attention_hints(dataset)
    embedded = embed_dataset(dataset, trained_params, use_head=use_head)
    raw_score = stage_kmeans(dataset.features, gt, n_classes, seed=seed)
    trained_score = stage_kmeans(embedded, gt, n_classes, seed=seed)
    artifacts = run_cbfe(embedded, hints, overcluster_k, cbfe_threshold, seed=seed)
    cbfe_score = stage_cbfe(embedded, artifacts, gt, n_classes, seed=seed)
    cd_score, _ = stage_cd(artifacts, gt, n_classes, edge_threshold, markov_time,
                           distance, seed=seed)
    return LadderResult(raw_kmeans=raw_score, trained_kmeans=trained_score,
                        cbfe=cbfe_score, cd=cd_score)
