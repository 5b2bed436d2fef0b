"""Dataset ingestion (IDX container format), the MNIST and synthetic
datasets, agent sharding, and summaries."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .trace import RunTrace

__all__ = [
    "IdxParseError",
    "LabeledDataset",
    "parse_idx",
    "build_binary_dataset",
    "mnist_dataset",
    "synthetic_gaussian_dataset",
    "shard",
    "write_summary",
]

_MAGIC_LABELS = 0x00000801
_MAGIC_IMAGES = 0x00000803

DATASET_ROOT_ENV = "DISTAGM_DATA"


class IdxParseError(ValueError):
    def __init__(self, msg, offset=None):
        super().__init__(msg if offset is None
                         else f"{msg} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows scaled to [0,1] with a trailing bias column, binary labels."""

    features: np.ndarray
    labels: np.ndarray
    source: str = ""

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label row count mismatch")
        if self.features.shape[0] == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise ValueError("labels must be in {0, 1}")

    @property
    def n(self):
        return self.features.shape[0]


def parse_idx(data: bytes) -> np.ndarray:
    """Parse an IDX byte blob (big-endian header, unsigned-byte payload).

    Accepts the 1-D label magic and the 3-D image magic; validates that the
    payload length equals the product of the declared dimensions.
    """
    if len(data) < 4:
        raise IdxParseError("truncated IDX header", offset=len(data))
    magic = int.from_bytes(data[:4], "big")
    if magic == _MAGIC_LABELS:
        ndim = 1
    elif magic == _MAGIC_IMAGES:
        ndim = 3
    else:
        raise IdxParseError(f"bad IDX magic 0x{magic:08x}", offset=0)
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxParseError("truncated IDX dimension block", offset=len(data))
    dims = [int.from_bytes(data[4 + 4 * i: 8 + 4 * i], "big")
            for i in range(ndim)]
    count = 1
    for dim in dims:
        count *= dim
    if count > len(data):  # cheap overflow/garbage guard before allocating
        raise IdxParseError(
            f"declared {count} payload bytes, only {len(data) - header_len} present",
            offset=header_len + max(len(data) - header_len, 0))
    payload = data[header_len:]
    if len(payload) != count:
        raise IdxParseError(
            f"payload length {len(payload)} != product of dims {count}",
            offset=header_len + len(payload))
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()


def build_binary_dataset(images: np.ndarray, labels: np.ndarray,
                         positive_digit: int = 5, negative_digit: int = 1,
                         cap=500, seed: int = 0,
                         source: str = "") -> LabeledDataset:
    """Two-digit subset: pixels scaled by 1/255, bias column appended,
    labels mapped to {0, 1}, deterministic shuffle, row cap (None: all)."""
    if positive_digit == negative_digit:
        raise ValueError("digits must be distinct")
    if cap is not None and not cap >= 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    labels = np.asarray(labels).reshape(-1)
    images = np.asarray(images)
    keep = np.isin(labels, (positive_digit, negative_digit))
    if not np.any(labels == positive_digit) or not np.any(labels == negative_digit):
        raise ValueError("one of the requested digits is absent")
    feats = images[keep].reshape(keep.sum(), -1).astype(float) / 255.0
    ys = (labels[keep] == positive_digit).astype(float)
    order = np.random.default_rng(seed).permutation(feats.shape[0])
    feats, ys = feats[order], ys[order]
    if cap is not None:
        feats, ys = feats[:cap], ys[:cap]
    feats = np.hstack([feats, np.ones((feats.shape[0], 1))])
    return LabeledDataset(features=feats, labels=ys, source=source)


def mnist_dataset(spec: dict):
    """The binary set of the IDX files, or None when they are not on disk.
    Takes the MNIST keys out of the problem settings ``spec``; the seed,
    which the synthetic fallback reads too, stays."""
    root = spec.pop("dataset_root", None) or os.environ.get(DATASET_ROOT_ENV,
                                                            ".")
    img_path = os.path.join(root, spec.pop("images", "train-images-idx3-ubyte"))
    lab_path = os.path.join(root, spec.pop("labels", "train-labels-idx1-ubyte"))
    digits = {key: spec.pop(key) for key in (
        "positive_digit", "negative_digit", "cap") if key in spec}
    if not (os.path.exists(img_path) and os.path.exists(lab_path)):
        return None
    if "seed" in spec:
        digits["seed"] = spec["seed"]
    with open(img_path, "rb") as fh:
        images = parse_idx(fh.read())
    with open(lab_path, "rb") as fh:
        labels = parse_idx(fh.read())
    return build_binary_dataset(images, labels, source=img_path, **digits)


def synthetic_gaussian_dataset(n=500, p=10, seed=0):
    """Two-class Gaussian fallback when MNIST files are not on disk."""
    rng = np.random.default_rng(seed)
    half = n // 2
    mu = 1.5 * rng.standard_normal(p) / np.sqrt(p)
    feats = np.vstack([rng.standard_normal((half, p)) + mu,
                       rng.standard_normal((n - half, p)) - mu])
    feats = (feats - feats.min()) / max(feats.max() - feats.min(), 1e-12)
    labels = np.concatenate([np.ones(half), np.zeros(n - half)])
    order = rng.permutation(n)
    feats = np.hstack([feats[order], np.ones((n, 1))])
    return LabeledDataset(features=feats, labels=labels[order],
                          source=f"synthetic-gaussian(seed={seed})")


def shard(ds: LabeledDataset, m: int) -> tuple:
    """Contiguous near-equal partition into a tuple of m LabeledDatasets
    (sizes differ by <= 1)."""
    if ds.n < m:
        raise ValueError(f"cannot shard {ds.n} samples across {m} agents")
    pieces = np.array_split(np.arange(ds.n), m)
    return tuple(LabeledDataset(features=ds.features[idx],
                                labels=ds.labels[idx], source=ds.source)
                 for idx in pieces)


def write_summary(path, rows, metadata=None):
    """One row per run: algorithm, problem, final gap, slope, iterations,
    wall time. ``rows`` is a list of dicts with those keys. The cells and
    the ``# key=value`` metadata lines are written as a trace's."""
    summary = RunTrace(["algorithm", "problem", "final_gap", "slope",
                        "iterations", "wall_time_s"], metadata)
    for row in rows:
        summary.append(*[row[name] for name in summary.columns])
    summary.write_csv(path)
