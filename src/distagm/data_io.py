"""Dataset ingestion (IDX container format), agent sharding, and summaries."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdxParseError",
    "LabeledDataset",
    "ShardedDataset",
    "parse_idx",
    "serialize_idx",
    "build_binary_dataset",
    "shard",
    "write_summary",
]

_MAGIC_LABELS = 0x00000801
_MAGIC_IMAGES = 0x00000803


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


@dataclass(frozen=True)
class ShardedDataset:
    shards: tuple  # tuple of LabeledDataset, sizes balanced within one row


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


def serialize_idx(arr: np.ndarray) -> bytes:
    """Inverse of parse_idx for 1-D label or 3-D image uint8 tensors."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 1:
        magic = _MAGIC_LABELS
    elif arr.ndim == 3:
        magic = _MAGIC_IMAGES
    else:
        raise ValueError(f"unsupported IDX rank {arr.ndim}")
    out = magic.to_bytes(4, "big")
    for dim in arr.shape:
        out += int(dim).to_bytes(4, "big")
    return out + arr.tobytes()


def build_binary_dataset(images: np.ndarray, labels: np.ndarray,
                         positive_digit: int = 5, negative_digit: int = 1,
                         cap=None, seed: int = 0,
                         source: str = "") -> LabeledDataset:
    """Two-digit subset: pixels scaled by 1/255, bias column appended,
    labels mapped to {0, 1}, deterministic shuffle, optional row cap."""
    if positive_digit == negative_digit:
        raise ValueError("digits must be distinct")
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


def shard(ds: LabeledDataset, m: int) -> ShardedDataset:
    """Contiguous near-equal partition into m shards (sizes differ by <= 1)."""
    if ds.n < m:
        raise ValueError(f"cannot shard {ds.n} samples across {m} agents")
    pieces = np.array_split(np.arange(ds.n), m)
    return ShardedDataset(tuple(
        LabeledDataset(features=ds.features[idx], labels=ds.labels[idx],
                       source=ds.source)
        for idx in pieces))


def write_summary(path, rows):
    """One row per run: algorithm, problem, final gap, slope, iterations,
    wall time. ``rows`` is a list of dicts with those keys."""
    keys = ["algorithm", "problem", "final_gap", "slope", "iterations",
            "wall_time_s"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([str(row[k]) for k in keys] for row in rows)
