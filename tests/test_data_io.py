"""IDX parsing, binary dataset construction, and agent sharding."""

import csv

import numpy as np
import pytest

from distagm.data_io import (IdxParseError, LabeledDataset,
                             build_binary_dataset, mnist_dataset, parse_idx,
                             shard, write_summary)
from oracles import serialize_idx


def test_parse_label_vector():
    blob = (0x00000801).to_bytes(4, "big") + (3).to_bytes(4, "big") \
        + bytes([1, 5, 1])
    np.testing.assert_array_equal(parse_idx(blob), [1, 5, 1])


def test_parse_single_image():
    blob = (0x00000803).to_bytes(4, "big") \
        + (1).to_bytes(4, "big") + (2).to_bytes(4, "big") \
        + (2).to_bytes(4, "big") + bytes([10, 20, 30, 40])
    arr = parse_idx(blob)
    assert arr.shape == (1, 2, 2)
    np.testing.assert_array_equal(arr[0], [[10, 20], [30, 40]])


def test_parse_bad_magic():
    with pytest.raises(IdxParseError) as err:
        parse_idx((0xDEADBEEF).to_bytes(4, "big") + bytes(8))
    assert err.value.offset == 0


def test_parse_truncated_payload():
    blob = (0x00000801).to_bytes(4, "big") + (4).to_bytes(4, "big") \
        + bytes([1, 2, 3])
    with pytest.raises(IdxParseError) as err:
        parse_idx(blob)
    assert err.value.offset == 8 + 3  # header then the bytes actually present


def test_parse_dims_past_the_blob():
    """Dimensions whose product exceeds the whole blob are refused before
    any payload is read or allocated."""
    blob = (0x00000803).to_bytes(4, "big") + (1000).to_bytes(4, "big") \
        + (28).to_bytes(4, "big") + (28).to_bytes(4, "big") + bytes(4)
    with pytest.raises(IdxParseError, match="declared 784000") as err:
        parse_idx(blob)
    assert err.value.offset == 16 + 4


def test_parse_truncated_header():
    with pytest.raises(IdxParseError):
        parse_idx(b"\x00\x00")
    with pytest.raises(IdxParseError):
        parse_idx((0x00000803).to_bytes(4, "big") + (1).to_bytes(4, "big"))


def test_roundtrip_identity():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=37).astype(np.uint8)
    images = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    for arr in (labels, images):
        np.testing.assert_array_equal(parse_idx(serialize_idx(arr)), arr)


def test_serialize_rank_check():
    with pytest.raises(ValueError):
        serialize_idx(np.zeros((2, 2), dtype=np.uint8))


def test_build_binary_dataset_filters():
    images = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
    labels = np.array([1, 5, 7, 1], dtype=np.uint8)
    ds = build_binary_dataset(images, labels, positive_digit=5,
                              negative_digit=1)
    assert ds.n == 3
    assert sorted(ds.labels) == [0.0, 0.0, 1.0]
    assert ds.features.shape == (3, 5)  # 4 pixels + bias
    np.testing.assert_array_equal(ds.features[:, -1], 1.0)
    assert ds.features[:, :-1].max() <= 1.0
    assert ds.features[:, :-1].min() >= 0.0


def test_build_binary_dataset_scales_pixels_by_1_over_255():
    """A 255 pixel reads 1.0 and a 51 pixel 0.2: pixels are scaled by
    1/255, so the features span [0, 1]."""
    images = np.array([[[0, 51], [255, 255]], [[255, 0], [0, 0]]],
                      dtype=np.uint8)
    ds = build_binary_dataset(images, np.array([5, 1], dtype=np.uint8))
    pixels = ds.features[:, :-1]
    assert pixels[ds.labels == 1.0].tolist() == [[0.0, 0.2, 1.0, 1.0]]
    assert pixels[ds.labels == 0.0].tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_build_binary_dataset_errors():
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        build_binary_dataset(images, np.array([1, 1]), positive_digit=5)
    with pytest.raises(ValueError):
        build_binary_dataset(images, np.array([1, 5]), positive_digit=3,
                             negative_digit=3)


def test_build_binary_dataset_cap_and_determinism():
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(300, 2, 2)).astype(np.uint8)
    labels = rng.choice([1, 5, 9], size=300).astype(np.uint8)
    a = build_binary_dataset(images, labels, cap=100, seed=4)
    b = build_binary_dataset(images, labels, cap=100, seed=4)
    assert a.n == 100
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_mnist_dataset_shuffles_by_the_problem_seed(tmp_path):
    """The MNIST path passes problem.seed to the shuffle: two seeds give
    two row orders of the same rows, one seed the same bytes twice."""
    rng = np.random.default_rng(3)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(serialize_idx(
        rng.integers(0, 256, size=(40, 2, 2)).astype(np.uint8)))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(serialize_idx(
        rng.choice([1, 5], size=40).astype(np.uint8)))

    def load(seed):
        spec = {"dataset_root": str(tmp_path), "seed": seed}
        ds = mnist_dataset(spec)
        assert spec == {"seed": seed}  # the MNIST keys are taken out
        return ds

    a, again, b = load(1), load(1), load(2)
    assert a.features.tobytes() == again.features.tobytes()
    assert a.labels.tobytes() == again.labels.tobytes()
    assert a.features.tobytes() != b.features.tobytes()
    assert sorted(map(tuple, a.features)) == sorted(map(tuple, b.features))


def make_dataset(n):
    rng = np.random.default_rng(2)
    return LabeledDataset(features=rng.random((n, 3)),
                          labels=(rng.random(n) < 0.5).astype(float))


def test_shard_balanced():
    assert [s.n for s in shard(make_dataset(10), 5)] == [2] * 5
    assert [s.n for s in shard(make_dataset(11), 5)] == [3, 2, 2, 2, 2]


def test_shard_partition():
    ds = make_dataset(23)
    shards = shard(ds, 4)
    rebuilt = np.vstack([s.features for s in shards])
    np.testing.assert_array_equal(rebuilt, ds.features)
    assert sum(s.n for s in shards) == 23


def test_shard_too_few_samples():
    with pytest.raises(ValueError):
        shard(make_dataset(3), 5)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(features=np.ones((2, 2)), labels=np.ones(3))
    with pytest.raises(ValueError):
        LabeledDataset(features=np.ones((2, 2)),
                       labels=np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="empty dataset"):
        LabeledDataset(features=np.ones((0, 2)), labels=np.ones(0))


def test_write_summary(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary(path, [{"algorithm": "dgd", "problem": "quadratic",
                          "final_gap": 0.5, "slope": -1.9,
                          "iterations": 10, "wall_time_s": 0.01}])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("algorithm,problem,final_gap")
    assert lines[1].startswith("dgd,quadratic,0.5,")


def test_write_summary_quotes_commas(tmp_path):
    """An MNIST run's problem label is an image path, which may hold a
    comma; the row still reads back as six fields."""
    path = tmp_path / "summary.csv"
    label = "/data/mnist,v2/train-images-idx3-ubyte"
    write_summary(path, [{"algorithm": "dgd", "problem": label,
                          "final_gap": np.float64(0.25), "slope": "",
                          "iterations": 10, "wall_time_s": 0.01}])
    data = path.read_bytes()
    assert b"\r" not in data
    rows = list(csv.reader(data.decode().splitlines()))
    assert [len(row) for row in rows] == [6, 6]
    assert rows[1] == ["dgd", label, "0.25", "", "10", "0.01"]
