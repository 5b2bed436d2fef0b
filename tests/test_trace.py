"""Trace container: rectangularity, CSV round-trip, deterministic bytes."""

import numpy as np
import pytest

from distagm import agm
from distagm.trace import RunTrace


def make_trace():
    tr = RunTrace(["k", "gap", "label"], metadata={"seed": 3, "h": 0.25})
    tr.append(0, 1.0, "start")
    tr.append(1, 1.0 / 3.0, "mid")
    tr.append(2, np.nan, "end")
    return tr


def test_row_mismatch_rejected():
    """A row holds one value per column, in column order; a row of another
    length is refused and nothing is appended."""
    tr = RunTrace(["a", "b"])
    with pytest.raises(ValueError, match="1 values for the 2 columns"):
        tr.append(1.0)
    with pytest.raises(ValueError, match="3 values for the 2 columns"):
        tr.append(1.0, 2.0, 3.0)
    assert len(tr) == 0
    tr.append(1.0, 2.0)
    assert tr.last("b") == 2.0


def test_column_and_last():
    tr = make_trace()
    np.testing.assert_allclose(tr.column("k"), [0.0, 1.0, 2.0])
    assert tr.last("label") == "end"
    assert len(tr) == 3


def test_csv_roundtrip(tmp_path):
    tr = make_trace()
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.columns == tr.columns
    assert back.metadata == {"seed": 3, "h": 0.25}
    np.testing.assert_allclose(back.column("gap")[:2], tr.column("gap")[:2],
                               rtol=0)
    assert np.isnan(back.column("gap")[2])
    assert list(back.column("label")) == ["start", "mid", "end"]


def test_metadata_types_roundtrip(tmp_path):
    meta = {"seed": 9, "diverged_at": -12, "h": 0.1, "tiny": 5e-324,
            "threshold": 1.2345678901234567e-7, "hash": "5af5945f5a9f240f",
            "problem": "synthetic-gaussian(seed=0)", "padded": "007",
            "short_float": "9e9"}
    tr = RunTrace(["k"], metadata=meta)
    tr.append(0)
    path = tmp_path / "meta.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.metadata == meta
    assert {k: type(v) for k, v in back.metadata.items()} == \
        {k: type(v) for k, v in meta.items()}


def test_write_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    make_trace().write_csv(p1)
    make_trace().write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_full_precision_floats(tmp_path):
    tr = RunTrace(["x"])
    tr.append(1.0 / 3.0)
    path = tmp_path / "p.csv"
    tr.write_csv(path)
    assert RunTrace.read_csv(path).column("x")[0] == 1.0 / 3.0


def test_controller_trace_roundtrip(tmp_path, ring5, controller_quadratic,
                                    x0_ring5):
    # the controller's case labels (``w>0,r>=0``) contain the delimiter
    obj, opt = controller_quadratic
    params = agm.AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical")
    tr = agm.adaptive_run(params, obj, ring5, x0_ring5, iters=30, opt=opt)
    assert any("," in case for case in tr.column("case"))
    path = tmp_path / "dist_agm_trace.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.columns == tr.columns
    assert list(back.column("case")) == list(tr.column("case"))
    np.testing.assert_array_equal(back.column("fallback_flag"),
                                  tr.column("fallback_flag"))
    np.testing.assert_array_equal(back.column("V_k"), tr.column("V_k"))


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# seed=1\nk,gap\n0,1.0\n1,0.5,extra\n")
    with pytest.raises(ValueError, match="3 fields"):
        RunTrace.read_csv(path)
