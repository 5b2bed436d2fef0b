"""Golden SHA-256 pins of the shipped configs' trace output.

Refactors of the discrete method, the flow or the baselines must leave every
trace byte unchanged. ``summary.csv`` carries wall time and is not pinned.
The hashes were produced with numpy 2.4; a different numpy or BLAS may round
differently and move them. The dist_agm traces quote the controller case
labels, which contain a comma.

The shipped energy-check config starts at t0 = 1, where every step is the
configured dt. The ramp pin runs ``continuous_rate.yaml`` cut to a short
horizon with every point recorded, so the ``startup_dt_fraction * t`` steps
near t0 = 1e-3 are pinned too.
"""

import hashlib
from pathlib import Path

import pytest

from distagm import harness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("run", "discrete_rate.yaml"): {
        "dist_agm_trace.csv":
            "69db27e640f48e46c192c58e5c5e0502297dcf3fa0f07d5fab9e95bf68a2d030",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "c40ed68736000e7b918ec80c5b2e05daf3696f0b10c0dd5ef79e7a1fad4f8600",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "36bd4590dbe7594c66fee12f8c24f12a315b136c4e7e2d0f07d3e4c1731a51ad",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "48efbbd9f5fd8a0b015667ab2873d7aada6eb765da53c1fdaea76ae4918ebde3",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "6fc0ae36c2aa213c8dfac7de87bbee852039a4579e4b021732e61f6ad60a3d67",
    },
    # dist_agm's columns read the reference x*, not only F*, so its trace
    # and comparison.csv move whenever the reference solver's last bits do.
    ("compare", "logistic_compare.yaml"): {
        "comparison.csv":
            "8c2a02419dd05b03c55666f890f8d697298a39747b64645729acb00f6a48ea43",
        "dgd_trace.csv":
            "8901cbcf2e56accf561f8b78809a459341bfb01b8bfe6d35ecfd202fda47957a",
        "diging_trace.csv":
            "656935d8ef2967581468b9b0494b8b229de8b4e7dbb33392f579a86451ea8308",
        "dist_agm_trace.csv":
            "9eb885b3e8464e9a1ddd1f0ccb81e50ee127ef1aac0d8fdc89c46cb40e949ecd",
        "threshold.csv":
            "f193d0e26d3b0f304aaca089b1b1946a284c832c30319c2910d94cf7bf98aea9",
    },
    ("energy-check", "energy_conservation.yaml"): {
        "flow_trace.csv":
            "65a84c43e102ebd4a3a916b034301d6ae61b6a2972d16e8c57371a99d78de2d3",
    },
}

COMMANDS = {"run": harness.cmd_run, "compare": harness.cmd_compare,
            "energy-check": harness.cmd_energy_check}


@pytest.mark.parametrize("command,config", sorted(GOLDEN),
                         ids=lambda v: str(v))
def test_shipped_trace_bytes(command, config, tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / config)
    assert COMMANDS[command](cfg, str(tmp_path), None) == harness.EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[command, config]}
    assert got == GOLDEN[command, config]
    written = {p.name for p in tmp_path.iterdir()} - {"summary.csv"}
    assert written == set(GOLDEN[command, config])


RAMP_FLOW_TRACE = (
    "b0de7b0ed6ac65e216b974caf915c81af7bcefa7acc35df369249839f78648b0")


def test_ramp_flow_trace_bytes(tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / "continuous_rate.yaml")
    assert cfg["flow"]["t0"] == 1e-3
    cfg["flow"].update(horizon=5.0, record_every=1)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == harness.EXIT_OK
    data = (tmp_path / "flow_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RAMP_FLOW_TRACE
