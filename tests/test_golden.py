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
            "0acffd6ee46214b48fba9d25dc4df4b0bb55f10647fcd3fe96d021a2c3a072ca",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "51679e570927a27e7830336bd140e69af04382c81400eac6e592631ed35adf26",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "32ea7618e95b39bd6a87680cd64f1b52df121cf75897dd582086bd4adcbcb0db",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "c11f6ff40ff8cb0ef6e73c3861f663e6033b7e5f0077f9349fbd882cc6e785c9",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "000683fb4add9429b66eab922263d34915ca9f05a1895c0476dde9599c563419",
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
            "d87e2fdfd3b4df47a8917516da261870d3679b948b9336befae26243c8ac5e23",
        "threshold.csv":
            "f193d0e26d3b0f304aaca089b1b1946a284c832c30319c2910d94cf7bf98aea9",
    },
    ("energy-check", "energy_conservation.yaml"): {
        "flow_trace.csv":
            "4abca6eaff105ed9cae1205b03d990c83b80fea9822583b7b746d0ac235d81ef",
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
    "72367c9d0f866f162c4ba0dd17ed22f8c5847013ed3dcef42787a17eb40781cb")


def test_ramp_flow_trace_bytes(tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / "continuous_rate.yaml")
    assert cfg["flow"]["t0"] == 1e-3
    cfg["flow"].update(horizon=5.0, record_every=1)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == harness.EXIT_OK
    data = (tmp_path / "flow_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RAMP_FLOW_TRACE
