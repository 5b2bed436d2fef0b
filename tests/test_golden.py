"""Golden SHA-256 pins of the shipped configs' trace output.

Refactors of the discrete method, the flow or the baselines must leave every
trace byte unchanged. ``summary.csv`` carries wall time and is not pinned.
The hashes were produced with numpy 2.4; a different numpy or BLAS may round
differently and move them. The dist_agm traces quote the controller case
labels, which contain a comma.
"""

import hashlib
from pathlib import Path

import pytest

from distagm import harness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("run", "discrete_rate.yaml"): {
        "dist_agm_trace.csv":
            "b7d0d0637461f5d970e0f432a12e8d0b92ce9cb1134f3cc444b60c9309e74b4f",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "37c11e2d59d17f5edb80b54023fae4f6a58a2a5b4dcfcfd6187deeff8ce85122",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "ca0f48da61ef64c34a3472e84385ae82fa1e1891a3174f576498b56879ac1ef9",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "028f4f503d88fa388d4d5d7e7fbf0ba93aba16938ca15e8293d804ecc3a29265",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "994d336587191285109dc9fae67130da67e74ea7e498d01ddb360620d75bf70b",
    },
    # dist_agm's columns read the reference x*, not only F*, so its trace
    # and comparison.csv move whenever the reference solver's last bits do.
    ("compare", "logistic_compare.yaml"): {
        "comparison.csv":
            "989f05f25044b9b3fd1707797751222bc407e49fde681d500a18463e2f014e2a",
        "dgd_trace.csv":
            "419d492ad066836cf87e7d44f64460ea22bba275af087c27b7bfb7f4ef8ad2b3",
        "diging_trace.csv":
            "e731bf512ccebcbbd4174754936eea658930ca3ebd0127146834052ab7f4ca19",
        "dist_agm_trace.csv":
            "713a54e89a9b66650d8bce872d62a053882208dd1c37948cd034234f520b8812",
        "threshold.csv":
            "f193d0e26d3b0f304aaca089b1b1946a284c832c30319c2910d94cf7bf98aea9",
    },
    ("energy-check", "energy_conservation.yaml"): {
        "flow_trace.csv":
            "b70f936fd4d100f9f509974764a1c4be971176f82ca655510ed794b694e8863f",
    },
}

COMMANDS = {"run": harness.cmd_run, "compare": harness.cmd_compare,
            "energy-check": harness.cmd_energy_check}


@pytest.mark.parametrize("command,config", sorted(GOLDEN),
                         ids=lambda v: str(v))
def test_shipped_trace_bytes(command, config, tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / config)
    assert COMMANDS[command](cfg, str(tmp_path)) == harness.EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[command, config]}
    assert got == GOLDEN[command, config]
    written = {p.name for p in tmp_path.iterdir()} - {"summary.csv"}
    assert written == set(GOLDEN[command, config])
