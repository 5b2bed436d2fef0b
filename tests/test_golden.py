"""Golden SHA-256 pins of the shipped configs' trace output.

Refactors of the discrete method, the flow or the baselines must leave every
trace byte unchanged. ``summary.csv`` carries wall time and is not pinned.
The hashes were produced with numpy 2.4; a different numpy or BLAS may round
differently and move them.
"""

import hashlib
from pathlib import Path

import pytest

from distagm import harness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("run", "discrete_rate.yaml"): {
        "dist_agm_trace.csv":
            "5af5945f5a9f240f380e7a42c84491c9ad2f01062bcc8fea9b9092cac71bd4f2",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "24aa47850bb7c66354fee0797c0fc1673e8d7272469f3db9edd3df266e98410e",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "966a50bec036c5e4b2d53b96991b42033701bbb81bdd2976c09cabcc5be24eba",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "b3ecddc02ad159e0754c665edfafb04f05cab487adb12313b402a7c713242f96",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "f1a13b8a8a5a2127c54ed8d94be91eadc184be96640e4388d5f0e7abe670c335",
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
            "b7f5b6cbfa06797eed55f8abbf954cf27651ad855188203238569f59f3b06fc9",
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
