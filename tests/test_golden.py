"""Golden SHA-256 pins of the shipped configs' trace output.

Refactors of the discrete method, the flow or the baselines must leave every
trace byte unchanged. ``summary.csv`` carries wall time and is not pinned.
The hashes were produced with numpy 2.4; a different numpy or BLAS may round
differently and move them. The dist_agm traces quote the controller case
labels, which contain a comma.

The shipped energy-check config takes the error-controlled Dormand-Prince
step, so its pin covers that path and its step-size controller. The ramp pin
runs ``continuous_rate.yaml`` on the fixed RK4 path (its ``rtol`` removed),
cut to a short horizon with every point recorded, so the
``startup_dt_fraction * t`` steps near t0 = 1e-3 are pinned too.
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
            "35f1968ed3e298b12ce1d5e94f4cd400ef8456fa1142ee62ba7507f2c0187392",
        "dgd_trace.csv":
            "2b91c9fc4a66851d2434501150a30d80176339f1e058ef866e621f476eaee708",
        "diging_trace.csv":
            "f4a1a387a0fbd402a78e0243f140cea6d3142d0ecdb84eb29a3a21751b8ad88f",
        "dist_agm_trace.csv":
            "1a9b3532926863fc1a2091808055326bd324cb4b194706d79ec07f4865a22489",
        "threshold.csv":
            "f193d0e26d3b0f304aaca089b1b1946a284c832c30319c2910d94cf7bf98aea9",
    },
    ("energy-check", "energy_conservation.yaml"): {
        "flow_trace.csv":
            "5a917567c4b89710231d0c2ecb54d75396f16c43bc80637cca6fae5a3a69204f",
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
    "9b548e012ebc678f796aed6f297ab93e38e1abe039457f30bf33bec74c727f70")


def test_ramp_flow_trace_bytes(tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / "continuous_rate.yaml")
    assert cfg["flow"]["t0"] == 1e-3
    del cfg["flow"]["rtol"]
    cfg["flow"].update(horizon=5.0, record_every=1)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == harness.EXIT_OK
    data = (tmp_path / "flow_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RAMP_FLOW_TRACE
