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
            "a32434bb18e0a7807436d83b43286764c4094fd27c074175b55dbc34e456beef",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "3b052488c7e1488e43dab6d9ce3fdd3ab80eba7578cb59e7b161ca4b553b3109",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "72a3d1b373f71c5a08751a6774bff024de9f694c7e1a51de3709b24c2214d5da",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "9cba22af476aad49cc6985a7769ae8577a76c5bff0452307d9612eb5f8a5e767",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "c176b1c916ccc0afac83719748defad58801d74442a2de9c49ff8a0fc8bd0555",
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
            "8c2943377d9f592c432dfc943aec819d6329eb8c382444726088672547a69eaa",
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
    "da4311756dcf99441087a61ae970cbecf31b3811df653c6b0c4f0f2a3e9b6761")


def test_ramp_flow_trace_bytes(tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / "continuous_rate.yaml")
    assert cfg["flow"]["t0"] == 1e-3
    del cfg["flow"]["rtol"]
    cfg["flow"].update(horizon=5.0, record_every=1)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == harness.EXIT_OK
    data = (tmp_path / "flow_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RAMP_FLOW_TRACE
