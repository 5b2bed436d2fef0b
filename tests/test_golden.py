"""Golden SHA-256 pins of the shipped configs' trace output.

Refactors of the discrete method, the flow or the baselines must leave every
trace byte unchanged. ``summary.csv`` carries wall time and is not pinned.
The hashes were produced with numpy 2.4; a different numpy or BLAS may round
differently and move them. The dist_agm traces quote the controller case
labels, which contain a comma.

The shipped energy-check config takes the error-controlled DOP853 step (172
steps and 2 rejections, 173 rows), so its pin covers that path and its
step-size controller. The ramp pin
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
            "d61834471115e1f29cc98b3b09d0810406fde27df5dcb225b4ae4afae6ff1451",
    },
    ("run", "beta_sweep/beta_0.01.yaml"): {
        "dist_agm_trace.csv":
            "721c8893a6da6bcaa8b4ee6743dff2c393e4d0d993d17b49c8be734d2c6c97f0",
    },
    ("run", "beta_sweep/beta_0.1.yaml"): {
        "dist_agm_trace.csv":
            "f7b4e460d3d34d7d36ea68578c3510e1142dcf44aad62a743838caf4bca96f82",
    },
    ("run", "beta_sweep/beta_0.5.yaml"): {
        "dist_agm_trace.csv":
            "1f968f6197fff973b4c1855c9ba8303bac7925de2a69142cebd83939d42d8cda",
    },
    ("run", "beta_sweep/beta_1.0.yaml"): {
        "dist_agm_trace.csv":
            "807bbf1f62d4075d5a5308000c22835d38bf3210c0bd3496244d65395cb33460",
    },
    # dist_agm's columns read the reference x*, not only F*, so its trace
    # and comparison.csv move whenever the reference solver's last bits do.
    ("compare", "logistic_compare.yaml"): {
        "comparison.csv":
            "9bd982e0ecd3f5497eb949b4f6c2e7a0b0127c09678aa8fb2158be417b5ea199",
        "dgd_trace.csv":
            "691aaa71911114741e72a469801595df0c94f56ef31bd20ec753ededd55ccd09",
        "diging_trace.csv":
            "845e2f2b58cc185dde0840ec5e09bd2a4eb8b3c2aecca432469713469343f9be",
        "dist_agm_trace.csv":
            "ba6ed08a0f0c08e40040758f16ced7ab4952535fc36577cc3c087b8878fc4a65",
        "threshold.csv":
            "f193d0e26d3b0f304aaca089b1b1946a284c832c30319c2910d94cf7bf98aea9",
    },
    ("energy-check", "energy_conservation.yaml"): {
        "flow_trace.csv":
            "b73355370189b4d93f63407274a587d760cc73ad219b3f2f705fd673c028d10b",
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
    "c1933967b3891e097593d936c8de379066237bedea30eaca37f684567b2fc6bf")


def test_ramp_flow_trace_bytes(tmp_path, capsys):
    cfg = harness.load_config(CONFIGS / "continuous_rate.yaml")
    assert cfg["flow"]["t0"] == 1e-3
    del cfg["flow"]["rtol"]
    cfg["flow"].update(horizon=5.0, record_every=1)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == harness.EXIT_OK
    data = (tmp_path / "flow_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RAMP_FLOW_TRACE
