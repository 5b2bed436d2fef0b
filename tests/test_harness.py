"""Config handling, CLI subcommands, exit codes, and output determinism."""

import inspect
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import yaml

from distagm import agm, data_io, flow, harness
from distagm.cli import build_parser, main
from distagm.graphs import build_topology
from distagm.objectives import make_quadratic
from distagm.trace import DivergenceError, RunTrace
from oracles import serialize_idx

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"

NAN, INF = float("nan"), float("inf")
QUAD_PROBLEM = {"type": "quadratic", "d": 2, "seed": 7,
                "common_offset": [0.3, -0.2]}
SMALL_LOGISTIC = {"type": "logistic-synthetic", "n": 60, "p": 3,
                  "solver_max_iter": 5}


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_load_config_errors(tmp_path):
    with pytest.raises(harness.ConfigError):
        harness.load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(harness.ConfigError):
        harness.load_config(bad)


def test_config_hash_stable():
    h1 = harness.config_hash({"a": 1, "b": {"c": 2}})
    h2 = harness.config_hash({"b": {"c": 2}, "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert harness.config_hash({"a": 2}) != h1


def test_synthetic_dataset_deterministic():
    a = data_io.synthetic_gaussian_dataset(n=100, p=4, seed=3)
    b = data_io.synthetic_gaussian_dataset(n=100, p=4, seed=3)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.features.shape == (100, 5)  # bias column appended
    assert set(np.unique(a.labels)) == {0.0, 1.0}
    assert a.features[:, :-1].min() >= 0.0
    assert a.features[:, :-1].max() <= 1.0


def checked(cfg):
    """The settings ``check_config`` reads from ``cfg``, without --seed."""
    return harness.check_config(cfg, None)


def test_build_problem_common_offset():
    settings = checked({"problem": QUAD_PROBLEM})
    graph = harness.build_graph(settings)
    obj, opt, label = harness.build_problem(settings, graph)
    assert label == "quadratic"
    np.testing.assert_array_equal(obj.bs, np.tile([0.3, -0.2], (5, 1)))
    np.testing.assert_allclose(opt.grad_at_opt, 0.0, atol=1e-12)


def test_build_problem_errors():
    with pytest.raises(harness.ConfigError):
        checked({"problem": {"type": "cubic"}})
    settings = checked({"problem": dict(QUAD_PROBLEM, common_offset=[1.0])})
    with pytest.raises(harness.ConfigError):
        harness.build_problem(settings, harness.build_graph(settings))


def test_initial_state_shapes():
    cfg = {"seed": 1, "init": {"scale": 0.5}}
    settings = checked(cfg)
    graph = harness.build_graph(settings)
    obj, _, _ = harness.build_problem(settings, graph)
    x0 = harness.initial_state(settings, graph, obj)
    assert x0.shape == (10,)
    cfg["init"]["consensus"] = True
    xc = harness.initial_state(checked(cfg), graph, obj)
    np.testing.assert_array_equal(xc[:2], xc[2:4])


def test_cmd_run_fixed_mode(tmp_path):
    cfg = {"seed": 0, "problem": QUAD_PROBLEM, "iters": 30,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4}]}
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    trace = RunTrace.read_csv(out / "dist_agm_trace.csv")
    assert len(trace) == 31  # initial record plus one row per iteration
    assert "config_hash" in trace.metadata
    assert (out / "summary.csv").exists()


def test_cmd_run_deterministic_bytes(tmp_path):
    cfg = {"seed": 4, "problem": QUAD_PROBLEM, "iters": 25,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4},
                          {"name": "dgd", "alpha": 0.01}]}
    path = write_config(tmp_path, cfg)
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["run", path, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("dist_agm_trace.csv", "dgd_trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cmd_run_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("[1, 2]\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == 2

    cfg = {"problem": QUAD_PROBLEM, "iters": 10,
           "algorithms": ["gradient_teleport"]}
    assert main(["run", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "y")]) == 2

    cfg = {"problem": QUAD_PROBLEM, "iters": 400, "init": {"scale": 1.0},
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 1.0,
                           "s": 50.0}]}
    out = tmp_path / "z"
    assert main(["run", write_config(tmp_path, cfg, "div.yaml"),
                 "--out", str(out)]) == 3
    assert (out / "dist_agm_trace.csv").exists()  # trace still written


def test_cmd_compare(tmp_path, capsys):
    cfg = {"seed": 2, "problem": QUAD_PROBLEM, "iters": 60,
           "gap_threshold": 1e-2,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4},
                          {"name": "dgd", "alpha": 0.05}]}
    out = tmp_path / "cmp"
    assert main(["compare", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    assert (out / "threshold.csv").exists()
    header = (out / "comparison.csv").read_text().splitlines()
    assert any(line.startswith("k,") for line in header)
    captured = capsys.readouterr().out
    assert "iterations_to_threshold" in captured


def test_iterations_to_threshold_counts_a_gap_at_the_threshold():
    """The first k whose gap is at or below the threshold: a gap equal to
    it counts, and a trace that never reaches it gives None."""
    trace = RunTrace(["k", "F_gap"])
    for row in ((0, 1.0), (1, 0.5), (2, 0.25)):
        trace.append(*row)
    assert harness.iterations_to_threshold(trace, 0.5) == 1
    assert harness.iterations_to_threshold(trace, 0.3) == 2
    assert harness.iterations_to_threshold(trace, 0.1) is None


def test_cmd_compare_reports_truncated_table(tmp_path, capsys):
    cfg = {"seed": 2, "problem": QUAD_PROBLEM, "iters": 60,
           "init": {"scale": 1.0},
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4},
                          {"name": "dgd", "alpha": 5.0}]}
    out = tmp_path / "cmp"
    assert main(["compare", write_config(tmp_path, cfg),
                 "--out", str(out)]) == harness.EXIT_DIVERGENCE
    captured = capsys.readouterr()
    # stdout stays the threshold table alone
    assert captured.out.splitlines()[0] == "algorithm,iterations_to_threshold"
    assert len(captured.out.splitlines()) == 3
    rows = [line for line in (out / "comparison.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    last_k = int(rows[-1].split(",")[0])
    assert last_k < 60
    err = captured.err.splitlines()
    assert len(err) == 1
    assert "dgd" in err[0] and "dist_agm" not in err[0]
    assert f"k={last_k}" in err[0]


def test_cmd_compare_short_trace_is_not_divergence(tmp_path, capsys,
                                                   monkeypatch):
    """Only runs stamped ``diverged_at`` are reported: a trace that is
    shorter for another reason cuts the table without a divergence line."""
    real = harness.run_algorithm

    def halved(name, params, obj, graph, X0, opt, iters):
        return real(name, params, obj, graph, X0, opt,
                    iters // 2 if name == "dgd" else iters)

    monkeypatch.setattr(harness, "run_algorithm", halved)
    cfg = {"seed": 2, "problem": QUAD_PROBLEM, "iters": 60,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4},
                          {"name": "dgd", "alpha": 0.05}]}
    assert main(["compare", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert capsys.readouterr().err == ""


def test_cmd_compare_needs_two(tmp_path):
    cfg = {"problem": QUAD_PROBLEM, "iters": 5, "algorithms": ["dgd"]}
    assert main(["compare", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "c")]) == 2


def test_cmd_rate_check(tmp_path, capsys):
    trace = RunTrace(["k", "F_gap"])
    for k in range(1, 201):
        trace.append(k, 5.0 / k ** 2)
    path = tmp_path / "synthetic.csv"
    trace.write_csv(path)
    assert main(["rate-check", str(path), "--beta", "0.1"]) == 0
    assert "PASS" in capsys.readouterr().out

    shallow = RunTrace(["k", "F_gap"])
    for k in range(1, 201):
        shallow.append(k, 5.0 / k ** 1.1)
    path2 = tmp_path / "shallow.csv"
    shallow.write_csv(path2)
    assert main(["rate-check", str(path2), "--beta", "0.5"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last", [INF, NAN])
def test_cmd_rate_check_flags_a_last_gap_not_finite(last, tmp_path, capsys):
    """A diverged run's trace ends on the row whose gap left the finite
    range. rate-check drops that row and says the fit was truncated, with
    no warning and the slope of the rows before it."""
    trace = RunTrace(["k", "F_gap"])
    for k in range(1, 200):
        trace.append(k, 1.0 / k ** 2)
    trace.append(200, last)
    path = tmp_path / "diverged.csv"
    trace.write_csv(path)
    assert main(["rate-check", str(path), "--beta", "0.1"]) == 0
    assert capsys.readouterr().out == (
        "slope=-2.0000 r2=1.0000 target=-1.9000 tolerance=0.3 "
        "truncated=True PASS\n")


def test_cmd_rate_check_without_spread_in_k(tmp_path, capsys):
    """A window whose k values are all equal has no slope: exit 2 and one
    error line, not a fit."""
    trace = RunTrace(["k", "F_gap"])
    for i in range(40):
        trace.append(7, 1.0 / (i + 1))
    path = tmp_path / "flat.csv"
    trace.write_csv(path)
    assert main(["rate-check", str(path), "--beta", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate window has no finite spread in t\n"


def test_cmd_rate_check_bad_trace(tmp_path):
    path = tmp_path / "tiny.csv"
    trace = RunTrace(["k", "F_gap"])
    trace.append(1, 1.0)
    trace.write_csv(path)
    assert main(["rate-check", str(path), "--beta", "0.1"]) == 2


@pytest.mark.parametrize("option,value", [
    ("--tail-fraction", "1.5"), ("--tail-fraction", "0"),
    ("--tail-fraction", "nan"), ("--beta", "nan"), ("--beta", "2"),
    ("--beta", "0"), ("--tolerance", "nan"), ("--tolerance", "inf"),
])
def test_cmd_rate_check_out_of_range_option(option, value, tmp_path, capsys):
    """An option outside its range is refused with exit 2 and one error
    line naming it, not fitted or judged as if it were valid."""
    trace = RunTrace(["k", "F_gap"])
    for k in range(1, 201):
        trace.append(k, 5.0 / k ** 2)
    path = tmp_path / "synthetic.csv"
    trace.write_csv(path)
    options = {"--beta": "0.1", option: value}
    assert main(["rate-check", str(path),
                 *(arg for item in options.items() for arg in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option.removeprefix("--").replace("-", "_") in captured.err


def test_cmd_energy_check(tmp_path, capsys):
    cfg = {"seed": 2, "problem": QUAD_PROBLEM,
           "init": {"seed": 2, "scale": 1.5},
           "flow": {"beta": 0.1, "t0": 1.0, "dt": 1e-3, "horizon": 3.0,
                    "record_every": 50}}
    out = tmp_path / "energy"
    assert main(["energy-check", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    metadata = RunTrace.read_csv(out / "flow_trace.csv").metadata
    assert metadata["rtol"] == "None" and metadata["rejected"] == 0
    assert metadata["steps"] >= 2000


@pytest.mark.parametrize("component,code", [(-1e-10, 0), (-1e-8, 1)])
def test_energy_check_nonnegativity_slack(tmp_path, capsys, monkeypatch,
                                          component, code):
    """A ledger component below -1e-9 (1 + |E_total|) on its row fails the
    check: with E_total = 1 the slack is 2e-9, so -1e-8 fails and -1e-10
    passes. The flow is replaced by a trace with no drift."""
    ledger = dict.fromkeys(flow.LEDGER, 0.0)
    ledger.update(E_kinetic=1.0 - component, E_int_beta=component)

    def integrate(*args):
        trace = RunTrace(flow.COLUMNS)
        for t in (1.0, 2.0, 3.0):
            trace.append(t, 0.0, 0.0, 0.0, 1.0, *ledger.values())
        return trace
    monkeypatch.setattr(flow, "integrate", integrate)
    cfg = {"seed": 2, "problem": QUAD_PROBLEM,
           "flow": {"beta": 0.1, "t0": 1.0, "dt": 1e-3, "horizon": 3.0}}
    assert main(["energy-check", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "energy")]) == code
    out = capsys.readouterr().out
    assert f"nonnegativity_violations={3 * code}" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_energy_check_blowup_exit_code(tmp_path, capsys):
    """A blow-up prints one line with the last accepted t and, as a diverged
    discrete run does, keeps its partial trace stamped with ``diverged_at``,
    that t, and with the step counts up to the blow-up."""
    cfg = {"seed": 2, "problem": QUAD_PROBLEM,
           "init": {"seed": 2, "scale": 1.5},
           "flow": {"beta": 0.1, "t0": 1.0, "dt": 5.0, "horizon": 5000.0}}
    code = main(["energy-check", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "blow")])
    assert code == harness.EXIT_DIVERGENCE == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL blow-up at t=")
    last_t = lines[0].rpartition("=")[2]
    assert 1.0 < float(last_t) < 5000.0
    trace = RunTrace.read_csv(tmp_path / "blow" / "flow_trace.csv")
    assert str(trace.metadata["diverged_at"]) == last_t
    assert 1 <= len(trace) and trace.column("t")[-1] <= float(last_t)
    assert trace.metadata["steps"] >= len(trace) - 1
    assert trace.metadata["rejected"] >= 0


def test_every_output_carries_one_stamp(tmp_path):
    """run, compare and energy-check stamp each trace, comparison.csv and
    summary.csv with the same config_hash, seed and problem. threshold.csv
    is printed to stdout as written and carries no comment lines."""
    cfg = {"seed": 3, "problem": QUAD_PROBLEM, "iters": 20,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.4},
                          {"name": "dgd", "alpha": 0.05}],
           "flow": {"beta": 0.1, "horizon": 1.5, "record_every": 50}}
    path = write_config(tmp_path, cfg)
    for command in ("run", "compare", "energy-check"):
        assert main([command, path, "--out", str(tmp_path / command)]) == 0
    stamp = {"config_hash": harness.config_hash(cfg), "seed": 3,
             "problem": "quadratic"}
    written = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in written} == {
        "dist_agm_trace.csv", "dgd_trace.csv", "summary.csv",
        "comparison.csv", "threshold.csv", "flow_trace.csv"}
    for csv_path in written:
        metadata = RunTrace.read_csv(csv_path).metadata
        if csv_path.name == "threshold.csv":
            assert metadata == {}
            continue
        assert {key: metadata.get(key) for key in stamp} == stamp, csv_path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_summary_reads_last_k(tmp_path):
    """A run that diverges at k = 1 reports 1 iteration, not the configured
    count, and no slope."""
    cfg = {"problem": QUAD_PROBLEM, "iters": 50,
           "algorithms": [{"name": "dgd", "alpha": 1.0e+308}]}
    out = tmp_path / "div"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert RunTrace.read_csv(out / "dgd_trace.csv").metadata[
        "diverged_at"] == 1
    summary = RunTrace.read_csv(out / "summary.csv")
    assert len(summary) == 1
    assert summary.column("iterations")[-1] == 1
    assert summary.column("slope")[-1] == ""


def test_seed_override(tmp_path):
    cfg = {"seed": 1, "problem": QUAD_PROBLEM, "iters": 10,
           "algorithms": [{"name": "dgd", "alpha": 0.01}]}
    path = write_config(tmp_path, cfg)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", path, "--out", str(o1)]) == 0
    assert main(["run", path, "--out", str(o2), "--seed", "9"]) == 0
    t1 = RunTrace.read_csv(o1 / "dgd_trace.csv")
    t2 = RunTrace.read_csv(o2 / "dgd_trace.csv")
    assert t1.column("F_gap")[0] != t2.column("F_gap")[0]


def test_seed_override_reseeds_pinned_sections(tmp_path):
    cfg = {"seed": 1, "problem": QUAD_PROBLEM, "init": {"seed": 1},
           "iters": 10, "algorithms": [{"name": "dgd", "alpha": 0.01}]}
    path = write_config(tmp_path, cfg)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", path, "--out", str(o1)]) == 0
    assert main(["run", path, "--out", str(o2), "--seed", "9"]) == 0
    t1 = RunTrace.read_csv(o1 / "dgd_trace.csv")
    t2 = RunTrace.read_csv(o2 / "dgd_trace.csv")
    assert t1.column("F_gap")[0] != t2.column("F_gap")[0]
    assert t2.metadata["seed"] == 9


def test_solver_error_exit_code(tmp_path, capsys):
    cfg = {"problem": {"type": "logistic-synthetic", "n": 60, "p": 3,
                       "solver_max_iter": 1},
           "iters": 5, "algorithms": ["dgd"]}
    code = main(["run", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "s")])
    assert code == harness.EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1


def test_overflowing_start_diverges_at_the_first_row(tmp_path, capsys):
    """A finite start whose cost overflows stops at k = 0 with exit 3 and a
    stamped one-row trace, not a run of inf rows that exits 0."""
    cfg = {"problem": QUAD_PROBLEM, "init": {"scale": 1e300}, "iters": 5,
           "algorithms": [{"name": "dgd", "alpha": 0.01}]}
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == harness.EXIT_DIVERGENCE == 3
    trace = RunTrace.read_csv(out / "dgd_trace.csv")
    assert trace.metadata["diverged_at"] == 0
    assert {"config_hash", "seed", "problem"} <= set(trace.metadata)
    assert len(trace) == 1 and trace.column("F_gap")[0] == INF


def key_values(params):
    return "-".join(f"{k}={v}" for k, v in params.items())


def bad_algorithm(name, **params):
    """A ``run`` of one algorithm entry that must be refused with exit 2."""
    return pytest.param(
        "run", {"problem": QUAD_PROBLEM, "iters": 5,
                "algorithms": [dict(name=name, **params)]},
        name, id=f"run-{name}-{key_values(params)}")


def bad_section(command, key, value, problem=QUAD_PROBLEM, named=None):
    """A ``command`` whose config sets ``key`` (``section.name`` or a
    top-level name) to ``value``; it must be refused with exit 2 and a
    message naming the section, or ``named`` when given."""
    cfg = {"problem": dict(problem), "iters": 5,
           "algorithms": ["dist_agm", "dgd"]}
    section, _, name = key.partition(".")
    if name:
        cfg.setdefault(section, {})[name] = value
    else:
        cfg[section] = value
    return pytest.param(command, cfg, named or section,
                        id=f"{command}-{key}={value}")


def under_seeds(cases):
    """Each case as written, then under ``--seed 3``, which must be refused
    the same way."""
    for case in cases:
        yield pytest.param(*case.values, [], id=case.id)
        yield pytest.param(*case.values, ["--seed", "3"],
                           id=f"{case.id}-seed=3")


@pytest.mark.parametrize("command,cfg,section,seed", under_seeds([
    pytest.param("energy-check", {"problem": QUAD_PROBLEM,
                                  "flow": {"beta": 2.5}},
                 "flow", id="energy-check-cfg0-flow"),
    pytest.param("run", {"problem": QUAD_PROBLEM, "iters": 5,
                         "algorithms": [{"name": "dgd", "alpha": -1}]},
                 "dgd", id="run-cfg1-dgd"),
    pytest.param("compare", {"problem": QUAD_PROBLEM, "iters": 5,
                             "algorithms": [{"name": "dist_agm", "beta": 3.0},
                                            "dgd"]},
                 "dist_agm", id="compare-cfg2-dist_agm"),
    # a later entry's range is checked before the first entry runs
    pytest.param("compare", {"problem": QUAD_PROBLEM, "iters": 5,
                             "algorithms": ["dist_agm",
                                            {"name": "dgd", "alpha": -1}]},
                 "dgd", id="compare-dist_agm-then-dgd-alpha=-1"),
    # a NaN or infinite step size or gain is as invalid as a negative one
    *(bad_algorithm(name, **params) for name, params in [
        ("dist_agm", {"h": NAN}),
        ("dist_agm", {"mode": "fixed", "s": NAN}),
        ("dist_agm", {"mode": "fixed", "s": -1.0}),
        ("dist_agm", {"mode": "fixed", "s": True}),
        ("dist_agm", {"s1_fraction": NAN}),
        ("dist_agm", {"s1_fraction": -1.0}),
        ("dgd", {"alpha": NAN}),
        ("diging", {"alpha": INF}),
        ("pi_consensus", {"alpha": NAN}),
        ("pi_consensus", {"beta_gain": NAN}),
        ("pi_consensus", {"h_step": INF}),
    ]),
    *(pytest.param("energy-check", {"problem": QUAD_PROBLEM, "flow": flow},
                   "flow", id=f"energy-check-{key_values(flow)}")
      for flow in ({"dt": NAN}, {"k_gain": INF}, {"horizon": INF},
                   {"record_every": -3}, {"rtol": NAN}, {"rtol": INF},
                   {"rtol": 0.0}, {"rtol": -1e-8}, {"rtol": "x"},
                   {"rtol": True})),
    bad_algorithm("dist_agm", mode="fxied"),
    # each dist_agm mode reads its own keys
    bad_algorithm("dist_agm", mode="fixed", oracle_mode="practicl"),
    bad_algorithm("dist_agm", s=-3),
    # a bad value in any other section ends the same way, naming it
    *(bad_section(*case) for case in [
        ("run", "graph.m", "two"),
        ("run", "problem.d", "two"),
        # a problem with no dimension is refused before it is built
        ("run", "problem.d", 0),
        ("energy-check", "problem.d", 0),
        # a negative one too, in the same words as d = 0
        *((command, "problem.d", -1, QUAD_PROBLEM,
           "problem: need at least 1 agent and 1 dimension, got m=5 and "
           "d=-1") for command in ("run", "energy-check")),
        ("run", "problem.scale", -1),
        ("run", "problem.cond", 0.5),
        ("run", "graph.kind", "hexagon"),
        # a NaN or infinite problem or start value is a config error, not
        # a run that diverges
        ("run", "problem.cond", NAN),
        ("run", "problem.scale", INF),
        ("run", "problem.common_offset", [NAN, 0.1]),
        ("run", "init.scale", NAN),
        ("run", "init.scale", INF),
        ("run", "problem.n", 3, {"type": "logistic-synthetic", "p": 3}),
        # a logistic ridge or solver setting out of range, named by its
        # config key; the short solver budget keeps a run that misses the
        # check fast
        *(("run", f"problem.{key}", value, SMALL_LOGISTIC, f"problem: {key}")
          for key, value in [
            ("l2", NAN), ("l2", -1.0), ("solver_tol", NAN),
            ("solver_tol", 0.0), ("solver_max_iter", -1)]),
        ("run", "init.scale", "x"),
        ("run", "iters", "abc"),
        ("run", "iters", -5),
        ("compare", "gap_threshold", "x"),
        ("energy-check", "drift_tolerance", "x"),
        # the two thresholds must be finite and positive
        ("energy-check", "drift_tolerance", NAN),
        ("compare", "gap_threshold", -1),
        # a key no function reads is refused, not run with the default
        ("energy-check", "flow.bta", 0.5, QUAD_PROBLEM,
         "flow: unknown key bta"),
        ("run", "graph.kidn", "ring", QUAD_PROBLEM,
         "graph: unknown key kidn"),
        ("energy-check", "drift_tolerence", 1e-3, QUAD_PROBLEM,
         "unknown key drift_tolerence"),
        # n and p shape only the logistic data
        ("run", "problem.n", 100, QUAD_PROBLEM, "problem: unknown key n"),
        # a section that is not a mapping
        ("run", "graph", 5),
        ("run", "problem", 5),
        ("run", "init", "x"),
        ("energy-check", "flow", 1),
        # a whole number is refused when fractional, not truncated
        ("run", "graph.m", 5.7),
        ("run", "iters", 20.9),
        ("run", "iters", INF),
        ("energy-check", "flow.record_every", 2.9),
        # a bool is not a number, and a flag takes only true or false
        ("run", "iters", True),
        ("compare", "gap_threshold", True),
        ("run", "init.consensus", "false"),
        # every command reads every section
        ("run", "flow.bta", 0.5, QUAD_PROBLEM, "flow: unknown key bta"),
        ("energy-check", "algorithms", [{"name": "dgd", "alhpa": 0.02}],
         QUAD_PROBLEM, "dgd: unknown key alhpa"),
        ("run", "algorithms", [{"name": [1]}], QUAD_PROBLEM,
         "unknown algorithm [1]"),
        # the second entry is read before the first one runs
        ("compare", "algorithms", ["dist_agm", {"name": "dgd", "alhpa": 0.02}],
         QUAD_PROBLEM, "dgd: unknown key alhpa"),
    ]),
    # two runs of one name would write one trace file
    pytest.param("run", {"problem": QUAD_PROBLEM, "iters": 5, "algorithms": [
        {"name": "dgd", "alpha": 0.01}, {"name": "dgd", "alpha": 0.05}]},
        "dgd", id="run-duplicate-dgd"),
    pytest.param("run", {"problem": QUAD_PROBLEM, "iters": 5,
                         "algorithms": [{"alpha": 0.01}]},
                 "algorithms", id="run-algorithm-without-name"),
    pytest.param("run", {"problem": QUAD_PROBLEM, "iters": 5,
                         "algorithms": "dgd"},
                 "algorithms", id="run-algorithms-not-a-list"),
    pytest.param("run", {"problem": QUAD_PROBLEM, "iters": 5,
                         "algorithms": []},
                 "at least one algorithm", id="run-no-algorithms"),
]))
def test_invalid_config_value_exit_code(command, cfg, section, seed,
                                        tmp_path, capsys):
    out = tmp_path / "o"
    code = main([command, write_config(tmp_path, cfg), "--out", str(out),
                 *seed])
    assert code == harness.EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert section in err
    assert not out.exists()


def test_unknown_algorithm_key_exit_code(tmp_path, capsys):
    """A misspelt key is an error, not a silent fall-back to the default."""
    cfg = {"problem": QUAD_PROBLEM, "iters": 5,
           "algorithms": [{"name": "dgd", "alhpa": 0.02}]}
    code = main(["run", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "dgd" in err and "alhpa" in err


def test_shipped_algorithm_keys_accepted(ring5, flow_quadratic, x0_ring5,
                                         tmp_path, monkeypatch, capsys):
    """Every key of every shipped config is one the harness reads. The
    energy check reads every section, algorithm entries included, and stops
    here at the flow's first step; each entry's run takes its settings."""
    def integrate(*args, **kwargs):
        raise DivergenceError("stop", at=0.0, trace=RunTrace(flow.COLUMNS))

    monkeypatch.setattr(flow, "integrate", integrate)
    obj, opt = flow_quadratic
    paths = sorted(CONFIGS.rglob("*.yaml"))
    for path in paths:
        cfg = harness.load_config(path)
        assert harness.cmd_energy_check(cfg, str(tmp_path), None) == 3, path
        for name, settings in checked(cfg)["algorithms"].items():
            trace = harness.run_algorithm(name, settings, obj, ring5,
                                          x0_ring5, opt, iters=0)
            assert len(trace) == 1
    assert paths


def test_mnist_fallback_reads_n_and_p(tmp_path):
    """Without the IDX files a logistic-mnist problem solves the synthetic
    data that its n and p shape."""
    cfg = {"problem": {"type": "logistic-mnist", "dataset_root": str(tmp_path),
                       "n": 60, "p": 3}}
    obj, _, label = harness.build_problem(checked(cfg),
                                          harness.build_graph(checked({})))
    assert sum(z.shape[0] for z in obj.Zs) == 60 and obj.d == 4
    assert label.startswith("synthetic-gaussian")


@pytest.mark.parametrize("cap", [0, -5])
def test_mnist_cap_below_one_exit_code(cap, tmp_path, capsys):
    """A row cap below 1 is refused by name, with exit 2 and no output
    directory, not read as a slice that drops the last |cap| rows."""
    rng = np.random.default_rng(5)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(serialize_idx(
        rng.integers(0, 256, size=(120, 2, 2)).astype(np.uint8)))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(serialize_idx(
        rng.choice([1, 5], size=120).astype(np.uint8)))
    cfg = {"problem": {"type": "logistic-mnist",
                       "dataset_root": str(tmp_path), "cap": cap},
           "iters": 5, "algorithms": ["dgd"]}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, cfg), "--out",
                 str(out)]) == harness.EXIT_CONFIG == 2
    assert capsys.readouterr().err == (
        f"config error: problem: cap must be >= 1, got {cap}\n")
    assert not out.exists()


def effective_args(fn, *args, **kwargs):
    """The arguments ``fn`` runs with: those passed plus its defaults."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


@pytest.mark.parametrize("cfg", [
    {}, {"graph": {}, "problem": {}, "init": {}, "flow": {}}],
    ids=["omitted", "empty"])
def test_omitted_keys_build_library_defaults(cfg, tmp_path, monkeypatch):
    """A section with no keys builds what the library builds from the
    required arguments alone, which the harness sets to ring, 5 agents and
    d = 2; an algorithm entry or flow section with no keys builds its
    parameter dataclass's defaults."""
    settings = checked(cfg)
    graph = harness.build_graph(settings)
    ring = build_topology("ring", 5)
    assert (graph.m, graph.edges) == (ring.m, ring.edges)
    obj, opt, label = harness.build_problem(settings, graph)
    quad = make_quadratic(5, 2)
    np.testing.assert_array_equal(obj.Qs, quad.Qs)
    np.testing.assert_array_equal(obj.bs, quad.bs)
    assert label == "quadratic"
    x0 = harness.initial_state(settings, graph, obj)
    np.testing.assert_array_equal(
        x0, 0.1 * np.random.default_rng(0).standard_normal(10))

    def bare(name):
        params = checked({"algorithms": [name]})["algorithms"][name]
        return harness.run_algorithm(name, params, obj, graph, x0, opt,
                                     iters=0).metadata

    assert bare("dist_agm") == agm.adaptive_run(agm.AdaptiveParams(), obj,
                                                graph, x0, 0, opt).metadata
    assert {key: bare("dist_agm")[key] for key in (
        "algorithm", "h", "beta", "oracle_mode")} == {
        "algorithm": "dist_agm_adaptive", "h": 10.0, "beta": 0.1,
        "oracle_mode": "exact"}
    assert bare("dgd")["alpha"] == bare("diging")["alpha"] == 0.001
    assert {key: bare("pi_consensus")[key] for key in (
        "alpha", "beta_gain", "h_step")} == {
        "alpha": 0.01, "beta_gain": 0.1, "h_step": 0.05}

    seen = {}
    real_integrate = flow.integrate

    def integrate(*args, **kwargs):
        seen.update(effective_args(real_integrate, *args, **kwargs))
        raise DivergenceError("stop", at=0.0, trace=RunTrace(flow.COLUMNS))

    monkeypatch.setattr(flow, "integrate", integrate)
    assert harness.cmd_energy_check(cfg, str(tmp_path), None) == 3
    assert seen["params"] == flow.FlowParams() == flow.FlowParams(beta=0.1)
    assert seen["params"].record_every == 10


def test_logistic_problems_build_library_defaults(tmp_path, monkeypatch):
    """A logistic problem that sets only its type solves the n=500, p=10
    synthetic data, or the first 500 images of digits 5 and 1, with a
    ridge of 1e-4 to a gradient norm of 1e-9 in at most 500000 steps."""
    solver_args = []
    real_solve = harness.solve_consensus_optimum

    def solve(*args, **kwargs):
        solver_args.append(effective_args(real_solve, *args, **kwargs))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_consensus_optimum", solve)
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(900, 2, 2)).astype(np.uint8)
    labels = rng.choice([1, 5, 7], size=900).astype(np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        serialize_idx(images))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        serialize_idx(labels))
    expected = {
        "logistic-synthetic": data_io.synthetic_gaussian_dataset(
            n=500, p=10, seed=0),
        "logistic-mnist": data_io.build_binary_dataset(
            images, labels, positive_digit=5, negative_digit=1, cap=500,
            seed=0),
    }
    graph = harness.build_graph(checked({}))
    for kind, ds in expected.items():
        cfg = {"problem": {"type": kind, "dataset_root": str(tmp_path)}}
        if kind == "logistic-synthetic":
            del cfg["problem"]["dataset_root"]
        obj, _, _ = harness.build_problem(checked(cfg), graph)
        np.testing.assert_array_equal(np.vstack(obj.Zs), ds.features)
        np.testing.assert_array_equal(obj.Y[obj.mask == 1.0], ds.labels)
        assert obj.l2 == 1e-4
    assert [(args["tol"], args["max_iter"]) for args in solver_args] == [
        (1e-9, 500_000)] * 2


def test_readme_commands_parse():
    """Every ``distagm ...`` line in the README's sh blocks parses with the
    CLI's parser, and every configs/ path such a line names exists. The
    commands are parsed, not run."""
    blocks = re.findall(r"^ *```sh\n(.*?)^ *```", README.read_text(),
                        re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.splitlines()
                if line.split()[:1] == ["distagm"]]
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        for arg in argv:
            if arg.startswith("configs/"):
                assert (CONFIGS.parent / arg).exists(), arg
