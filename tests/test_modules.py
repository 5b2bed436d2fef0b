"""Module boundaries inside the package."""

import ast
from dataclasses import fields
from pathlib import Path

from distagm import agm, baselines, flow, harness

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "distagm"


def test_no_private_imports_between_modules():
    """A module reads only its siblings' public names: an underscore-prefixed
    name imported from another module is a copy of a decision that should
    live behind a public name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "distagm":
                continue
            found += [f"{path.name}: {alias.name} from {node.module}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_only_trace_writes_csv():
    """Every CSV the package writes goes through RunTrace.write_csv, so
    trace.py is the only module that imports csv."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["trace.py"]


def test_one_function_reads_the_raw_config():
    """The raw config is read in one pass, by ``harness.check_config``:
    every other function takes the settings it returns. Only the hash and
    the three config commands, which pass it on, also take a ``cfg``, and
    cli.py names no config section, so the harness applies ``--seed``."""
    takers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs)
                if any(arg.arg in ("cfg", "config") for arg in args):
                    takers.append(node.name)
    assert sorted(takers) == ["check_config", "cmd_compare",
                              "cmd_energy_check", "cmd_run", "config_hash"]
    sections = ("graph", "problem", "init", "flow", "algorithms")
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    named = [node.value for node in ast.walk(cli)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(node.value == name or f"{name}." in node.value
                     for name in sections)]
    assert named == []


# The parameter dataclass each algorithm entry (and dist_agm mode) builds.
ALGORITHM_PARAMS = {("dist_agm", "adaptive"): agm.AdaptiveParams,
                    ("dist_agm", "fixed"): agm.FixedParams,
                    ("dgd", None): baselines.StepParams,
                    ("diging", None): baselines.StepParams,
                    ("pi_consensus", None): baselines.PIParams}


def test_algorithm_keys_are_dataclass_fields():
    """An algorithm entry accepts exactly the fields of its run's parameter
    dataclass, besides ``name`` and dist_agm's ``mode``, and check_config
    builds that dataclass from it: each knob is named in one place."""
    knobs = {field.name: field.default for cls in ALGORITHM_PARAMS.values()
             for field in fields(cls)}
    for (name, mode), cls in ALGORITHM_PARAMS.items():
        entry = {"name": name, **({} if mode is None else {"mode": mode})}
        accepted = set()
        for key, value in knobs.items():
            try:
                settings = harness.check_config(
                    {"algorithms": [{**entry, key: value}]}, None)
            except harness.ConfigError as err:
                assert f"unknown key {key}" in str(err)
                continue
            accepted.add(key)
            assert type(settings["algorithms"][name]) is cls
        assert accepted == {field.name for field in fields(cls)}, name


def test_harness_names_no_algorithm_knob():
    """harness.py derives an algorithm entry's and the flow's keys from
    their dataclasses, and reads the flow trace's ledger columns from
    ``flow.LEDGER``, so no string constant there names a knob or a ledger
    term."""
    knobs = {field.name for cls in (*ALGORITHM_PARAMS.values(),
                                    flow.FlowParams)
             for field in fields(cls)} | set(flow.LEDGER)
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    named = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in knobs]
    assert named == []
