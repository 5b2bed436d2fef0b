"""Module boundaries inside the package."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

from distagm import agm, baselines, flow, harness, objectives
from distagm.trace import RunTrace

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "distagm"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent


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


def test_run_modules_import_nothing_from_each_other():
    """agm, baselines and flow are peers above trace.py, which holds the
    trace schemas, the discrete recorder and the divergence guard: none of
    them imports from another (baselines from agm, say)."""
    peers = ("agm", "baselines", "flow")
    found = []
    for peer in peers:
        tree = ast.parse((PACKAGE / f"{peer}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" if node.module
                         else alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{peer}: {name}" for name in names
                      if set(name.split(".")) & set(peers) - {peer}]
    assert found == []


def test_every_imported_name_is_used():
    """Each name a module under src/ or tests/ imports is loaded somewhere in
    that module or listed in its ``__all__``; ``from __future__`` imports
    are exempt."""
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        imported, loaded, exported = [], set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0]
                             for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [alias.asname or alias.name
                             for alias in node.names if alias.name != "*"]
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["__all__"]):
                exported.update(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in loaded | exported]
    assert unused == []


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


def test_every_public_name_is_read():
    """Each name in a module's ``__all__`` is read by package code outside
    its own definition, or named in perfbench/, which looks names up at
    call time: a name only tests call belongs in tests/oracles.py. The one
    exemption is ``flow.flow_rhs``, the stacked statement of the flow's
    dynamics, which ``integrate`` unrolls into its stage buffers and the
    tests integrate as the reference."""
    exported, reads = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            targets = ([stmt.name] if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else
                [t.id for t in getattr(stmt, "targets", [])
                 if isinstance(t, ast.Name)])
            if targets == ["__all__"]:
                exported[path.stem] = ast.literal_eval(stmt.value)
                continue
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        None)
                if name is not None:
                    # a read in the statement that defines the same name is
                    # tagged with its module: it is no use of that export
                    reads.add((path.stem if name in targets else "", name))
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.iterdir())
                      if p.is_file())
    unread = [f"{module}.{name}" for module, names in exported.items()
              for name in names
              if not any(n == name and m != module for m, n in reads)
              and not re.search(rf"\b{name}\b", bench)]
    assert unread == ["flow.flow_rhs"]


def test_objectives_have_one_evaluation_path():
    """Each objective family's public methods are the ones the package
    reads: the cost and the fused cost and gradient on the stacked state,
    the centralized Hessian, ``stack`` and the quadratic's closed form. The
    gradient comes only with the cost, from ``value_grad``. The reference
    solver reads the centralized cost and gradient through the stacked
    oracles, so a per-agent or centralized form of either belongs in
    tests/oracles.py."""
    common = {"value", "value_grad", "central_hess", "stack"}
    expected = {objectives.SeparableObjective: common,
                objectives.QuadraticObjective: common | {"closed_form_optimum"},
                objectives.LogisticObjective: common}
    for cls, names in expected.items():
        public = {name for name in dir(cls) if not name.startswith("_")
                  and callable(getattr(cls, name))}
        assert public == names, cls.__name__


def test_run_trace_methods_are_read():
    """RunTrace's public methods are the ones the package or perfbench/
    reads: a reader only tests need is a column read in the test."""
    public = {name for name in dir(RunTrace) if not name.startswith("_")
              and callable(getattr(RunTrace, name))}
    assert public == {"append", "column", "write_csv", "read_csv"}
    reads = {node.attr for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "trace.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)}
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    assert [name for name in sorted(public) if name not in reads
            and not re.search(rf"\b{name}\b", bench)] == []


def test_one_exception_class_per_failure():
    """The package's exception classes: a bad config, graph (one not
    connected among them) or IDX file, a reference solve that did not
    converge, and a run that left the finite range, the one stop error of
    the flow and the discrete runs."""
    found = set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):  # the modules, not __init__
        module = importlib.import_module(f"distagm.{path.stem}")
        found |= {name for name, value in vars(module).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)
                  and value.__module__ == module.__name__}
    assert found == {"ConfigError", "GraphError", "NotConnectedError",
                     "IdxParseError", "SolverError", "DivergenceError"}
