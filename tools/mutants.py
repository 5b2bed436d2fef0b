"""One-line mutants of ``src/distagm`` and the tests that must kill them.

Run from the root of a checkout (standard library and pytest only):

    python3 tools/mutants.py

The checkout's ``src``, ``tests``, ``configs``, ``README.md`` and
``pyproject.toml`` are copied to a temporary directory. The tests named by
any mutant first run there unmutated and must pass. Then each mutant in
turn replaces one piece of text, found exactly once in its file, runs the
tests named for it and restores the file. A mutant is killed when those
tests fail and survives when they pass. The exit code is 1 when a mutant
survives without a stated reason, when the unmutated run fails, or when a
mutant's text is not found exactly once in its file.

Tier-1 does not collect this script: it lies outside ``tests/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    # Why the mutant is equivalent, when no test can kill it.
    reason: str | None = None


MUTANTS = (
    Mutant("rate fit: log t not centred", "src/distagm/flow.py",
           "lt -= lt.mean()", "lt -= 0.0",
           ("tests/test_flow.py::test_rate_slope_exact_power_laws",
            "tests/test_flow.py::test_rate_slope_matches_polyfit")),
    Mutant("rate fit: S_xx in place of S_yy in R^2", "src/distagm/flow.py",
           "(syy - slope * sxy) / syy", "(syy - slope * sxy) / sxx",
           ("tests/test_flow.py::test_rate_slope_matches_polyfit",)),
    Mutant("rate fit: finite filter dropped", "src/distagm/flow.py",
           "(gaps > 0.0) & (gaps < np.inf)", "(gaps > 0.0)",
           ("tests/test_flow.py::"
            "test_rate_slope_drops_and_flags_gaps_not_finite_and_positive",
            "tests/test_harness.py::"
            "test_cmd_rate_check_flags_a_last_gap_not_finite")),
    Mutant("_evaluate: (k h) ** -beta as (k h^2) ** -beta",
           "src/distagm/agm.py",
           "(state.k * state.h) ** (-state.beta)",
           "(state.k * state.h * state.h) ** (-state.beta)",
           ("tests/test_agm.py::test_discrete_dilation_symmetry",)),
    Mutant("step: -s theta_k as -s^2 theta_k", "src/distagm/agm.py",
           "-s * th_k", "-s * s * th_k",
           ("tests/test_agm.py::test_discrete_dilation_symmetry",)),
    Mutant("_select: w <= 0 as w < 0", "src/distagm/agm.py",
           "not w <= 0.0", "not w < 0.0",
           ("tests/test_agm.py::test_select_case_bounds",)),
    Mutant("_select: (a, b) and (a~, b~) swapped", "src/distagm/agm.py",
           "(a_tilde, b_tilde) if tilde else (a, b)",
           "(a, b) if tilde else (a_tilde, b_tilde)",
           ("tests/test_agm.py::test_select_case_bounds",)),
    Mutant("_select: A_k dropped from the r < 0 numerator",
           "src/distagm/agm.py", "4.0 * A_k * num", "4.0 * num",
           ("tests/test_agm.py::test_select_case_bounds",)),
    Mutant("_select: theta_{k+1} (-r) dropped", "src/distagm/agm.py",
           "A_k * den + theta_next * (-r)", "A_k * den",
           ("tests/test_agm.py::test_select_case_bounds",)),
    Mutant("_transition: consensus term as 1/2 X . Llift X, without x*",
           "src/distagm/agm.py", "quad = 0.5 * x_lx",
           "quad = 0.5 * float(prev.X.dot(prev.lx))",
           ("tests/test_acceptance.py::test_criterion_4_discrete_rate",
            "tests/test_agm.py::"
            "test_certificate_holds_across_common_minimizer_quadratics")),
    Mutant("integrate: a row after steps % record_every == 1",
           "src/distagm/flow.py", "steps % params.record_every == 0",
           "steps % params.record_every == 1",
           ("tests/test_golden.py::test_ramp_flow_trace_bytes",
            "tests/test_flow.py::test_controlled_step_conserves_energy")),
    Mutant("_format_cell: an int cell with %.17g", "src/distagm/trace.py",
           '"%d" % cell', '"%.17g" % cell',
           ("tests/test_trace.py::"
            "test_write_csv_matches_a_cell_by_cell_writer",)),
    Mutant("_cap: weight L_f as weight^2 L_f", "src/distagm/agm.py",
           "weight * l_f", "weight * weight * l_f",
           ("tests/test_agm.py::test_discrete_dilation_symmetry",)),
    Mutant("_field_row: -3/t as -3/t^2", "src/distagm/flow.py",
           "-3.0 / t,", "-3.0 / (t * t),",
           ("tests/test_flow.py::test_flow_dilation_symmetry",)),
)


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for ``tests`` in ``copy``. No bytecode is
    written, so a restored file is never read from a mutant's cache."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="distagm-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if run_tests(copy, named) != 0:
            print("the named tests fail on the unmutated copy")
            return 1
        bad = 0
        for mutant in MUTANTS:
            path = copy / mutant.path
            source = path.read_text()
            if source.count(mutant.old) != 1:
                print(f"not found once  {mutant.name}")
                bad += 1
                continue
            path.write_text(source.replace(mutant.old, mutant.new))
            try:
                code = run_tests(copy, mutant.tests)
            finally:
                path.write_text(source)
            if code == 1:
                status = "killed"
            elif code == 0:
                status = "survived"
                bad += mutant.reason is None
            else:
                status = f"error {code}"
                bad += 1
            print(f"{status:15} {mutant.name}"
                  + (f" ({mutant.reason})" if status == "survived"
                     and mutant.reason else ""))
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
