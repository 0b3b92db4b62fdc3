"""tools/ci_local.py reads the workflow's steps and runs them locally."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ci_local():
    spec = importlib.util.spec_from_file_location(
        "ci_local", os.path.join(ROOT, "tools", "ci_local.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_workflow_steps_that_run_commands():
    # the unnamed step that only installs pytest and hypothesis drops out
    ci_local = load_ci_local()
    assert [name for name, _ in ci_local.steps(ci_local.WORKFLOW)] == [
        "Tier-1 tests", "Mutants", "Benchmark smoke check", "Benchmark tests",
        "Traced workload replays", "Installed entry point",
        "Auditor memory through the entry point",
        "Multi-key and m=2 audits through the entry point"]


WORKFLOW = """\
jobs:
  tests:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - run: python -m pip install pytest
      - name: Entry point
        # a comment between the keys
        run: |
          python -m pip install .
          test -f src/harmcode/sim.py
          harmcode demo > /dev/null
      # a comment at the steps' own indent
      - name: Fails
        run: exit 3
"""


def test_runs_each_step_and_reports_its_exit_code(tmp_path, capsys, monkeypatch):
    ci_local = load_ci_local()
    workflow = tmp_path / "tests.yml"
    workflow.write_text(WORKFLOW)
    monkeypatch.setattr(ci_local, "WORKFLOW", str(workflow))
    assert ci_local.steps(str(workflow)) == [
        ("Entry point", "test -f src/harmcode/sim.py\nharmcode demo > /dev/null\n"),
        ("Fails", "exit 3\n")]
    assert ci_local.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "not a CI host" in out[0] and "not from a wheel" in out[0]
    reports = [re.fullmatch(r"exit +(\d+) +[\d.]+ s  (.+)", line) for line in out]
    assert [r.groups() for r in reports if r] == [("0", "Entry point"), ("3", "Fails")]
    assert out[-1] == "1 of 2 steps passed"
