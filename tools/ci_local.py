"""Run the CI workflow's steps locally, one by one.

    python tools/ci_local.py                       # every step
    python tools/ci_local.py "Auditor memory" ...  # steps whose name contains one of these

Run from anywhere inside a checkout. This reads the ``run:`` block of each
step of ``.github/workflows/tests.yml``, drops its ``pip install`` lines,
and runs what is left under ``bash -eo pipefail`` in a fresh temporary
copy of the checkout. There ``PYTHONPATH`` points at the copy's ``src``,
and ``python``, ``python3`` and a ``harmcode`` wrapper
(``python3 -m harmcode.cli``) on ``PATH`` all run the interpreter running
this. It prints each step's exit code, seconds and name,
and exits 1 if any step fails, else 0.

This is not a CI host: the matrix's other Python versions do not run, and
``harmcode`` is the checkout's source, not an installed wheel. A step that
only passes on a clean runner (one that writes files the checkout ignores,
say) may still pass here, and the reverse.

Stdlib only. The workflow parser knows just the shapes that file uses: a
``steps:`` list whose items carry ``name:``, ``uses:``, ``with:`` and ``run:``,
the last either inline or a ``|`` block.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
_PIP = re.compile(r"^\s*(python3? -m )?pip3? install\b")
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "traces", "*.egg-info", "build")


def steps(path: str) -> list[tuple[str, str]]:
    """(name, script) of each step of the workflow at path with a ``run:``
    block, in file order, its ``pip install`` lines dropped; a step left with
    no command is skipped. A step with no ``name:`` is named by its script's
    first line. Blank and ``#`` comment lines outside a block are passed over."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    found = []
    item = None  # indent of the current step's "- "
    name = script = None
    in_steps = False

    def close():
        if script is not None:
            kept = [line for line in script if not _PIP.match(line)]
            if any(line.strip() and not line.strip().startswith("#") for line in kept):
                found.append((name or kept[0].strip(), "\n".join(kept) + "\n"))

    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        i += 1
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "steps:":
            in_steps = True
            continue
        if not in_steps:
            continue
        if stripped.startswith("- ") and (item is None or indent <= item):
            if item is not None:
                close()
            item, name, script = indent, None, None
            stripped, indent = stripped[2:], indent + 2
        elif item is not None and indent < item + 2:
            close()
            item, in_steps = None, False
        if item is None:
            continue
        if stripped.startswith("name:"):
            name = stripped[5:].strip()
        elif stripped.startswith("run:"):
            value = stripped[4:].strip()
            if value != "|":
                script = [value]
                continue
            script = []
            while i < len(lines) and (not lines[i].strip() or
                                      len(lines[i]) - len(lines[i].lstrip()) > indent):
                script.append(lines[i])
                i += 1
            block = min((len(s) - len(s.lstrip()) for s in script if s.strip()), default=0)
            script = [s[block:] for s in script]
    if item is not None:
        close()
    return found


def run_step(script: str, root: str = ROOT) -> int:
    """The exit code of one step's script, run in a fresh copy of root."""
    with tempfile.TemporaryDirectory(prefix="harmcode-ci-") as tmp:
        work = os.path.join(tmp, "checkout")
        shutil.copytree(root, work, ignore=_IGNORE)
        bin_dir = os.path.join(tmp, "bin")
        os.mkdir(bin_dir)
        for tool, command in (("python", ""), ("python3", ""), ("harmcode", " -m harmcode.cli")):
            target = os.path.join(bin_dir, tool)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(f'#!/bin/sh\nexec "{sys.executable}"{command} "$@"\n')
            os.chmod(target, 0o755)
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
                   PATH=bin_dir + os.pathsep + os.environ.get("PATH", ""))
        return subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=work,
                              env=env).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the CI workflow's steps locally.")
    parser.add_argument("names", nargs="*", help="run only steps whose name contains one")
    args = parser.parse_args(argv)
    chosen = [(name, script) for name, script in steps(WORKFLOW)
              if not args.names or any(n in name for n in args.names)]
    print(f"ci_local: {os.path.relpath(WORKFLOW)} on {sys.executable} "
          f"(Python {sys.version.split()[0]}); not a CI host, and harmcode runs from the "
          "checkout's src, not from a wheel", flush=True)
    failed = 0
    for name, script in chosen:
        start = time.perf_counter()
        code = run_step(script)
        failed += code != 0
        print(f"exit {code:3d} {time.perf_counter() - start:8.2f} s  {name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
