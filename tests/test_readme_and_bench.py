"""What callers outside the package run: README's library example and the
benchmark's smoke check, which reaches every module function the benchmark
calls (`harmonic.encode` with `EncodeStats`, the Shamir and LCC module
encodes and decodes, `DecodeVector.int_weights`, `encoding_matrix(...).apply`
and `ClearStorageScheme`). A deletion that breaks either fails here."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    [block] = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0],
                         re.DOTALL | re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("refused: ")


def test_benchmark_smoke_passes():
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith(" 0 failed")
