"""The README walkthroughs run to completion: ``demos/`` in their own processes, README's python blocks in this one."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_families_and_energy.py", "02_transform_spectra.py", "03_verification_suite.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    argv = [sys.executable, str(ROOT / "demos" / name)]
    if name.startswith("03"):
        argv.append(str(report))  # the suite demo writes its reports when given a path
    proc = subprocess.run(
        argv, capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if name.startswith("03"):
        assert len(json.loads(report.read_text())) == 368


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
