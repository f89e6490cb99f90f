"""The scripts under scripts/ run to the end in a fresh interpreter."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# scripts/make_golden_reports.py is left out: it rewrites the goldens
@pytest.mark.parametrize("argv", [
    ["dispersion_probe.py"],
    ["kernel_memory.py"],
    ["classification_scan.py", "--spectra", "1:2", "--sites", "8"]])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
