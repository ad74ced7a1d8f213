"""The report scripts run end to end against the library API."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_regimes_reports_every_regime():
    result = run_script("run_regimes.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines.count("verdict: PASS") == 4
    assert "truncated: True after 119 steps (t = 14.875)" in lines
