"""The package imports only what ``pyproject.toml`` declares."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_and_reports_do_not_import_networkx():
    """networkx is a test-time reference only, never a runtime import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, repro.cli, repro.scenario.report; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
