"""The package imports only what ``pyproject.toml`` declares."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["networkx", "numpy"])
def test_runtime_does_not_import(module):
    """The runtime is stdlib-only: networkx is a test-time reference and
    numpy is not used at all, so neither may be imported by the CLI, the
    campaign runner, the workload package or the figure reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, repro.cli, repro.scenario.run, repro.scenario.report, "
        f"repro.workload; print({module!r} in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
