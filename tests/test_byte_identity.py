"""Trained models and CLI artifacts stay byte-identical.

``scripts/byte_identity.sha256`` holds the output of
``python3 scripts/byte_identity.py``: the sha256 of each of its 12
artifacts.  A change that alters an artifact on purpose bumps the model
format version and writes the file again.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_cli_artifacts_match_the_recorded_hashes():
    run = subprocess.run([sys.executable, str(SCRIPTS / "byte_identity.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (SCRIPTS / "byte_identity.sha256").read_text()
