"""Puts the checkout's src first on the import path, for this process and
the child interpreters the tests start, so a bare ``python -m pytest``
from the repository root runs the suite."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *(p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)])
