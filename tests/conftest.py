"""Let the `python -m pinchtrace` subprocesses some tests start import the
source tree too; pyproject's `pythonpath` covers only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
