"""Let the `python -m pinchtrace` subprocesses some tests start import the
source tree too; pyproject's `pythonpath` covers only this process. Every
hypothesis property runs derandomized and without a deadline: a draw is
the same on every run, and mpmath oracles are slow."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("pinchtrace", derandomize=True, deadline=None)
settings.load_profile("pinchtrace")
