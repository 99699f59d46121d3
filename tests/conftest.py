"""Let the `python -m pinchtrace` subprocesses some tests start import the
source tree too; pyproject's `pythonpath` covers only this process. Every
hypothesis property runs derandomized and without a deadline: a draw is
the same on every run, and mpmath oracles are slow. Hypothesis adds no
literal of a local module to its draws, so an edit in `src/` leaves every
property's draws where they were (ROADMAP.md item 25, FOUND 88)."""

import os
from pathlib import Path

from hypothesis import settings

try:  # private API, checked on Hypothesis 6.155.2
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    providers._get_local_constants  # fail here, not in a draw, if it moved
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "FOUND 88: hypothesis.internal.conjecture.providers._get_local_constants is gone; "
        "property draws would follow the literals of src/ again") from exc

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

_NO_LOCAL_CONSTANTS = Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS

settings.register_profile("pinchtrace", derandomize=True, deadline=None)
settings.load_profile("pinchtrace")
