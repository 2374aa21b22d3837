"""The benchmark's traced run wraps uqfv names from outside; they must exist.

``bench/layers.py`` wraps module-level names (``uqfv.sg.apply_limiter``,
``uqfv.ipm._dual_eval``, ...) by ``getattr``; a refactor that drops or moves
one of them breaks ``bench/run.py --trace 1`` without failing any solver test.
"""

import sys
from pathlib import Path

# appended, not prepended: bench/conftest.py must not shadow tests/conftest.py
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


def test_every_traced_name_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in layers.hooks(layers.library_api())
        if not hasattr(owner, attr)
    ]
    assert missing == []
