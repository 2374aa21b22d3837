"""The golden configs of ``tools/stats_hashes.py`` against ``tests/golden.json``.

Each config runs as ``uqfv run`` runs it; the half-plane records, which vary
in y, run through the library API. On the platform the file was
written on (numpy, its BLAS build, the machine) the outputs must be bit for
bit the recorded ones. Elsewhere round-off may differ, so the steps and
Newton counts must match and the errors agree to ``ERRORS_REL``.
``python3 tools/stats_hashes.py --write`` rewrites the file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("stats_hashes", ROOT / "tools" / "stats_hashes.py")
stats_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stats_hashes)

GOLDEN = json.loads(stats_hashes.GOLDEN.read_text())
ERRORS_REL = 1e-9


def test_golden_file_covers_every_config():
    assert list(GOLDEN["configs"]) == stats_hashes.NAMES


@pytest.mark.parametrize("name", stats_hashes.NAMES)
def test_golden_outputs(tmp_path, name):
    record = stats_hashes.config_record(name, tmp_path / name)
    golden = GOLDEN["configs"][name]
    if GOLDEN["platform"] == stats_hashes.platform_record():
        assert record == golden
    else:
        assert (record["steps"], record["newton"]) == (golden["steps"], golden["newton"])
        assert record["errors"] == pytest.approx(golden["errors"], rel=ERRORS_REL, abs=0.0)
    if name in stats_hashes.HALF_PLANE:
        # the steps' y-pieces beside the x-window are not all empty
        assert record["y_steps"] > 0
