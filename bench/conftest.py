import sys
from pathlib import Path

# the harness modules import uqfv from the checkout's source tree
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
