import sys
from pathlib import Path

# The benchmark measures the checkout's own source tree, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
