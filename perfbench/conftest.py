"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench -q``."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE, _HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
