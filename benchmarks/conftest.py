"""pytest configuration for the benchmark harness."""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent

# Make `import common` work regardless of the pytest rootdir, and `import
# oracles` reach the reference implementations kept with the tests.
sys.path.insert(0, str(_HERE))
sys.path.append(str(_HERE.parent / "tests"))
