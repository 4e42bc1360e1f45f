"""Make roelab importable from this checkout's src/ for the benchmark's tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
