"""The stress tests draw their inputs from the tier-1 generators in
``tests/graded.py``: put ``tests/`` on the import path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
