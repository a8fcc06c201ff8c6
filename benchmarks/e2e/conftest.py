"""Makes ``e2ebench`` and the program under test importable for the smoke
tests (``python -m pytest benchmarks/e2e -q``), as ``run.py`` does."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
