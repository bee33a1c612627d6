"""Puts this directory on ``sys.path`` so the tests can import their shared
helpers (``reference.py``) under any pytest import mode: ``prepend`` does
this by itself, ``importlib`` does not."""

import sys
from pathlib import Path

HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
