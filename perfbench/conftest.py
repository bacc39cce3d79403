"""Puts the repository's ``src`` and this directory on ``sys.path`` so the
benchmark's tests run with ``python3 -m pytest perfbench``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
