"""Test-session setup shared by every test module.

``pythonpath = ["src"]`` in pyproject.toml lets this process import the
package from a checkout; exporting the same directory on PYTHONPATH lets the
interpreters that tests start (``python -m subspace_codes``) import it too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
