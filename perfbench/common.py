"""Locating the package under test: always the ``src/`` tree of this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs"
OUT = Path(__file__).resolve().parent / "out"


def import_gaussdens():
    """Import gaussdens from ``<checkout>/src``; exit 2 if it is not there.

    An installed copy elsewhere must never stand in for the checkout's source,
    so the benchmark refuses to run when the import resolves anywhere else.
    """
    sys.path.insert(0, str(SRC))
    try:
        import gaussdens
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import gaussdens from {SRC}: {exc}\n")
        sys.exit(2)
    origin = Path(gaussdens.__file__).resolve()
    if SRC not in origin.parents:
        sys.stderr.write(f"perfbench: gaussdens resolved to {origin}, not under {SRC}\n")
        sys.exit(2)
    return gaussdens
