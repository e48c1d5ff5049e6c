"""Locate the mesoqed source of the checkout the benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> dict:
    """Put the checkout's src/ first on the import path.

    Exits with an error when the checkout holds no mesoqed source, so an
    installed copy of the package is never measured by mistake. Returns
    the environment for child processes, which import the same source.
    """
    if not (SRC / "mesoqed" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mesoqed source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mesoqed

    if Path(mesoqed.__file__).resolve().parent != SRC / "mesoqed":
        raise SystemExit(f"bench: imported mesoqed from {mesoqed.__file__}, not {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
