"""Helpers shared by the tests that start a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import procreal

# the directory holding the `procreal` these tests import
SRC = str(Path(procreal.__file__).resolve().parent.parent)


def subprocess_env(**extra) -> dict:
    """The environment of a child interpreter: this process's, with the
    tested `procreal` first on PYTHONPATH, plus `extra`."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_capped(code: str, max_bytes: int, timeout: float) -> subprocess.CompletedProcess:
    """Runs the snippet `code` in a child interpreter whose address space
    the child itself caps at `max_bytes` (RLIMIT_AS) before it runs the
    snippet, so this process keeps its own limit.  Raises
    subprocess.TimeoutExpired if the child takes longer than `timeout`
    seconds."""
    cap = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, {max_bytes}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", cap + code],
        capture_output=True, text=True, env=subprocess_env(), timeout=timeout,
    )
