"""Helpers shared by the tests that start a fresh interpreter."""

import os
from pathlib import Path

import procreal

# the directory holding the `procreal` these tests import
SRC = str(Path(procreal.__file__).resolve().parent.parent)


def subprocess_env(**extra) -> dict:
    """The environment of a child interpreter: this process's, with the
    tested `procreal` first on PYTHONPATH, plus `extra`."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)
