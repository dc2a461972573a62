"""The seeded random source for the property tests (the generators it feeds
are in ``poissonkit.oracle``), and the environment for tests that start a
Python subprocess."""

import os
import random
from pathlib import Path

import pytest

import poissonkit


def subprocess_env():
    """os.environ with the directory holding this poissonkit first on PYTHONPATH."""
    src = str(Path(poissonkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def make_rng(seed):
    return random.Random(seed)


@pytest.fixture
def rng():
    return make_rng(20240811)
