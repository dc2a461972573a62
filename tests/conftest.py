"""Shared random generators for the property tests (seeded, exact), and the
environment for tests that start a Python subprocess."""

import itertools
import os
import random
from pathlib import Path

import pytest

import poissonkit
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar


def subprocess_env():
    """os.environ with the directory holding this poissonkit first on PYTHONPATH."""
    src = str(Path(poissonkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def make_rng(seed):
    return random.Random(seed)


def rand_scalar(rng, with_i=True):
    im = rng.randint(-1, 1) if (with_i and rng.random() < 0.3) else 0
    return Scalar(rng.randint(-3, 3), im)


def rand_poly(rng, dim, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rand_scalar(rng)
    return Poly(dim, terms)


def rand_multivec(rng, dim, degree, density=0.7):
    comps = {}
    for idxs in itertools.combinations(range(dim), degree):
        if rng.random() < density:
            comps[idxs] = rand_poly(rng, dim)
    return PolyMultiVec(dim, degree, comps)


@pytest.fixture
def rng():
    return make_rng(20240811)
