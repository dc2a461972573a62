"""The seeded random source for the property tests (the generators it feeds
are in ``poissonkit.oracle``), the environment for tests that start a
Python subprocess, and random Lie algebra elements for the group tests."""

import math
import os
import random
from pathlib import Path

import pytest

import poissonkit


def subprocess_env():
    """os.environ with the directory holding this poissonkit first on PYTHONPATH."""
    src = str(Path(poissonkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def assert_pass_rule(check, bounded, seed, samples):
    """``check(tol)`` runs a sampled check.  With t the largest of the values named in
    ``bounded``, the ones that tol bounds, the report passes at tol = t and fails just
    below it.  It records its seed and sample count, and every value is a bool, float
    or str whose ``str`` is its ``repr`` unless it is a str, so its porcelain text is
    the value's own."""
    rep = check(1.0)
    assert (rep.seed, rep.samples) == (seed, samples)
    for key, value in rep.values.items():
        assert type(value) in (bool, float, str), key
        assert type(value) is str or str(value) == repr(value), key
    t = max(rep.values[key] for key in bounded)
    assert check(t).ok
    assert not check(math.nextafter(t, 0.0)).ok


def make_rng(seed):
    return random.Random(seed)


@pytest.fixture
def rng():
    return make_rng(20240811)


def algebra_element(group, rng):
    """A random element of the group's Lie algebra, drawn as the numeric reports
    draw their sampled points: normal coefficients in the basis."""
    from poissonkit.groupnum import SAMPLE_SCALE

    return group.combine(rng.normal(0.0, SAMPLE_SCALE, size=group.dim))
