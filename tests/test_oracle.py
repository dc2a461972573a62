"""Cross-checks of the fast bracket paths against the brute-force oracles,
the oracle's own algebraic laws, and a static check of its independence."""

import ast
import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, pair_brackets
from poissonkit import oracle
from poissonkit.cli import run_command
from poissonkit.exactalg import PolyMultiVec, Scalar, schouten, wedge
from poissonkit.liealg import AlgElement, LieAlgebraData, alg_schouten, sl_chevalley
from poissonkit.oracle import alg_schouten_oracle, rand_alg_element, rand_multivec, rand_poly, schouten_oracle


def test_schouten_oracle_dim3_100_pairs():
    rng = make_rng(42)
    for _ in range(100):
        a = rand_multivec(rng, 3, rng.randint(0, 2))
        b = rand_multivec(rng, 3, rng.randint(0, 2))
        assert (schouten(a, b) - schouten_oracle(a, b)).is_zero()


def test_schouten_oracle_dim4_including_trivectors():
    rng = make_rng(43)
    for _ in range(40):
        a = rand_multivec(rng, 4, rng.randint(0, 3), density=0.4)
        b = rand_multivec(rng, 4, rng.randint(0, 2), density=0.4)
        assert (schouten(a, b) - schouten_oracle(a, b)).is_zero()


def test_alg_schouten_oracle_sl2_sl3():
    rng = make_rng(44)
    for g, density in ((sl_chevalley(2), 0.6), (sl_chevalley(3), 0.15)):
        for _ in range(100):
            a = rand_alg_element(rng, g, rng.randint(0, 2), density)
            b = rand_alg_element(rng, g, rng.randint(0, 2), density)
            assert (alg_schouten(a, b) - alg_schouten_oracle(a, b)).is_zero()


def _monomials(g):
    """The coefficient-one basis monomials of degree 0-2."""
    return [AlgElement(g, d, {idxs: Scalar(1)}) for d in range(3) for idxs in itertools.combinations(range(g.dim), d)]


@pytest.mark.parametrize("perturbed_first", [False, True])
def test_alg_schouten_oracle_memo_is_per_algebra(perturbed_first):
    # sl2 and a copy with [h, e] = 3e (as in test_validate_jacobi_failure_perturbed_sl2) share their
    # labels, not their tables: each gets its own monomial brackets, whichever is bracketed first
    g = sl_chevalley(2)
    brackets = pair_brackets(g)
    e, h = g.labels.index("e12"), g.labels.index("h1")
    brackets[(e, h)][e] = Scalar(-3)  # [e, h] = -3e, so [h, e] = 3e
    bad = LieAlgebraData(g.labels, brackets)
    brackets = {}
    for alg in ([bad, g] if perturbed_first else [g, bad]):
        monos = _monomials(alg)
        brackets[alg] = [alg_schouten_oracle(x, y) for x in monos for y in monos]
        assert brackets[alg] == [alg_schouten(x, y) for x in monos for y in monos]
    assert [str(x) for x in brackets[g]] != [str(x) for x in brackets[bad]]


def test_alg_schouten_oracle_memo_does_not_keep_its_algebra():
    g = sl_chevalley(2)
    monos = _monomials(g)
    for x in monos:
        alg_schouten_oracle(x, monos[-1])
    ref = weakref.ref(g)
    del g, monos, x
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv, generator, next_draw", [
    pytest.param(["oracle", "schouten", "--dim", "3"], "rand_multivec", 0.38223256097056324, id="oracle schouten"),
    pytest.param(["oracle", "alg", "--algebra", "sl3"], "rand_alg_element", 0.14228347384241602, id="oracle alg"),
])
def test_cli_oracle_streams_are_pinned(argv, generator, next_draw, monkeypatch):
    # at a fixed seed `poissonkit oracle` draws the same inputs on every commit: real coefficients with no
    # draw for an imaginary part, and the CLI's densities; the next draw of its generator pins the stream
    rngs = []
    real = getattr(oracle, generator)

    def spy(rng, *args, **kwargs):
        rngs.append(rng)
        return real(rng, *args, **kwargs)

    monkeypatch.setattr(oracle, generator, spy)
    assert run_command([*argv, "--pairs", "20", "--seed", "0"])[0] == 0
    assert len(rngs) == 40
    assert rngs[-1].random() == next_draw


def test_oracle_imports_no_kernel():
    # the oracle is a second route only while it shares no code with the kernels it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    allowed = {"exactalg": {"SCALAR_ONE", "Poly", "PolyMultiVec", "Scalar"},
               "liealg": {"AlgElement", "LieAlgebraData"}}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in allowed, node.module
            assert {alias.name for alias in node.names} <= allowed[node.module], node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("poissonkit") for alias in node.names)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    assert not names & {"schouten", "alg_schouten", "_hook", "_packed_exponents"}


# hypothesis draws a seed; the seeded generators draw a chart of dimension 3 or 4, degrees 0-3
# and Gaussian-integer coefficients, with about a third of the components redrawn with up to
# 6 terms of degree up to 3.  The laws below check the oracle against itself, not the kernel.
seeds = st.integers(0, 2**32 - 1)


def _oracle_args(seed, count):
    rng = make_rng(seed)
    dim = rng.randint(3, 4)
    degrees = [rng.randint(0, 3) for _ in range(count - 1)]
    out = []
    for degree in [degrees[0], *degrees]:  # the first two share a degree, so they can be added
        mv = rand_multivec(rng, dim, degree)
        big = {i: rand_poly(rng, dim, max_deg=3, max_terms=6) for i in mv.comps if rng.random() < 0.35}
        out.append(PolyMultiVec(dim, degree, {**mv.comps, **big}))
    return out


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_schouten_oracle_additive_property(seed):
    a1, a2, b = _oracle_args(seed, 3)
    assert schouten_oracle(a1 + a2, b) == schouten_oracle(a1, b) + schouten_oracle(a2, b)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_schouten_oracle_graded_antisymmetry_property(seed):
    # [A, B] = -(-1)^((p-1)(q-1)) [B, A]
    a, _, b = _oracle_args(seed, 3)
    p, q = a.degree, b.degree
    ba = schouten_oracle(b, a)
    assert schouten_oracle(a, b) == (ba if ((p - 1) * (q - 1)) % 2 else -ba)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_schouten_oracle_graded_leibniz_property(seed):
    # [A, B^C] = [A,B]^C + (-1)^((p-1) q) B^[A,C]; with C a function it ties the pair-sum
    # formula to the interior rule, whose signs the two laws above cannot see apart
    a, _, b, c = _oracle_args(seed, 4)
    p, q = a.degree, b.degree
    tail = wedge(b, schouten_oracle(a, c))
    rhs = wedge(schouten_oracle(a, b), c) + (tail if ((p - 1) * q) % 2 == 0 else -tail)
    assert schouten_oracle(a, wedge(b, c)) == rhs
