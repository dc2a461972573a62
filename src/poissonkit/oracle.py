"""Independent brute-force implementations used to cross-check the fast paths.

The chart-level oracle brackets the arguments one pair of components at a
time.  Each component A_I d_I is decomposable, so it applies the classical
pair-sum formula for decomposable multivector fields,

    [U_1^...^U_p, V_1^...^V_q]
        = sum_{i,j} (-1)^(i+j) [U_i, V_j] ^ U_1..^..U_p ^ V_1..^..V_q,

with the polynomial A_I in the first wedge factor and [.,.] the coordinate
Lie bracket of vector fields.  The other factors are constant fields, which
commute, so only the pairs (U_1, V_j) and (U_i, V_1) remain, and the mixed
ones are written out: [a d_i, d_k] = -(d_k a) d_i, [d_k, b d_j] = (d_k b) d_j.
A function argument goes through [A, f] = (-1)^(p-1) i_df A and graded
antisymmetry instead.  Nothing here shares code with the superfield
contraction in ``exactalg.schouten``, which never splits a component into
its factors.

The Lie-algebra oracle expands wedge monomials recursively through the graded
Leibniz rule instead of the pair-sum formula used by ``liealg.alg_schouten``.
A bracket of coefficient-one monomials depends only on the structure
constants, so it is memoised for the life of its ``LieAlgebraData``, keyed by
that object: an algebra with the same labels and another table has its own.

The seeded generators at the end draw the oracles' random inputs, for
``poissonkit oracle`` and the tests alike, from a ``random.Random``.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterator

from .exactalg import SCALAR_ONE, Poly, PolyMultiVec, Scalar
from .liealg import AlgElement, LieAlgebraData

# -- chart-level oracle -------------------------------------------------------


def _vf_bracket(fa: Poly, a: int, fb: Poly, b: int) -> Iterator[tuple[int, Poly]]:
    """[fa d_a, fb d_b] = fa (d_a fb) d_b - fb (d_b fa) d_a, as (direction, Poly) items."""
    deriv = fb.diff(a)
    if deriv:
        yield b, fa * deriv
    deriv = fa.diff(b)
    if deriv:
        yield a, -(fb * deriv)


def _interior(coeff: Poly, idxs: tuple, func: Poly) -> Iterator[tuple[tuple, Poly]]:
    """[coeff * d_I, func] = (-1)^(p-1) i_dfunc (coeff * d_I), p = len(I), as (index tuple, Poly) items."""
    p = len(idxs)
    for m, j in enumerate(idxs):
        deriv = coeff * func.diff(j)
        if deriv:
            yield idxs[:m] + idxs[m + 1 :], deriv if (p - 1 - m) % 2 == 0 else -deriv


def _pair_sum(ca: Poly, ia: tuple, cb: Poly, ib: tuple) -> Iterator[tuple[tuple, Poly]]:
    """[ca * d_ia, cb * d_ib] by the pair-sum formula on U = (ca d_ia[0], d_ia[1], ...) and V
    likewise, as (index tuple, Poly) items: the term of (i, j) is [U_i, V_j] ^ the other
    factors, so it carries ca when U_0 is among them and cb when V_0 is."""
    a, rest_a = ia[0], ia[1:]
    b, rest_b = ib[0], ib[1:]
    for k, f in _vf_bracket(ca, a, cb, b):
        yield (k,) + rest_a + rest_b, f
    for i in range(1, len(ia)):  # (-1)^i [d_k, cb d_b] = (-1)^i (d_k cb) d_b
        deriv = cb.diff(ia[i])
        if deriv:
            term = deriv * ca
            yield (b,) + ia[:i] + ia[i + 1 :] + rest_b, -term if i % 2 else term
    for j in range(1, len(ib)):  # (-1)^j [ca d_a, d_k] = -(-1)^j (d_k ca) d_a
        deriv = ca.diff(ib[j])
        if deriv:
            term = deriv * cb
            yield (a,) + rest_a + ib[:j] + ib[j + 1 :], term if j % 2 else -term


def schouten_oracle(a: PolyMultiVec, b: PolyMultiVec) -> PolyMultiVec:
    """Brute-force Schouten bracket, one pair-sum formula per pair of components."""
    a._check(b)
    dim, p, q = a.dim, a.degree, b.degree
    items: list[tuple[tuple, Poly]] = []
    if q == 0:
        for ia, ca in a.comps.items():
            for cb in b.comps.values():
                items.extend(_interior(ca, ia, cb))
    elif p == 0:
        # graded antisymmetry off the q=0 rule: [f, B] = -(-1)^((p-1)(q-1)) [B, f]
        flip = ((p - 1) * (q - 1)) % 2 == 0
        for ib, cb in b.comps.items():
            for ca in a.comps.values():
                items.extend(_interior(cb, ib, -ca if flip else ca))
    else:
        for ia, ca in a.comps.items():
            for ib, cb in b.comps.items():
                items.extend(_pair_sum(ca, ia, cb, ib))
    return PolyMultiVec.from_terms(dim, max(p + q - 1, 0), items)


# -- Lie-algebra oracle -------------------------------------------------------

# algebra -> {(ia, ib): components of the bracket of the monomials}; an element would keep its key alive
_MONO_BRACKETS: weakref.WeakKeyDictionary[LieAlgebraData, dict] = weakref.WeakKeyDictionary()


def alg_schouten_oracle(a, b):
    """Recursive-Leibniz algebraic Schouten bracket on wedge powers of g.

    Arguments are ``liealg.AlgElement`` values; the recursion peels one wedge
    factor at a time:

        [A, b1 ^ rest] = [A, b1] ^ rest + (-1)^(deg A - 1) b1 ^ [A, rest]

    bottoming out at the structure-constant bracket, with graded antisymmetry
    used to reduce the first argument.
    """
    g = a.algebra
    if b.algebra is not g:
        raise ValueError("parent algebra mismatch")
    memo = _MONO_BRACKETS.setdefault(g, {})

    def basis_mono(idxs):
        return AlgElement._new(g, len(idxs), {idxs: SCALAR_ONE})

    def bracket_mono(ia, ib):
        """Bracket of two coefficient-one basis wedge monomials."""
        if (ia, ib) not in memo:
            memo[ia, ib] = expand(ia, ib).comps
        return AlgElement._new(g, max(len(ia) + len(ib) - 1, 0), memo[ia, ib])

    def expand(ia, ib):
        p, q = len(ia), len(ib)
        if p == 0 or q == 0:
            return AlgElement.zero(g, max(p + q - 1, 0))
        if p == 1 and q == 1:
            return g.bracket_basis(ia[0], ib[0])
        if q == 1:
            # reduce via graded antisymmetry: [A, B] = -(-1)^((p-1)(q-1)) [B, A]
            res = bracket_mono(ib, ia)
            return res if ((p - 1) * (q - 1)) % 2 else -res
        head = bracket_mono(ia, ib[:1])  # degree p
        tail = bracket_mono(ia, ib[1:])  # degree p + q - 2
        out = head.wedge(basis_mono(ib[1:]))
        second = basis_mono(ib[:1]).wedge(tail)
        return out - second if (p - 1) % 2 else out + second

    total = AlgElement.zero(g, max(a.degree + b.degree - 1, 0))
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            total = total + bracket_mono(ia, ib) * (ca * cb)
    return total


# -- seeded random inputs -----------------------------------------------------


def rand_scalar(rng, with_i: bool = True) -> Scalar:
    """A Gaussian integer, real part in -3..3; the imaginary part is drawn only
    when ``with_i``, and then is in -1..1 with probability 0.3, else 0."""
    im = rng.randint(-1, 1) if (with_i and rng.random() < 0.3) else 0
    return Scalar(rng.randint(-3, 3), im)


def rand_poly(rng, dim: int, max_deg: int = 2, max_terms: int = 3, with_i: bool = True) -> Poly:
    """Up to ``max_terms`` monomials of degree at most ``max_deg``."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rand_scalar(rng, with_i)
    return Poly(dim, terms)


def rand_multivec(rng, dim: int, degree: int, density: float = 0.7, with_i: bool = True) -> PolyMultiVec:
    """Each wedge component a ``rand_poly``, kept with probability ``density``."""
    slots = itertools.combinations(range(dim), degree)
    return PolyMultiVec(dim, degree, {i: rand_poly(rng, dim, with_i=with_i) for i in slots if rng.random() < density})


def rand_alg_element(rng, g: LieAlgebraData, degree: int, density: float) -> AlgElement:
    """Each wedge component a real ``rand_scalar``, kept with probability ``density``."""
    slots = itertools.combinations(range(g.dim), degree)
    return AlgElement(g, degree, {i: rand_scalar(rng, with_i=False) for i in slots if rng.random() < density})
