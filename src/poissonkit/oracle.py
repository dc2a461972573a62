"""Independent brute-force implementations used to cross-check the fast paths.

The chart-level oracle brackets the arguments one pair of components at a
time.  Each component A_I d_I is decomposable, so it applies the classical
pair-sum formula for decomposable multivector fields,

    [U_1^...^U_p, V_1^...^V_q]
        = sum_{i,j} (-1)^(i+j) [U_i, V_j] ^ U_1..^..U_p ^ V_1..^..V_q,

with the polynomial A_I in the first wedge factor and [.,.] the coordinate
Lie bracket of vector fields.  A function argument goes through
[A, f] = (-1)^(p-1) i_df A and graded antisymmetry instead.  Nothing here
shares code with the superfield contraction in ``exactalg.schouten``.

The Lie-algebra oracle expands wedge monomials recursively through the graded
Leibniz rule instead of the pair-sum formula used by ``liealg.alg_schouten``.

The seeded generators at the end draw the oracles' random inputs, for
``poissonkit oracle`` and the tests alike, from a ``random.Random``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .exactalg import SCALAR_ONE, Poly, PolyMultiVec, Scalar, wedge
from .liealg import AlgElement, LieAlgebraData

# -- chart-level oracle -------------------------------------------------------

# A vector field is a list of (coefficient Poly, direction index) pairs.


def _vf_bracket(u: list[tuple[Poly, int]], v: list[tuple[Poly, int]]) -> list[tuple[Poly, int]]:
    """Coordinate Lie bracket of two polynomial vector fields."""
    acc: dict[int, Poly] = {}
    for fu, a in u:
        for fv, b in v:
            da = fv.diff(a)  # fu * da is pushed onto d_b
            if da:
                acc[b] = acc[b] + fu * da if b in acc else fu * da
            db = fu.diff(b)
            if db:
                acc[a] = acc[a] - fv * db if a in acc else -(fv * db)
    return [(p, j) for j, p in acc.items() if p]


def _interior(coeff: Poly, idxs: tuple, func: Poly) -> Iterator[tuple[tuple, Poly]]:
    """[coeff * d_I, func] = (-1)^(p-1) i_dfunc (coeff * d_I), p = len(I), as (index tuple, Poly) items."""
    p = len(idxs)
    for m, j in enumerate(idxs):
        deriv = coeff * func.diff(j)
        if deriv:
            yield idxs[:m] + idxs[m + 1 :], deriv if (p - 1 - m) % 2 == 0 else -deriv


def _pair_sum(ca: Poly, ia: tuple, cb: Poly, ib: tuple, basis: list, one: Poly) -> Iterator[tuple[tuple, Poly]]:
    """[ca * d_ia, cb * d_ib] by the pair-sum formula, as (index tuple, Poly) items.

    The factors are U = (ca d_ia[0], d_ia[1], ...) and V likewise.  Every
    factor but the first is a constant field ``one * d_k`` whose multivector is
    ``basis[k]``; a first factor's multivector is built when a nonzero
    [U_i, V_j] first needs it in its wedge.
    """
    dim = ca.nvars
    us = [[(ca, ia[0])]] + [[(one, k)] for k in ia[1:]]
    vs = [[(cb, ib[0])]] + [[(one, k)] for k in ib[1:]]
    fields_a = [None] + [basis[k] for k in ia[1:]]
    fields_b = [None] + [basis[k] for k in ib[1:]]
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            lie = _vf_bracket(u, v)
            if not lie:
                continue
            if i and fields_a[0] is None:
                fields_a[0] = PolyMultiVec.monomial(dim, ia[:1], ca)
            if j and fields_b[0] is None:
                fields_b[0] = PolyMultiVec.monomial(dim, ib[:1], cb)
            term = PolyMultiVec.from_terms(dim, 1, [((k,), f) for f, k in lie])
            for k, field in enumerate(fields_a):
                if k != i:
                    term = wedge(term, field)
            for k, field in enumerate(fields_b):
                if k != j:
                    term = wedge(term, field)
            odd = (i + j) % 2  # (-1)^(i+j), the same with 1-based i, j
            yield from ((key, -poly if odd else poly) for key, poly in term.comps.items())


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
        basis = [PolyMultiVec.basis(dim, k) for k in range(dim)]
        one = Poly.const(dim, 1)
        for ia, ca in a.comps.items():
            for ib, cb in b.comps.items():
                items.extend(_pair_sum(ca, ia, cb, ib, basis, one))
    return PolyMultiVec.from_terms(dim, max(p + q - 1, 0), items)


# -- Lie-algebra oracle -------------------------------------------------------


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

    def basis_mono(idxs):
        return AlgElement(g, len(idxs), {tuple(idxs): SCALAR_ONE})

    def bracket_mono(ia, ib):
        """Bracket of two coefficient-one basis wedge monomials."""
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
        if (p - 1) % 2:
            out = out - second
        else:
            out = out + second
        return out

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
