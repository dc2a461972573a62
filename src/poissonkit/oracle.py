"""Independent brute-force implementations used to cross-check the fast paths.

The chart-level oracle expands both arguments into monomial wedge terms and
applies the classical pair-sum formula for decomposable multivector fields,

    [U_1^...^U_p, V_1^...^V_q]
        = sum_{i,j} (-1)^(i+j) [U_i, V_j] ^ U_1..^..U_p ^ V_1..^..V_q,

with the polynomial coefficient of each monomial absorbed into its first
wedge factor and [.,.] the coordinate Lie bracket of vector fields.  Nothing
here shares code with the superfield contraction in ``exactalg.schouten``.

The Lie-algebra oracle expands wedge monomials recursively through the graded
Leibniz rule instead of the pair-sum formula used by ``liealg.alg_schouten``.

The seeded generators at the end draw the oracles' random inputs, for
``poissonkit oracle`` and the tests alike, from a ``random.Random``.
"""

from __future__ import annotations

import itertools

from .exactalg import SCALAR_ONE, Poly, PolyMultiVec, Scalar, wedge
from .liealg import AlgElement, LieAlgebraData

# -- chart-level oracle -------------------------------------------------------

# A decomposable term is a list of vector-field factors, each a list of
# (coefficient Poly, direction index) pairs; plus a leading function factor.


def _vf_bracket(u: list[tuple[Poly, int]], v: list[tuple[Poly, int]], dim: int) -> list[tuple[Poly, int]]:
    """Coordinate Lie bracket of two polynomial vector fields."""
    acc: dict[int, Poly] = {}
    for fu, a in u:
        for fv, b in v:
            da = fu * fv.diff(a)  # coefficient pushed onto d_b
            if not da.is_zero():
                acc[b] = acc.get(b, Poly.zero(dim)) + da
            db = fv * fu.diff(b)
            if not db.is_zero():
                acc[a] = acc.get(a, Poly.zero(dim)) - db
    return [(p, j) for j, p in acc.items() if not p.is_zero()]


def _vf_to_mv(field: list[tuple[Poly, int]], dim: int) -> PolyMultiVec:
    total = PolyMultiVec.zero(dim, 1)
    for poly, j in field:
        total = total + PolyMultiVec.monomial(dim, (j,), poly)
    return total


def _interior(coeff: Poly, idxs: tuple, func: Poly, dim: int) -> PolyMultiVec:
    """[coeff * d_I, func] = (-1)^(p-1) i_dfunc (coeff * d_I), p = len(I)."""
    p = len(idxs)
    total = PolyMultiVec.zero(dim, max(p - 1, 0))
    for m, j in enumerate(idxs):
        deriv = coeff * func.diff(j)
        if deriv.is_zero():
            continue
        rest = idxs[:m] + idxs[m + 1 :]
        term = PolyMultiVec.monomial(dim, rest, deriv)
        total = total + (term if (p - 1 - m) % 2 == 0 else -term)
    return total


def _term_bracket(ca: Poly, ia: tuple, cb: Poly, ib: tuple, dim: int) -> PolyMultiVec:
    p, q = len(ia), len(ib)
    if p == 0 and q == 0:
        return PolyMultiVec.zero(dim, 0)
    if q == 0:
        return _interior(ca, ia, cb, dim)
    if p == 0:
        # graded antisymmetry off the q=0 rule
        res = _interior(cb, ib, ca, dim)
        sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
        return res if sign == 1 else -res
    factors_a: list[list[tuple[Poly, int]]] = [[(ca, ia[0])]] + [
        [(Poly.const(dim, 1), j)] for j in ia[1:]
    ]
    factors_b: list[list[tuple[Poly, int]]] = [[(cb, ib[0])]] + [
        [(Poly.const(dim, 1), j)] for j in ib[1:]
    ]
    total = PolyMultiVec.zero(dim, p + q - 1)
    for i in range(p):
        for j in range(q):
            lie = _vf_bracket(factors_a[i], factors_b[j], dim)
            if not lie:
                continue
            term = _vf_to_mv(lie, dim)
            for k in range(p):
                if k != i:
                    term = wedge(term, _vf_to_mv(factors_a[k], dim))
            for k in range(q):
                if k != j:
                    term = wedge(term, _vf_to_mv(factors_b[k], dim))
            sign = -1 if (i + j) % 2 else 1  # (-1)^(i+j) with 1-based i, j
            total = total + (term if sign == 1 else -term)
    return total


def schouten_oracle(a: PolyMultiVec, b: PolyMultiVec) -> PolyMultiVec:
    """Brute-force Schouten bracket by full monomial expansion."""
    a._check(b)
    dim = a.dim
    total = PolyMultiVec.zero(dim, max(a.degree + b.degree - 1, 0))
    for ia, pa in a.comps.items():
        for ea, cfa in pa.terms.items():
            mono_a = Poly(dim, {ea: cfa})
            for ib, pb in b.comps.items():
                for eb, cfb in pb.terms.items():
                    mono_b = Poly(dim, {eb: cfb})
                    total = total + _term_bracket(mono_a, ia, mono_b, ib, dim)
    return total


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
