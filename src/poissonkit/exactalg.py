"""Exact multivariate polynomial arithmetic over the Gaussian rationals,
and antisymmetric multivector fields on coordinate charts.

Scalars are elements of Q(i), stored as a pair of parts in canonical form:
an ``int`` when the part is integral, else a ``Fraction`` with denominator
> 1.  No floating point enters any operation in this module: a float or
complex operand raises ``TypeError`` (or makes the operators return
``NotImplemented``) instead of being converted.  A polynomial is
a sparse map from exponent tuples to nonzero scalars.  A wedge element
(``Wedge``) is a sparse map from strictly increasing index k-tuples to nonzero
coefficients, and one class holds that storage and its arithmetic for both
kinds the toolkit brackets: a k-vector field on a chart (``PolyMultiVec``,
with ``Poly`` components) and an element of a wedge power of a Lie algebra
(``liealg.AlgElement``, with ``Scalar`` coefficients).  ``Wedge.carry``,
the one action of a linear map on wedge elements, serves both:
``liealg.LinearAlgMap.apply`` and the linear pushforwards of ``dirac``.

The public constructors ``Poly(...)`` and ``Wedge(...)``, through either
subclass, validate their input.  Internal operations whose results hold the
invariants by construction (``+``, ``-``, negation, ``*``, ``diff``,
``wedge``, ``carry``, ``schouten``) build them with the trusted ``_poly`` and
``Wedge._new`` instead.

Schouten bracket convention
---------------------------
Identify a k-vector field with a superfield A(x, xi) where xi_l are odd
generators standing for d/dx_l.  Write A o B for the contraction

    A o B = sum_l (d^R A / dxi_l) (dB/dx_l)

where d^R is the *right* odd derivative (on a degree-p element it equals
(-1)^(p-1) times the left derivative).  The bracket implemented here is

    [A, B] = A o B - (-1)^((p-1)(q-1)) B o A,      p = deg A, q = deg B.

Two pinning identities fix this choice among the sign variants found in the
literature:

* [X, f] = X(f) for a vector field X and a function f (take q = 0: the
  second term vanishes and the first reduces to the directional derivative);
* [pi, pi] = 0 is equivalent to the Jacobi identity of the bracket
  {f, g} = pi(df, dg): contracting [pi, pi] with df, dg, dh gives twice
  the cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}}.

With these signs [Z, A] = L_Z A for any vector field Z, the bracket is
graded antisymmetric, [A,B] = -(-1)^((p-1)(q-1)) [B,A], satisfies the graded
Leibniz rule [A, B^C] = [A,B]^C + (-1)^((p-1) q) B^[A,C] and the graded
Jacobi identity on degree-shifted multivectors.  On decomposables it agrees
with the classical pair-sum formula

    [U_1^...^U_p, V_1^...^V_q]
        = sum_{i,j} (-1)^(i+j) [U_i, V_j] ^ U_1..^..U_p ^ V_1..^..V_q,

together with [A, f] = (-1)^(p-1) i_df A, which is what the independent
oracle in ``schouten_oracle`` computes.  ``schouten`` evaluates both
contractions term by term, without the ``wedge`` and ``Poly`` products the
oracle uses, on packed int keys:

* each distinct exponent tuple of the inputs becomes one int once, whose
  field j holds the exponent of x_j.  The field width is one bit more than
  the largest input exponent needs, so a field of a product, at most twice
  that exponent, never carries into the next, however large the exponents;
  a negative exponent, which no polynomial has, raises ``ValueError``.  A
  monomial product is then one int addition, and d/dx_l subtracts one unit
  of field l;
* each wedge index set becomes its bitmask, bit j for index j, placed above
  the exponent fields.  Two index sets share an index exactly when their
  masks intersect, the union's mask is their sum, and the sign of sorting
  the concatenation is the parity of one AND of masks (see ``_hook``), so
  no index tuple is concatenated or sorted per product;
* a real or imaginary part is a separate real term, and its power of i sits
  in a 2-bit i field above the index bits: 0 or 1 in an input, 0, 1 or 2 in
  a product.

``_hook`` flattens each side once into term lists per variable l, and the
contraction is one double loop per l that adds each product into one
accumulator per packed key.  ``schouten`` adds the sums of i field 2 into
the real parts with a minus sign (i^2 = -1), splits each surviving key into
its index mask and its exponent key, reads each exponent key that is no input
key back into a tuple once and each mask into its index tuple once, and
builds each output ``Scalar`` once, in canonical form.  ``schouten(a, a)`` on
one object runs one contraction: [A, A] = 2 (A o A) for even p and 0 for odd p.

``schouten`` is the one contraction kernel of the chart layer: [pi, pi] in
``poisson.jacobiator``, L_X pi in ``dirac.leaf_slice_obstruction``, every
Hamiltonian field X_f = -[pi, f] (``poisson.hamiltonian_vf``, read by
``is_casimir`` and ``relative_modular``) and every bracket {f, g} = [X_f, g]
(``poisson.bracket``).

Expressions
-----------
``parse_poly`` and ``PolyParser`` read sums of products of powers, with
unary minus and parentheses, over declared coordinate names and ``i``, the
imaginary unit.  A number literal is ``n`` or ``n/d`` in the ASCII digits
0-9, with d not zero; any other digit is a ``ParseError``.  An exponent is
an integer literal.  ``print_poly`` writes the canonical form that
``parse_poly`` reads back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, islice, product
from operator import add, lshift, mul
from typing import Iterable, Mapping, Sequence, Union

from .report import InvalidInput

__all__ = [
    "Scalar",
    "Poly",
    "Wedge",
    "PolyMultiVec",
    "ParseError",
    "parse_poly",
    "PolyParser",
    "parse_scalar",
    "print_poly",
    "wedge",
    "schouten",
    "sort_with_parity",
]

ScalarLike = Union["Scalar", Fraction, int]


class Scalar:
    """An exact Gaussian rational re + im*i.

    Each part is kept in canonical form: an ``int`` when it is integral, else
    a ``Fraction`` with denominator > 1, so arithmetic on the integral
    coefficients that dominate the charts runs on ints.  Arithmetic
    short-circuits on a zero operand, and multiplication of two real scalars
    skips the imaginary cross terms; most products in the Lie-algebra builds
    have a zero operand, and every built-in algebra has real structure
    constants.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[Fraction, int, str] = 0, im: Union[Fraction, int, str] = 0):
        object.__setattr__(self, "re", _part(re))
        object.__setattr__(self, "im", _part(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def coerce(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    def __add__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = Scalar(other)
        if not other.re and not other.im:
            return self
        if not self.re and not self.im:
            return other
        if not self.im and not other.im:
            return _from_parts(_canon(self.re + other.re), 0)
        return _from_parts(_canon(self.re + other.re), _canon(self.im + other.im))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _from_parts(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = Scalar(other)
        if not other.re and not other.im:
            return self
        if not self.im and not other.im:
            return _from_parts(_canon(self.re - other.re), 0)
        return _from_parts(_canon(self.re - other.re), _canon(self.im - other.im))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = Scalar(other)
        if not self.re and not self.im:
            return self
        if not other.re and not other.im:
            return other
        if not self.im and not other.im:
            return _from_parts(_canon(self.re * other.re), 0)
        return _from_parts(
            _canon(self.re * other.re - self.im * other.im),
            _canon(self.re * other.im + self.im * other.re),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.coerce(other)
        norm = Fraction(other.re * other.re + other.im * other.im)
        if not norm:
            raise ZeroDivisionError("division by zero Scalar")
        return self * _from_parts(_canon(other.re / norm), _canon(-other.im / norm))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) / self

    def __pow__(self, n: int) -> "Scalar":
        return Scalar(1) / self ** (-n) if n < 0 else _power(self, n, Scalar(1))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real scalar equals its real part, so it must hash like it
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        def frac(q: Fraction) -> str:
            return str(q)  # "p/q" or "p"

        if self.im == 0:
            return frac(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{frac(self.im)}*i"
        im = self.im
        op = "+" if im > 0 else "-"
        mag = abs(im)
        im_part = "i" if mag == 1 else f"{frac(mag)}*i"
        return f"{frac(self.re)}{op}{im_part}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new_scalar = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _canon(q: Union[int, Fraction]) -> Union[int, Fraction]:
    """The canonical form of a part: an int when q is integral, else q."""
    if type(q) is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _part(value) -> Union[int, Fraction]:
    """A canonical part from any exact rational input (int, Fraction, str); a
    float or complex part raises TypeError rather than becoming its binary value."""
    if type(value) is int:
        return value
    if isinstance(value, (float, complex)):
        raise TypeError(f"a Scalar part must be exact (int, Fraction or str), not {type(value).__name__}")
    return _canon(Fraction(value))


def _from_parts(re: Union[int, Fraction], im: Union[int, Fraction]) -> Scalar:
    """A Scalar from parts already in canonical form, without coercion."""
    out = _new_scalar(Scalar)
    _set_re(out, re)
    _set_im(out, im)
    return out


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply from ``one``: the power of Scalar and of Poly."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:  # no square after the last bit
            base = base * base
    return out


SCALAR_ZERO = Scalar(0)
SCALAR_ONE = Scalar(1)
SCALAR_I = Scalar(0, 1)


class Poly:
    """Sparse exact polynomial: map from exponent tuples to nonzero Scalars.

    Variable names are deliberately not stored here; see ``print_poly`` and
    ``parse_poly`` for the named front end.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, ScalarLike] | None = None):
        clean: dict[tuple, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has length != nvars={nvars}")
                c = Scalar.coerce(coeff)
                if not c.is_zero():
                    clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: ScalarLike) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Scalar.coerce(value)})

    @staticmethod
    def var(nvars: int, idx: int) -> "Poly":
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[idx] = 1
        return Poly(nvars, {tuple(exps): SCALAR_ONE})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    @staticmethod
    def _coerce(value, nvars: int) -> "Poly | None":
        """value as a Poly; None unless it is a Poly, Scalar, Fraction or int, so that the
        operators return NotImplemented and the other operand's reflection runs."""
        if isinstance(value, Poly):
            return value
        return Poly.const(nvars, value) if isinstance(value, (Scalar, Fraction, int)) else None

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            _accumulate(out, exps, coeff)
        return _poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
        if other is None:
            return NotImplemented
        self._check(other)
        out: dict[tuple, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return _poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.const(self.nvars, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: int) -> "Poly":
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        # lowering the exponent of var is injective on the terms that contain it
        out: dict[tuple, Scalar] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k:
                out[exps[:var] + (k - 1,) + exps[var + 1 :]] = coeff if k == 1 else coeff * k
        return _poly(self.nvars, out)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute x_i <- images[i] (exact).

        The images live on one chart, and so does the result; a polynomial on
        no variables takes no images and stays on the chart of no variables.
        """
        if len(images) != self.nvars:
            raise ValueError(f"{len(images)} images for {self.nvars} variables")
        nvars = images[0].nvars if images else 0
        if any(img.nvars != nvars for img in images):
            raise ValueError("images on different charts")
        out: dict[tuple, Scalar] = {}
        for exps, coeff in self.terms.items():
            term = _poly(nvars, {(0,) * nvars: coeff})
            for img, e in zip(images, exps):
                for _ in range(e):
                    term = term * img
            for key, c in term.terms.items():
                _accumulate(out, key, c)
        return _poly(nvars, out)

    def divide_exact(self, q: "Poly") -> "Poly | None":
        """Return self / q when the division is exact, else None."""
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by zero polynomial")

        def key(exps):
            return (sum(exps), exps)

        lead_q = max(q.terms, key=key)
        cq = q.terms[lead_q]
        rem = self
        quot = Poly.zero(self.nvars)
        while not rem.is_zero():
            lead_r = max(rem.terms, key=key)
            exps = tuple(a - b for a, b in zip(lead_r, lead_q))
            if any(e < 0 for e in exps):
                return None
            mono = Poly(self.nvars, {exps: rem.terms[lead_r] / cq})
            quot = quot + mono
            rem = rem - mono * q
        return quot

    def constant_value(self) -> Scalar:
        if not self.terms:
            return SCALAR_ZERO
        if len(self.terms) == 1:
            exps, coeff = next(iter(self.terms.items()))
            if not any(exps):
                return coeff
        raise ValueError("polynomial is not constant")

    def __str__(self) -> str:
        return print_poly(self, [f"x{j+1}" for j in range(self.nvars)])

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"


_new_poly = object.__new__
_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__


def _poly(nvars: int, terms: dict[tuple, Scalar]) -> Poly:
    """A Poly on terms that already hold its invariants, without checks.

    Internal operations use it where the invariants hold by construction:
    every exponent tuple has length nvars and every coefficient is a nonzero
    Scalar.  ``Poly(...)`` validates its input.
    """
    out = _new_poly(Poly)
    _set_nvars(out, nvars)
    _set_terms(out, terms)
    return out


def _accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum vanishes."""
    acc = out.get(key)
    if acc is None:
        out[key] = value
    else:
        acc = acc + value
        if acc:
            out[key] = acc
        else:
            del out[key]


# ---------------------------------------------------------------------------
# expression grammar: parser and canonical printer
# ---------------------------------------------------------------------------


class ParseError(InvalidInput):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# one token after optional white space: an ASCII number literal, integral or with a denominator (which
# is malformed when empty); a word, which is a name when it starts with a letter or '_'; an operator; or
# any other character.  White space at the end matches nothing.
_TOKEN = re.compile(r"\s*([0-9]+(?:/[0-9]*)?|\w+|[-+*^()]|\S)")


def _position(text: str, t: int) -> int:
    """Where token t of ``text`` starts, found again only for an error; the end token's is len(text)."""
    return next(islice((m.start(1) for m in _TOKEN.finditer(text)), t, None), len(text))


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text`` as strings, each checked, then "" for the end."""
    tokens = _TOKEN.findall(text)
    for t, tok in enumerate(tokens):
        head = tok[0]
        if head in "0123456789":
            if "/" in tok:
                num, _, den = tok.partition("/")
                if not den:
                    raise ParseError("malformed rational literal", _position(text, t) + len(num))
                if not int(den):
                    raise ParseError("zero denominator", _position(text, t))
        elif not (head.isalpha() or head == "_" or head in "-+*^()"):
            raise ParseError(f"unexpected character {head!r}", _position(text, t))
    tokens.append("")
    return tokens


def _number(text: str) -> Scalar:
    """The value of a number token: ASCII digits, with an optional nonzero denominator."""
    if "/" in text:
        return _from_parts(_canon(Fraction(text)), 0)
    return _from_parts(int(text), 0)


def _unexpected(text: str, tokens: list[str], t: int, expected: str = "") -> ParseError:
    """The error at token t: it is not the ``expected`` kind of token, or not expected at all."""
    tok = tokens[t]
    found = repr(tok) if tok else "end of input"
    return ParseError(f"expected {expected}, found {found}" if expected else f"unexpected {found}", _position(text, t))


class PolyParser:
    """Reads expressions over one list of coordinate names into exact Polys.

    The name table, ``vars``, is built once and serves every expression read
    over the same names, such as the lines of one chart.  ``parse`` reads the
    tokens in one descent with its state in locals, and a term into one
    coefficient and one exponent list; only a parenthesised factor is a
    ``Poly`` multiplied in, and the terms of a sum are built into one ``Poly``.
    """

    def __init__(self, var_names: Sequence[str]):
        if "i" in var_names:
            raise ValueError("coordinate name 'i' collides with the imaginary unit")
        self.vars = {name: j for j, name in enumerate(var_names)}
        self.nvars = len(var_names)
        # the names a name token can spell: a digit starts a number token, and "" is the end
        self._names = {name: j for name, j in self.vars.items() if name[:1].isalpha() or name[:1] == "_"}

    def parse(self, text: str) -> Poly:
        tokens = _tokenize(text)
        out, t = self._sum(text, tokens, 0)
        if tokens[t]:
            raise _unexpected(text, tokens, t)
        return out

    def _sum(self, text: str, tokens: list[str], t: int) -> tuple[Poly, int]:
        """The sum of products of powers that starts at token t, and the index of the token after it."""
        names, nvars = self._names, self.nvars
        out: dict[tuple, Scalar] = {}
        negate = False  # the sign of the term: its '-' in the sum, flipped by each unary '-'
        while True:
            coeff = SCALAR_ONE
            exps = [0] * nvars
            factor = None
            while True:
                tok = tokens[t]
                while tok == "-":
                    negate = not negate
                    t += 1
                    tok = tokens[t]
                j = names.get(tok)
                if j is None:
                    if tok[:1].isdigit():
                        value = _number(tok)
                    elif tok == "i":
                        value = SCALAR_I
                    elif tok == "(":
                        sub, t = self._sum(text, tokens, t + 1)
                        if tokens[t] != ")":
                            raise _unexpected(text, tokens, t, ")")
                    elif tok[:1].isalpha() or tok[:1] == "_":
                        raise ParseError(f"unknown identifier {tok!r}", _position(text, t))
                    else:
                        raise _unexpected(text, tokens, t)
                t += 1
                k = 1  # (a^m)^n = a^(m n)
                while tokens[t] == "^":
                    power = tokens[t + 1]
                    if not power[:1].isdigit():
                        raise _unexpected(text, tokens, t + 1, "number")
                    if "/" in power:
                        raise ParseError("exponent must be a nonnegative integer", _position(text, t + 1))
                    k *= int(power)
                    t += 2
                if j is not None:
                    exps[j] += k
                elif tok == "(":
                    sub = sub if k == 1 else sub**k
                    factor = sub if factor is None else factor * sub
                else:
                    value = value if k == 1 else value**k
                    coeff = value if coeff is SCALAR_ONE else coeff * value
                if tokens[t] != "*":
                    break
                t += 1
            if coeff:
                if negate:
                    coeff = -coeff
                if factor is None:
                    _accumulate(out, tuple(exps), coeff)
                else:
                    for e, c in factor.terms.items():
                        _accumulate(out, tuple(map(add, e, exps)), c * coeff)
            tok = tokens[t]
            if tok != "+" and tok != "-":
                return _poly(nvars, out), t
            negate = tok == "-"
            t += 1


def parse_poly(text: str, var_names: Sequence[str]) -> Poly:
    """Parse an expression over the declared coordinates into an exact Poly."""
    return PolyParser(var_names).parse(text)


def parse_scalar(text: str) -> Scalar:
    """Parse a constant expression such as ``-3/4`` or ``1/2*i`` exactly."""
    return parse_poly(text, []).constant_value()


def _format_coeff(coeff: Scalar) -> tuple[str, str]:
    """Return (sign, magnitude-string) for use in term sequences, read off ``str(coeff)``."""
    text = str(coeff)
    if coeff.re and coeff.im:
        return "+", f"({text})"
    return ("-", text[1:]) if text.startswith("-") else ("+", text)


def print_poly(poly: Poly, var_names: Sequence[str]) -> str:
    """Canonical printer; terms in descending graded-lexicographic order.

    ``parse_poly(print_poly(p, v), v) == p`` for every polynomial.
    """
    if len(var_names) != poly.nvars:
        raise ValueError("variable name list has wrong length")
    if not poly.terms:
        return "0"
    keys = sorted(poly.terms, key=lambda e: (sum(e), e), reverse=True)
    chunks: list[str] = []
    for pos, exps in enumerate(keys):
        sign, mag = _format_coeff(poly.terms[exps])
        factors = []
        for name, e in zip(var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if pos == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# multivector fields
# ---------------------------------------------------------------------------


def sort_with_parity(idxs: Sequence[int]) -> tuple[tuple, int] | None:
    """Sort an index tuple, returning (sorted, sign); None if an index repeats."""
    idxs = list(idxs)
    sign = 1
    for a in range(1, len(idxs)):
        b = a
        while b > 0 and idxs[b - 1] > idxs[b]:
            idxs[b - 1], idxs[b] = idxs[b], idxs[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and idxs[b - 1] == idxs[b]:
            return None
    return tuple(idxs), sign


class Wedge:
    """An element of a k-th wedge power: nonzero coefficients on strictly
    increasing index k-tuples.

    ``space`` fixes the basis the indices run over and the coefficient ring.
    A subclass names both: it sets ``_ring``, the coefficient type, and
    defines ``_dim(space)``, the number of basis elements, ``_const(space,
    value)``, a constant coefficient, and ``_basis_name(j)`` for printing.  A
    zero element may carry any nominal degree, including one above the
    dimension, as brackets of high-degree arguments produce, and it equals the
    zero of every degree.  Elements are immutable.
    """

    __slots__ = ("space", "degree", "comps")

    def __init__(self, space, degree: int, comps: Mapping[tuple, object] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        dim = self._dim(space)
        clean = {}
        if comps:
            for idxs, coeff in comps.items():
                self._check_coeff(space, coeff)
                idxs = tuple(idxs)
                if len(idxs) != degree:
                    raise ValueError(f"index tuple {idxs} has length != degree={degree}")
                if list(idxs) != sorted(set(idxs)):
                    raise ValueError(f"index tuple {idxs} is not strictly increasing")
                if idxs and (idxs[0] < 0 or idxs[-1] >= dim):
                    raise ValueError(f"index tuple {idxs} out of range for dim={dim}")
                if coeff:
                    clean[idxs] = coeff
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _new(cls, space, degree: int, comps: dict) -> "Wedge":
        """An element on components that already hold its invariants, without checks.

        Internal operations use it where the invariants hold by construction:
        every key is a strictly increasing tuple of ``degree`` indices below
        the dimension of ``space``, and every coefficient is a nonzero element
        of the ring on ``space``.  ``cls(...)`` validates its input.
        """
        out = _new_wedge(cls)
        _set_space(out, space)
        _set_degree(out, degree)
        _set_comps(out, comps)
        return out

    @classmethod
    def _check_coeff(cls, space, coeff) -> None:
        if not isinstance(coeff, cls._ring):
            raise TypeError(f"coefficients must be {cls._ring.__name__}s, got {type(coeff).__name__}")

    def _check(self, other: "Wedge") -> None:
        if self.space != other.space:
            raise ValueError(f"{type(self).__name__} space mismatch: {self.space!r} vs {other.space!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space, degree: int) -> "Wedge":
        return cls(space, degree)

    @classmethod
    def basis(cls, space, idx: int) -> "Wedge":
        return cls(space, 1, {(idx,): cls._const(space, 1)})

    @classmethod
    def from_terms(cls, space, degree: int, items: Iterable[tuple[Sequence[int], object]]) -> "Wedge":
        """Sum of coeff * e_{i1} ^ ... ^ e_{ik} over (index sequence, coeff) items in any index order."""
        out: dict[tuple, object] = {}
        for idxs, coeff in items:
            if len(idxs) != degree:
                raise ValueError(f"index tuple {tuple(idxs)} has length != degree={degree}")
            sp = sort_with_parity(idxs)
            if sp is not None:
                key, sign = sp
                _accumulate(out, key, coeff if sign == 1 else -coeff)
        return cls(space, degree, out)

    # -- linear structure and exterior product -------------------------------

    def __add__(self, other: "Wedge") -> "Wedge":
        self._check(other)
        if self.degree != other.degree:
            if not self.comps:
                return other
            if not other.comps:
                return self
            raise ValueError("cannot add wedge elements of different degree")
        out = dict(self.comps)
        for idxs, coeff in other.comps.items():
            _accumulate(out, idxs, coeff)
        return self._new(self.space, self.degree, out)

    def __neg__(self) -> "Wedge":
        return self._new(self.space, self.degree, {k: -c for k, c in self.comps.items()})

    def __sub__(self, other: "Wedge") -> "Wedge":
        return self + (-other)

    def __mul__(self, factor) -> "Wedge":
        """Multiplication by a coefficient or a constant; use ``wedge`` for products of elements."""
        if not isinstance(factor, (self._ring, Scalar, Fraction, int)):
            return NotImplemented
        # the coefficient rings have no zero divisors, so only a zero factor makes zeros
        comps = {k: c * factor for k, c in self.comps.items()} if factor else {}
        return self._new(self.space, self.degree, comps)

    __rmul__ = __mul__

    def wedge(self, other: "Wedge") -> "Wedge":
        """Exterior product of two elements on one space."""
        self._check(other)
        out: dict[tuple, object] = {}
        for ia, ca in self.comps.items():
            for ib, cb in other.comps.items():
                sp = sort_with_parity(ia + ib)
                if sp is None:
                    continue
                key, sign = sp
                term = ca * cb
                _accumulate(out, key, term if sign == 1 else -term)
        return self._new(self.space, self.degree + other.degree, out)

    def carry(self, space, columns: Sequence[Sequence[tuple[int, Scalar]]]) -> "Wedge":
        """The image on ``space`` under the linear map that sends basis element k
        to the sum of c * e_i over the nonzero entries (i, c) of ``columns[k]``:
        every factor goes to its image, each product sorted with its sign."""
        out: dict[tuple, object] = {}
        for idxs, coeff in self.comps.items():
            scales: dict[tuple, Scalar] = {}
            for legs in product(*(columns[k] for k in idxs)):
                sp = sort_with_parity([i for i, _ in legs])
                if sp is not None:
                    scale = reduce(mul, (c for _, c in legs), SCALAR_ONE)
                    _accumulate(scales, sp[0], scale if sp[1] == 1 else -scale)
            for key, scale in scales.items():
                _accumulate(out, key, coeff * scale)
        return self._new(space, self.degree, out)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.comps == other.comps

    def __hash__(self):
        # no degree: a zero equals the zero of every degree, and the keys fix a nonzero one's
        return hash((self.space, frozenset(self.comps)))

    def component(self, idxs: Sequence[int]):
        """Coefficient on an arbitrary-order index tuple, with sign."""
        sp = sort_with_parity(idxs)
        coeff = None if sp is None else self.comps.get(sp[0])
        if coeff is None:
            return self._const(self.space, 0)
        return coeff if sp[1] == 1 else -coeff

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        chunks = []
        for idxs in sorted(self.comps):
            basis = "^".join(self._basis_name(j) for j in idxs) if idxs else "1"
            chunks.append(f"({self.comps[idxs]})*{basis}")
        return " + ".join(chunks)

    __repr__ = __str__


_new_wedge = object.__new__
_set_space = Wedge.space.__set__
_set_degree = Wedge.degree.__set__
_set_comps = Wedge.comps.__set__

wedge = Wedge.wedge


class PolyMultiVec(Wedge):
    """Antisymmetric k-vector field on a chart of ``dim`` coordinates, with
    ``Poly`` components on dim variables; d_j is the field d/dx_(j+1).

    Degree 0 is a single polynomial stored on the empty tuple.
    """

    __slots__ = ()
    _ring = Poly
    _const = staticmethod(Poly.const)

    @property
    def dim(self) -> int:
        """The chart dimension: a read-only view of ``space``."""
        return self.space

    @staticmethod
    def _dim(dim: int) -> int:
        return dim

    @classmethod
    def _check_coeff(cls, dim: int, poly) -> None:
        super()._check_coeff(dim, poly)
        if poly.nvars != dim:
            raise ValueError("component polynomial on the wrong chart")

    def _basis_name(self, j: int) -> str:
        return f"d{j+1}"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def function(poly: Poly) -> "PolyMultiVec":
        return PolyMultiVec(poly.nvars, 0, {(): poly})

    @staticmethod
    def monomial(dim: int, idxs: Sequence[int], poly: Poly) -> "PolyMultiVec":
        """poly * d_{i1} ^ ... ^ d_{ik} with arbitrary index order."""
        sp = sort_with_parity(idxs)
        if sp is None:
            return PolyMultiVec.zero(dim, len(idxs))
        key, sign = sp
        return PolyMultiVec(dim, len(idxs), {key: poly if sign == 1 else -poly})

    def project(self, keep: Sequence[int], images: Sequence[Poly]) -> "PolyMultiVec":
        """The components along the coordinates ``keep``, re-indexed onto them in
        that order, with the sign a reordering implies, and each composed with
        ``images``, which live on the chart of len(keep) coordinates."""
        pos = {i: a for a, i in enumerate(keep)}
        return PolyMultiVec.from_terms(len(keep), self.degree, [
            ([pos[i] for i in idxs], poly.compose(images))
            for idxs, poly in self.comps.items() if all(i in pos for i in idxs)
        ])

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "PolyMultiVec":
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range")
        derivs = ((k, p.diff(var)) for k, p in self.comps.items())
        return self._new(self.space, self.degree, {k: d for k, d in derivs if d})


def _packed_exponents(a: PolyMultiVec, b: PolyMultiVec) -> tuple[dict, list, int]:
    """Each distinct exponent tuple of a and b packed once into one int, the
    unit of each field, and the field width.

    Field j of a packed key, ``width`` bits wide from bit j * width, holds the
    exponent of x_j, and ``units[j]`` is 1 << (j * width).  The width is one
    bit more than the largest input exponent needs, so a field of a product,
    at most twice that exponent, never carries into the next field, however
    large the exponents are.  A product of monomials is then one int
    addition, and d/dx_l of a monomial whose x_l field is nonzero subtracts
    ``units[l]`` without a borrow.  A negative exponent would borrow, so it
    raises ``ValueError``.  The exponents are scanned once for both bounds, and
    only the nonzero ones, a few per chart monomial, are shifted into place.
    """
    exps = {e for f in (a, b) for poly in f.comps.values() for e in poly.terms}
    values = set(chain.from_iterable(exps))
    if min(values, default=0) < 0:
        raise ValueError("schouten takes polynomials, and an exponent is negative")
    width = max(values, default=0).bit_length() + 1
    shifts = range(0, width * a.dim, width)
    return {e: sum(map(lshift, filter(None, e), compress(shifts, e))) for e in exps}, [1 << s for s in shifts], width


def _hook(a: PolyMultiVec, b: PolyMultiVec, out: dict, factor: int, packed: dict, units: list, shift: int) -> None:
    """Add factor * (A o B), A o B = sum_l (d^R A / dxi_l)(dB/dx_l), into ``out``.

    ``out`` maps a packed key to one running real sum: above the exponent
    fields of a ``packed`` key sit mask(K), bit ``shift`` + j for each j in K,
    and above it the i field.  Each side is flattened once into term lists
    per variable l:

    * B: l -> [(mask(J), odd_below(J), key of a term of dB_J/dx_l, value)],
      the key being the term's, mask(J) included, less ``units[l]``;
    * A: l -> [(mask(R), key, value)], R = I minus l, the key carrying mask(R)
      and the value signed by the left odd derivative of xi_I by xi_l, l at
      position pos of I, (-1)^pos xi_R, times (-1)^(p-1) for the right one.

    xi_R xi_J vanishes when mask(R) & mask(J) is nonzero; otherwise it is the
    sort parity of R + J times xi_(R union J), of mask mask(R) + mask(J).  R
    and J are increasing, so the parity counts the pairs j < r, r in R, j in
    J: it is the parity of the bits of mask(R) in odd_below(J), the XOR of
    -1 << (j + 1) over j in J, whose bit i is set when an odd number of the j
    lie below i.  So a product is one mask test, one parity bit and one
    accumulation at the sum of its factors' keys.  A function A adds nothing,
    and A's terms are listed only under the l on which B depends.
    """
    if not a.degree:
        return
    if a.degree % 2 == 0:  # right derivative: (-1)^(p-1)
        factor = -factor
    one = 1 << (shift + a.dim)  # the unit of the i field
    every = range(b.dim)
    db: list[list] = [[] for _ in every]
    for ib, pb in b.comps.items():
        mask_b = below_b = 0
        for j in ib:
            mask_b |= 1 << j
            below_b ^= -1 << (j + 1)
        base = mask_b << shift
        for exps, coeff in pb.terms.items():
            key, re, im = packed[exps] + base, coeff.re, coeff.im
            for l in compress(every, exps):  # the l with x_l in the monomial
                k, terms = exps[l], db[l]
                if re:
                    terms.append((mask_b, below_b, key - units[l], re * k))
                if im:
                    terms.append((mask_b, below_b, key - units[l] + one, im * k))
    da: list[list] = [[] for _ in every]
    for ia, pa in a.comps.items():
        mask_a = 0
        for l in ia:
            mask_a |= 1 << l
        for pos, l in enumerate(ia):
            if db[l]:
                rest, sign, terms = mask_a ^ (1 << l), -factor if pos % 2 else factor, da[l]
                base = rest << shift
                for e, c in pa.terms.items():
                    if c.re:
                        terms.append((rest, packed[e] + base, c.re * sign))
                    if c.im:
                        terms.append((rest, packed[e] + base + one, c.im * sign))
    get = out.get
    for terms_a, terms_b in zip(da, db):
        for rest, ka, va in terms_a:
            for mask_b, below_b, kb, vb in terms_b:
                if rest & mask_b:
                    continue
                e = ka + kb
                if (below_b & rest).bit_count() & 1:
                    out[e] = get(e, 0) - va * vb
                else:
                    out[e] = get(e, 0) + va * vb


def schouten(a: PolyMultiVec, b: PolyMultiVec) -> PolyMultiVec:
    """Schouten-Nijenhuis bracket; see the module docstring for the convention.

    Both contractions add into one dict of real sums keyed by ``_hook``'s
    packed ints.  A key of i field 2 adds its sum into the real key below it
    with a minus sign (i^2 = -1), and one of field 1 is the imaginary part of
    that key.  Each surviving key then splits once into its index bitmask,
    the bits from ``shift`` = width * dim up, and its exponent key below them.
    """
    a._check(b)
    p, q = a.degree, b.degree
    out: dict[int, object] = {}
    packed, units, width = _packed_exponents(a, b)
    shift = width * a.dim  # the index bits start above the exponent fields
    if a is b:
        # [A, A] = A o A - (-1)^((p-1)^2) A o A: 2 (A o A) for even p, 0 for odd p
        if p % 2 == 0:
            _hook(a, a, out, 2, packed, units, shift)
    else:
        _hook(a, b, out, 1, packed, units, shift)
        _hook(b, a, out, -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1, packed, units, shift)
    one, ims = 1 << (shift + a.dim), {}  # the unit of the i field; the imaginary sums by real key
    for k in [k for k in out if k >= one]:
        v, k = out.pop(k), k - one
        if k >= one:  # i^2 = -1
            out[k - one] = out.get(k - one, 0) - v
        else:
            ims[k] = v
            out.setdefault(k, 0)
    # each surviving exponent key is read back into a tuple once; an input key reuses its tuple
    mask, shifts, low = (1 << width) - 1, range(0, shift, width), (1 << shift) - 1
    exps = dict(zip(packed.values(), packed))
    polys: dict[int, dict] = {}
    for k, re in out.items():
        im = ims.get(k, 0)
        if re or im:
            bits, k = k >> shift, k & low
            e = exps.get(k)
            if e is None:
                e = exps[k] = tuple([(k >> s) & mask for s in shifts])
            poly = polys.get(bits)
            if poly is None:
                poly = polys[bits] = {}
            poly[e] = _from_parts(_canon(re), _canon(im))
    every = range(a.dim)
    comps = {tuple(j for j in every if bits >> j & 1): _poly(a.dim, poly) for bits, poly in polys.items()}
    return PolyMultiVec._new(a.dim, max(p + q - 1, 0), comps)
