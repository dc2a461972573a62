"""Exact multivariate polynomial arithmetic over the Gaussian rationals,
and antisymmetric multivector fields on coordinate charts.

Scalars are elements of Q(i), stored as a pair of parts in canonical form:
an ``int`` when the part is integral, else a ``Fraction`` with denominator
> 1.  No floating point enters any operation in this module.  A polynomial is
a sparse map from exponent tuples to nonzero scalars, a k-vector field is a
sparse map from strictly increasing index k-tuples to nonzero polynomial
components.

The public constructors ``Poly(...)`` and ``PolyMultiVec(...)`` validate
their input.  Internal operations whose results hold the invariants by
construction (``+``, ``-``, negation, ``*``, ``diff``, ``wedge``,
``schouten``) build them with the trusted ``_poly``/``_mv`` instead.

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
contractions term by term over (index tuple, exponent tuple, coefficient)
triples, without the ``wedge`` and ``Poly`` products the oracle uses.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .report import InvalidInput

__all__ = [
    "Scalar",
    "Poly",
    "PolyMultiVec",
    "ParseError",
    "parse_poly",
    "parse_scalar",
    "print_poly",
    "wedge",
    "schouten",
    "eval_multivec",
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
        if n < 0:
            return Scalar(1) / self ** (-n)
        out = Scalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
    """A canonical part from any exact rational input (int, Fraction, str)."""
    if type(value) is int:
        return value
    return _canon(Fraction(value))


def _from_parts(re: Union[int, Fraction], im: Union[int, Fraction]) -> Scalar:
    """A Scalar from parts already in canonical form, without coercion."""
    out = _new_scalar(Scalar)
    _set_re(out, re)
    _set_im(out, im)
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
    def _coerce(value, nvars: int) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(nvars, value)

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            _accumulate(out, exps, coeff)
        return _poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-Poly._coerce(other, self.nvars))

    def __rsub__(self, other) -> "Poly":
        return Poly._coerce(other, self.nvars) + (-self)

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other, self.nvars)
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
        out = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def eval(self, point: Sequence[ScalarLike]) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        pt = [Scalar.coerce(v) for v in point]
        total = SCALAR_ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(pt, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def set_vars_zero(self, idxs: Iterable[int]) -> "Poly":
        """Substitute 0 for the given variables (same ambient chart)."""
        idxset = set(idxs)
        out: dict[tuple, Scalar] = {}
        for exps, coeff in self.terms.items():
            if any(exps[j] for j in idxset):
                continue
            out[exps] = coeff
        return Poly(self.nvars, out)

    def restrict(self, keep: Sequence[int]) -> "Poly":
        """Project onto the sub-chart spanned by ``keep`` (in that order).

        All other variables must be absent from the support.
        """
        keep = list(keep)
        dropped = set(range(self.nvars)) - set(keep)
        out: dict[tuple, Scalar] = {}
        for exps, coeff in self.terms.items():
            if any(exps[j] for j in dropped):
                raise ValueError("polynomial depends on a dropped variable")
            out[tuple(exps[j] for j in keep)] = coeff
        return Poly(len(keep), out)

    def compose_linear(self, mat: Sequence[Sequence[ScalarLike]]) -> "Poly":
        """Substitute x_i <- sum_j mat[i][j] * x_j (exact)."""
        n = self.nvars
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError("matrix shape must be nvars x nvars")
        images = [
            Poly(n, {tuple(int(k == j) for k in range(n)): Scalar.coerce(mat[i][j]) for j in range(n)})
            for i in range(n)
        ]
        total = Poly.zero(n)
        for exps, coeff in self.terms.items():
            term = Poly.const(n, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * images[i] ** e
            total = total + term
        return total

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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                m = j + 1
                while m < n and text[m].isdigit():
                    m += 1
                if m == j + 1:
                    raise ParseError("malformed rational literal", j)
                if int(text[j + 1 : m]) == 0:
                    raise ParseError("zero denominator", k)
                tokens.append(("number", text[k:m], k))
                k = m
            else:
                tokens.append(("number", text[k:j], k))
                k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[k:j], k))
            k = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, var_names: Sequence[str]):
        if "i" in var_names:
            raise ValueError("coordinate name 'i' collides with the imaginary unit")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = {name: j for j, name in enumerate(var_names)}
        self.nvars = len(var_names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}" if tok[0] != "end" else f"expected {kind}, found end of input", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return out

    def expr(self) -> Poly:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Poly:
        out = self.unary()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.unary()
        return out

    def unary(self) -> Poly:
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Poly:
        out = self.atom()
        while self.peek()[0] == "^":
            self.take()
            tok = self.take("number")
            if "/" in tok[1]:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            out = out ** int(tok[1])
        return out

    def atom(self) -> Poly:
        kind, text, pos = self.peek()
        if kind == "number":
            self.take()
            return Poly.const(self.nvars, Fraction(text))
        if kind == "name":
            self.take()
            if text == "i":
                return Poly.const(self.nvars, SCALAR_I)
            if text not in self.vars:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return Poly.var(self.nvars, self.vars[text])
        if kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        raise ParseError(f"unexpected {text!r}" if kind != "end" else "unexpected end of input", pos)


def parse_poly(text: str, var_names: Sequence[str]) -> Poly:
    """Parse an expression over the declared coordinates into an exact Poly."""
    return _Parser(text, var_names).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse a constant expression such as ``-3/4`` or ``1/2*i`` exactly."""
    return parse_poly(text, []).constant_value()


def _format_coeff(coeff: Scalar) -> tuple[str, str]:
    """Return (sign, magnitude-string) for use in term sequences."""
    if coeff.im == 0:
        sign = "-" if coeff.re < 0 else "+"
        mag = abs(coeff.re)
        return sign, str(mag)
    if coeff.re == 0:
        sign = "-" if coeff.im < 0 else "+"
        mag = abs(coeff.im)
        return sign, ("i" if mag == 1 else f"{mag}*i")
    return "+", f"({coeff})"


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


class PolyMultiVec:
    """Antisymmetric k-vector field with Poly components on increasing tuples.

    Degree 0 is a single polynomial stored on the empty tuple.  A zero
    multivector may carry any nominal degree (including one exceeding the
    chart dimension, as produced by brackets of high-degree arguments).
    """

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps: Mapping[tuple, Poly] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple, Poly] = {}
        if comps:
            for idxs, poly in comps.items():
                idxs = tuple(idxs)
                if len(idxs) != degree:
                    raise ValueError(f"index tuple {idxs} has length != degree={degree}")
                if any(not 0 <= j < dim for j in idxs):
                    raise ValueError(f"index tuple {idxs} out of range for dim={dim}")
                if list(idxs) != sorted(set(idxs)):
                    raise ValueError(f"index tuple {idxs} is not strictly increasing")
                if poly.nvars != dim:
                    raise ValueError("component polynomial on the wrong chart")
                if not poly.is_zero():
                    clean[idxs] = poly
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMultiVec is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int) -> "PolyMultiVec":
        return PolyMultiVec(dim, degree)

    @staticmethod
    def function(poly: Poly) -> "PolyMultiVec":
        return PolyMultiVec(poly.nvars, 0, {(): poly})

    @staticmethod
    def basis(dim: int, idx: int) -> "PolyMultiVec":
        return PolyMultiVec(dim, 1, {(idx,): Poly.const(dim, 1)})

    @staticmethod
    def monomial(dim: int, idxs: Sequence[int], poly: Poly) -> "PolyMultiVec":
        """poly * d_{i1} ^ ... ^ d_{ik} with arbitrary index order."""
        sp = sort_with_parity(idxs)
        if sp is None:
            return PolyMultiVec.zero(dim, len(idxs))
        key, sign = sp
        return PolyMultiVec(dim, len(idxs), {key: poly if sign == 1 else -poly})

    @staticmethod
    def from_terms(dim: int, degree: int, items: Iterable[tuple[Sequence[int], Poly]]) -> "PolyMultiVec":
        """Sum of poly * d_{i1} ^ ... ^ d_{ik} over (index sequence, poly) items."""
        out: dict[tuple, Poly] = {}
        for idxs, poly in items:
            sp = sort_with_parity(idxs)
            if sp is not None:
                key, sign = sp
                _accumulate(out, key, poly if sign == 1 else -poly)
        return PolyMultiVec(dim, degree, out)

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "PolyMultiVec") -> None:
        if self.dim != other.dim:
            raise ValueError(f"chart dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "PolyMultiVec") -> "PolyMultiVec":
        self._check(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add multivectors of different degree")
        out = dict(self.comps)
        for idxs, poly in other.comps.items():
            _accumulate(out, idxs, poly)
        return _mv(self.dim, self.degree, out)

    def __neg__(self) -> "PolyMultiVec":
        return _mv(self.dim, self.degree, {k: -p for k, p in self.comps.items()})

    def __sub__(self, other: "PolyMultiVec") -> "PolyMultiVec":
        return self + (-other)

    def __mul__(self, factor) -> "PolyMultiVec":
        """Multiplication by a function (Poly) or constant."""
        if isinstance(factor, PolyMultiVec):
            raise TypeError("use wedge() for multivector products")
        factor = Poly._coerce(factor, self.dim)
        return PolyMultiVec(self.dim, self.degree, {k: p * factor for k, p in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMultiVec):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.comps == other.comps:
            return True
        return False

    def __hash__(self):
        return hash((self.dim, frozenset((k, hash(p)) for k, p in self.comps.items())))

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idxs: Sequence[int]) -> Poly:
        """Component on an arbitrary-order index tuple, with sign."""
        sp = sort_with_parity(idxs)
        if sp is None:
            return Poly.zero(self.dim)
        key, sign = sp
        poly = self.comps.get(key, Poly.zero(self.dim))
        return poly if sign == 1 else -poly

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "PolyMultiVec":
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range")
        derivs = ((k, p.diff(var)) for k, p in self.comps.items())
        return _mv(self.dim, self.degree, {k: d for k, d in derivs if d})

    def eval(self, point: Sequence[ScalarLike]) -> dict[tuple, Scalar]:
        """Exact evaluation of every component at a point."""
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dim {self.dim}")
        values = ((k, p.eval(point)) for k, p in self.comps.items())
        return {k: v for k, v in values if not v.is_zero()}

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        chunks = []
        for idxs in sorted(self.comps):
            basis = "^".join(f"d{j+1}" for j in idxs) if idxs else "1"
            chunks.append(f"({self.comps[idxs]})*{basis}")
        return " + ".join(chunks)

    __repr__ = __str__


_new_mv = object.__new__
_set_dim = PolyMultiVec.dim.__set__
_set_degree = PolyMultiVec.degree.__set__
_set_comps = PolyMultiVec.comps.__set__


def _mv(dim: int, degree: int, comps: dict[tuple, Poly]) -> PolyMultiVec:
    """A PolyMultiVec on components that already hold its invariants, without checks.

    Internal operations use it where the invariants hold by construction:
    every key is a strictly increasing tuple of ``degree`` indices below dim,
    and every component is a nonzero Poly on dim variables.
    ``PolyMultiVec(...)`` validates its input.
    """
    out = _new_mv(PolyMultiVec)
    _set_dim(out, dim)
    _set_degree(out, degree)
    _set_comps(out, comps)
    return out


def wedge(a: PolyMultiVec, b: PolyMultiVec) -> PolyMultiVec:
    """Exterior product of multivector fields on a common chart."""
    a._check(b)
    out: dict[tuple, Poly] = {}
    for ia, pa in a.comps.items():
        for ib, pb in b.comps.items():
            sp = sort_with_parity(ia + ib)
            if sp is None:
                continue
            key, sign = sp
            term = pa * pb
            _accumulate(out, key, term if sign == 1 else -term)
    return _mv(a.dim, a.degree + b.degree, out)


def _hook(a: PolyMultiVec, b: PolyMultiVec, out: dict[tuple, dict[tuple, Scalar]], sign: int) -> None:
    """Add sign * (A o B), A o B = sum_l (d^R A / dxi_l)(dB/dx_l), into ``out``.

    ``out`` maps an index tuple to the {exponent tuple: coefficient} terms of
    its component.  The work runs term by term: the left odd derivative of
    xi_I by xi_l, l at position pos of I, is (-1)^pos xi_{I minus l}; the
    right derivative is (-1)^(p-1) times the left one; dB/dx_l is formed once
    per l.
    """
    if a.degree % 2 == 0:  # right derivative: (-1)^(p-1)
        sign = -sign
    db: dict[int, list] = {}  # l -> [(J, terms of dB_J/dx_l)]
    for ib, pb in b.comps.items():
        by_var: dict[int, list] = {}
        for exps, coeff in pb.terms.items():
            for l, k in enumerate(exps):
                if k:
                    lowered = exps[:l] + (k - 1,) + exps[l + 1 :]
                    by_var.setdefault(l, []).append((lowered, coeff if k == 1 else coeff * k))
        for l, terms in by_var.items():
            db.setdefault(l, []).append((ib, terms))
    for ia, pa in a.comps.items():
        terms_a = pa.terms.items()
        for pos, l in enumerate(ia):
            rest = ia[:pos] + ia[pos + 1 :]
            sign_l = -sign if pos % 2 else sign  # left derivative: (-1)^pos
            for ib, terms_b in db.get(l, ()):
                sp = sort_with_parity(rest + ib)
                if sp is None:
                    continue
                key, parity = sp
                comp = out.setdefault(key, {})
                negate = parity != sign_l
                for ea, ca in terms_a:
                    for eb, cb in terms_b:
                        prod = ca * cb
                        _accumulate(comp, tuple(map(add, ea, eb)), -prod if negate else prod)


def schouten(a: PolyMultiVec, b: PolyMultiVec) -> PolyMultiVec:
    """Schouten-Nijenhuis bracket; see the module docstring for the convention."""
    a._check(b)
    p, q = a.degree, b.degree
    out: dict[tuple, dict[tuple, Scalar]] = {}
    _hook(a, b, out, 1)
    _hook(b, a, out, -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1)
    return _mv(a.dim, max(p + q - 1, 0), {k: _poly(a.dim, terms) for k, terms in out.items() if terms})


def eval_multivec(a: PolyMultiVec, point: Sequence[ScalarLike]) -> dict[tuple, Scalar]:
    """Exact evaluation of a multivector field at a chart point."""
    return a.eval(point)
