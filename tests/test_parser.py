"""The polynomial parser against the recursive reference parser it replaced.

``RefParser`` is the parser ``exactalg`` had before terms were read into one
coefficient and one exponent list: it tokenizes with a character loop and
builds one ``Poly`` per atom, multiplying and adding them with the ring
operations.  On ASCII input the two must give equal polynomials, or the same
``ParseError`` message at the same position.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from poissonkit.chartio import parse_chart_text
from poissonkit.exactalg import SCALAR_I, ParseError, Poly, PolyParser, Scalar, parse_poly, print_poly

NAMES = ["x", "y", "z"]


# -- the reference -------------------------------------------------------------------


def ref_tokenize(text: str) -> list[tuple[str, str, int]]:
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


class RefParser:
    def __init__(self, text, var_names):
        if "i" in var_names:
            raise ValueError("coordinate name 'i' collides with the imaginary unit")
        self.tokens = ref_tokenize(text)
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

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return out

    def expr(self):
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.unary()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.unary()
        return out

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        out = self.atom()
        while self.peek()[0] == "^":
            self.take()
            tok = self.take("number")
            if "/" in tok[1]:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            out = out ** int(tok[1])
        return out

    def atom(self):
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


def outcome(parse, text):
    """The parsed Poly, checked to hold canonical nonzero coefficients, or the ParseError's text and position."""
    try:
        p = parse(text)
    except ParseError as err:
        return str(err), err.pos
    for exps, c in p.terms.items():
        assert type(c) is Scalar and c and len(exps) == p.nvars
        for part in (c.re, c.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator > 1)
    return p


# -- strategies ----------------------------------------------------------------------

atoms = st.sampled_from(["x", "y", "z", "x", "i", "0", "1", "2", "10", "3/4", "7/2", "06/08"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" + ", "-", " - ", "*", " * "]), children).map("".join),
        children.map(lambda c: f"({c})"),
        st.tuples(children, children).map(lambda t: f"({t[0]})*({t[1]})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(children, st.sampled_from(["^0", "^1", "^2", "^ 2", "^2^2"])).map("".join),
    )


expressions = st.recursive(atoms, _extend, max_leaves=10)
# tokens that break an expression: unknown names, bad literals, stray operators, foreign characters
junk = st.sampled_from(["w", "x2", "_a", "1/0", "5/", "2/x", "^", "^3/2", "^y", "(", ")", "+", "*", "-", "$", ".", " ", "2x"])


@st.composite
def broken_expressions(draw):
    text = draw(expressions)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(junk) + text[at:]


# -- properties ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(expressions, broken_expressions(), st.lists(st.one_of(atoms, junk), max_size=8).map("".join)))
def test_parser_matches_reference_property(text):
    new = outcome(PolyParser(NAMES).parse, text)
    old = outcome(lambda t: RefParser(t, NAMES).parse(), text)
    assert new == old, text
    assert outcome(lambda t: parse_poly(t, NAMES), text) == old


def test_parser_matches_reference_on_fixed_rows():
    rows = ["", " ", "x +* y", "x + w", "x^(2)", "x^", "x^y", "x^1/2", "(x", "x)", "x y", "2x", "1/", "1/x", "x + 1/0",
            "x + 1/00 + w", "w + 1/0", "x $ y", "-", "x*", "()", "x^2^", "3/4^2", "(1/2)*x^2 + i*y",
            "(x + 1)*(y - 1)*2*(z + i)^2 - -x*(x - y)^0", "0*(x + 1) + 0^0 - i^3*y^2^3"]
    for text in rows:
        assert outcome(PolyParser(NAMES).parse, text) == outcome(lambda t: RefParser(t, NAMES).parse(), text), text


@pytest.mark.parametrize("text, pos", [("²", 0), ("x^²", 2), ("1/²", 1), ("²*z", 0), ("2²", 1), ("٣", 0), ("x + ٣*y", 4)])
def test_number_literals_are_ascii_digits(text, pos):
    # any other digit is an error at its position: a superscript used to escape as a ValueError,
    # and an Arabic-Indic digit used to read as its value
    with pytest.raises(ParseError) as err:
        parse_poly(text, NAMES)
    assert err.value.pos == pos
    message = "malformed rational literal" if text == "1/²" else f"unexpected character {text[pos]!r}"
    assert str(err.value) == f"{message} (at position {pos})"
    assert outcome(PolyParser(NAMES).parse, "x2² + x٣") == ("unknown identifier 'x2²' (at position 0)", 0)


def test_parser_reads_many_expressions_over_one_name_table():
    parser = PolyParser(NAMES)
    for text in ["x*y - 2*z", "x + w", "(x + 1)^2", "1/0", "i*z"]:
        assert outcome(parser.parse, text) == outcome(lambda t: RefParser(t, NAMES).parse(), text)
    with pytest.raises(ValueError):
        PolyParser(["x", "i"])


# Gaussian-rational coefficients over names with digits and underscores, and exponents past 9,
# so the printer's output exercises every token the tokenizer reads
ROUND_TRIP_NAMES = ["y1", "y10", "x_2", "_a", "b"]
parts = st.one_of(st.integers(-12, 12), st.fractions(min_value=-5, max_value=5, max_denominator=12))


@st.composite
def gaussian_polys(draw):
    n = draw(st.integers(0, len(ROUND_TRIP_NAMES)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 12)] * n), st.tuples(parts, parts), max_size=6))
    return n, Poly(n, {e: Scalar(re, im) for e, (re, im) in terms.items()})


@settings(max_examples=150, deadline=None)
@given(gaussian_polys())
def test_print_parse_round_trip_property(args):
    n, p = args
    names = ROUND_TRIP_NAMES[:n]
    text = print_poly(p, names)
    assert outcome(lambda t: parse_poly(t, names), text) == p
    assert outcome(lambda t: RefParser(t, names).parse(), text) == p


# -- the savings, pinned -----------------------------------------------------------------


def test_chart_parse_multiplies_no_polys_and_builds_one_name_table(monkeypatch):
    # a seeded dim-14 log-canonical chart: every line is c*y_a*y_b, read without a Poly product,
    # and all of its lines share one name table
    rng = make_rng(14)
    dim = 14
    names = [f"y{a + 1}" for a in range(dim)]
    lines = [f"dim {dim}", "coords " + " ".join(names)]
    lines += [f"bracket y{a + 1} y{b + 1} = {rng.choice((-3, -2, -1, 1, 2, 3))}*y{a + 1}*y{b + 1}"
              for a in range(dim) for b in range(a + 1, dim)]
    text = "\n".join(lines) + "\n"
    products, tables = [], []
    mul, init = Poly.__mul__, PolyParser.__init__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(PolyParser, "__init__", lambda self, names: tables.append(1) or init(self, names))
    chart, _ = parse_chart_text(text)
    assert len(chart.pi.comps) == dim * (dim - 1) // 2
    assert (len(products), len(tables)) == (0, 1)
    # the regression guard sees a product where one is made
    parse_poly("(y1 + 1)*(y2 - 1)", names)
    assert (len(products), len(tables)) == (1, 2)
