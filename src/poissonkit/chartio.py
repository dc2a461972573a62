"""Line-oriented text formats for charts and Lie algebras, plus bundled fixtures.

Chart files::

    dim 3
    coords x y z
    bracket x y = x*y - 2*z
    bracket y z = y*z - 2*x
    bracket z x = z*x - 2*y
    volume = 1
    submanifold x = x

``bracket`` accepts coordinate names or 0-based indices; ``volume`` and
``submanifold`` are optional.  ``#`` starts a comment.  A second ``dim``,
names, ``volume`` or ``submanifold`` line, or a second bracket on one pair, is
an error on its line.  Algebra files::

    dim 3
    labels x1 x2 x3
    c x1 x2 x3 = 1

list only the nonzero structure constants with i < j; names or indices both
work.  Built-in algebras (sl2, sl3, sl4, su2, su3, so3) and the bundled
``.chart``/``.alg`` fixtures resolve by bare name.  A file's bytes are decoded
as UTF-8 once; a decode error names the byte offset of the first bad byte.
"""

from __future__ import annotations

import os
from pathlib import Path

from .dirac import AlignedSubmanifold
from .exactalg import ParseError, Poly, PolyMultiVec, PolyParser, parse_scalar, print_poly
from .liealg import BUILTIN_ALGEBRAS, LieAlgebraData, builtin_algebra, validate_lie
from .poisson import PoissonChart, _not_poisson
from .report import InvalidInput

__all__ = [
    "ChartFileError",
    "parse_chart_text",
    "parse_chart_file",
    "emit_chart",
    "parse_algebra_text",
    "load_algebra",
    "fixture_path",
]


class ChartFileError(InvalidInput):
    """A structured-text parse error carrying its line number, or None for an
    error of the whole file, whose message then names no line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _coord_index(token: str, index: dict[str, int], lineno: int) -> int:
    j = index.get(token)
    if j is not None:
        return j
    try:
        j = int(token)
    except ValueError:
        raise ChartFileError(f"unknown coordinate {token!r}", lineno) from None
    if not 0 <= j < len(index):
        raise ChartFileError(f"coordinate index {j} out of range", lineno)
    return j


def _header(text: str, names_key: str, noun: str) -> tuple[int, list[str], list[tuple[int, str, str]]]:
    """The ``dim`` line and the names line (``coords`` or ``labels``) of either format, read
    wherever they stand, and the other lines as (line number, directive, rest of the line)."""
    dim, names, names_line, body = None, None, 1, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            if dim is not None:
                raise ChartFileError("dim declared twice", lineno)
            try:
                dim = int(rest)
            except ValueError:
                raise ChartFileError(f"bad dimension {rest!r}", lineno) from None
            if dim < 1:  # a space of no coordinates: every check would pass on nothing
                raise ChartFileError(f"bad dimension {rest!r}: must be at least 1", lineno)
        elif head == names_key:
            if names is not None:
                raise ChartFileError(f"{names_key} declared twice", lineno)
            names, names_line = rest.split(), lineno
            if len(set(names)) != len(names):
                raise ChartFileError(f"repeated name in {names_key}", lineno)
            if "i" in names:  # polynomials over these names read i as the imaginary unit
                raise ChartFileError("name 'i' collides with the imaginary unit", lineno)
        else:
            body.append((lineno, head, rest))
    if dim is None or names is None:
        raise ChartFileError(f"file must declare dim and {names_key}", 1)
    if len(names) != dim:
        raise ChartFileError(f"expected {dim} {noun}, got {len(names)}", names_line)
    return dim, names, body


def parse_chart_text(text: str, check_jacobi: bool = True) -> tuple[PoissonChart, AlignedSubmanifold | None]:
    dim, coords, body = _header(text, "coords", "coordinate names")
    parser = PolyParser(coords)  # one name table for every line, which the left-hand sides read too
    entries: dict[tuple[int, int], Poly] = {}
    volume: Poly | None = None
    sub_names: list[str] | None = None
    sub_line = 0

    for lineno, head, rest in body:
        if head == "bracket":
            lhs, _, expr = rest.partition("=")
            tokens = lhs.split()
            if len(tokens) != 2 or not expr.strip():
                raise ChartFileError("expected 'bracket i j = <poly>'", lineno)
            i = _coord_index(tokens[0], parser.vars, lineno)
            j = _coord_index(tokens[1], parser.vars, lineno)
            if i == j:
                raise ChartFileError("bracket of a coordinate with itself", lineno)
            try:
                poly = parser.parse(expr.strip())
            except ParseError as err:
                raise ChartFileError(f"bad polynomial: {err}", lineno) from None
            if i > j:
                i, j, poly = j, i, -poly
            if (i, j) in entries:
                raise ChartFileError(f"bracket ({coords[i]}, {coords[j]}) declared twice", lineno)
            entries[(i, j)] = poly
        elif head == "volume":
            if volume is not None:
                raise ChartFileError("volume declared twice", lineno)
            try:
                volume = parser.parse(rest.partition("=")[2].strip())
            except ParseError as err:
                raise ChartFileError(f"bad volume density: {err}", lineno) from None
            if volume.is_zero():
                raise ChartFileError("volume density must not be identically zero", lineno)
        elif head == "submanifold":
            if sub_names is not None:
                raise ChartFileError("submanifold declared twice", lineno)
            lhs, _, names = rest.partition("=")
            if lhs.strip() != "x":
                raise ChartFileError("expected 'submanifold x = <names>'", lineno)
            sub_names = names.split()
            if not sub_names:  # Q would be a point, and the criterion would check nothing
                raise ChartFileError("submanifold must name at least one coordinate", lineno)
            sub_line = lineno
        else:
            raise ChartFileError(f"unknown directive {head!r}", lineno)

    # i < j, both in range, and each value a nonzero Poly on dim variables: pi's invariants hold
    pi = PolyMultiVec._new(dim, 2, {k: p for k, p in entries.items() if p})
    chart = PoissonChart(dim, tuple(coords), pi, volume)

    if check_jacobi:
        failed = _not_poisson(chart)
        if failed is not None:
            key, witness = failed.witness
            names = ", ".join(coords[i] for i in key)
            raise ChartFileError(
                f"bracket is not Poisson: Jacobiator component ({names}) = {print_poly(witness, coords)}"
            )

    sub = None
    if sub_names is not None:
        xs = tuple(_coord_index(t, parser.vars, sub_line) for t in sub_names)
        ys = tuple(i for i in range(dim) if i not in xs)
        sub = AlignedSubmanifold(chart, xs, ys)
    return chart, sub


def parse_chart_file(path: str | os.PathLike, check_jacobi: bool = True) -> tuple[PoissonChart, AlignedSubmanifold | None]:
    """Load a chart file from a path or a bundled fixture name."""
    return parse_chart_text(_read_text(path), check_jacobi)


def emit_chart(chart: PoissonChart, sub: AlignedSubmanifold | None = None) -> str:
    lines = [f"dim {chart.dim}", "coords " + " ".join(chart.coords)]
    for (i, j) in sorted(chart.pi.comps):
        poly = chart.pi.comps[(i, j)]
        lines.append(f"bracket {chart.coords[i]} {chart.coords[j]} = {print_poly(poly, chart.coords)}")
    if chart.rho != Poly.const(chart.dim, 1):
        lines.append(f"volume = {print_poly(chart.rho, chart.coords)}")
    if sub is not None:
        lines.append("submanifold x = " + " ".join(chart.coords[i] for i in sub.x_indices))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def parse_algebra_text(text: str, name: str = "") -> LieAlgebraData:
    _, labels, body = _header(text, "labels", "labels")
    index = {name: j for j, name in enumerate(labels)}
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    for lineno, head, rest in body:
        if head == "c":
            lhs, _, value = rest.partition("=")
            tokens = lhs.split()
            if len(tokens) != 3 or not value.strip():
                raise ChartFileError("expected 'c i j k = <scalar>'", lineno)
            i = _coord_index(tokens[0], index, lineno)
            j = _coord_index(tokens[1], index, lineno)
            k = _coord_index(tokens[2], index, lineno)
            try:
                coeff = parse_scalar(value.strip())
            except (ParseError, ValueError) as err:
                raise ChartFileError(f"bad scalar: {err}", lineno) from None
            if i == j:
                raise ChartFileError("diagonal structure constant", lineno)
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            entry = brackets.setdefault((i, j), {})
            if k in entry:
                raise ChartFileError("structure constant declared twice", lineno)
            entry[k] = coeff if sign == 1 else -coeff
    g = LieAlgebraData(labels, brackets, name=name)
    verdict = validate_lie(g)
    if not verdict:  # the witness is an index tuple: for Jacobi, the smallest failing triple
        where = ", ".join(labels[i] for i in verdict.witness)
        raise ChartFileError(f"structure constants invalid: {verdict.reason} on ({where})")
    return g


def load_algebra(name_or_path: str | Path) -> LieAlgebraData:
    """Resolve a built-in algebra name, a bundled fixture, or a file path."""
    name = str(name_or_path)
    if name in BUILTIN_ALGEBRAS:
        return builtin_algebra(name)
    return parse_algebra_text(_read_text(name_or_path), name=Path(name).stem)


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def fixture_path(name: str | os.PathLike) -> str:
    """An existing path as-is, else the bundled fixture of that name."""
    if os.path.exists(name):
        return os.fspath(name)
    candidate = os.path.join(_DATA_DIR, name)
    if os.path.exists(candidate):
        return candidate
    raise FileNotFoundError(f"no such file or bundled fixture: {name}")


def _read_text(name: str | os.PathLike) -> str:
    """The text of a path or bundled fixture, decoded from UTF-8 once; a directory, an unreadable file or other bytes are bad input."""
    path = fixture_path(name)
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidInput(f"cannot read {name}: {err.strerror if isinstance(err, OSError) else err}") from None
