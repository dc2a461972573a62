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
``submanifold`` are optional.  ``#`` starts a comment.  Algebra files::

    dim 3
    labels x1 x2 x3
    c x1 x2 x3 = 1

list only the nonzero structure constants with i < j; names or indices both
work.  Built-in algebras (sl2, sl3, sl4, su2, su3, so3) and the bundled
``.chart``/``.alg`` fixtures resolve by bare name.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .dirac import AlignedSubmanifold
from .exactalg import ParseError, Poly, PolyMultiVec, parse_poly, parse_scalar, print_poly
from .liealg import BUILTIN_ALGEBRAS, LieAlgebraData, builtin_algebra, validate_lie
from .poisson import PoissonChart, jacobiator
from .report import InvalidInput

__all__ = [
    "ChartFileError",
    "parse_chart_text",
    "parse_chart_file",
    "emit_chart",
    "parse_algebra_text",
    "load_algebra",
    "fixture_path",
    "list_fixtures",
]


class ChartFileError(InvalidInput):
    """A structured-text parse error carrying a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _coord_index(token: str, coords: list[str], lineno: int) -> int:
    if token in coords:
        return coords.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise ChartFileError(f"unknown coordinate {token!r}", lineno) from None
    if not 0 <= idx < len(coords):
        raise ChartFileError(f"coordinate index {idx} out of range", lineno)
    return idx


def _header(text: str, names_key: str, noun: str) -> tuple[int, list[str], list[tuple[int, str, str]]]:
    """The ``dim`` line and the names line (``coords`` or ``labels``) of either format, read
    wherever they stand, and the other lines as (line number, directive, rest of the line)."""
    dim, names, names_line, body = None, None, 1, []
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ChartFileError(f"bad dimension {rest!r}", lineno) from None
        elif head == names_key:
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
            i = _coord_index(tokens[0], coords, lineno)
            j = _coord_index(tokens[1], coords, lineno)
            if i == j:
                raise ChartFileError("bracket of a coordinate with itself", lineno)
            try:
                poly = parse_poly(expr.strip(), coords)
            except ParseError as err:
                raise ChartFileError(f"bad polynomial: {err}", lineno) from None
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if (i, j) in entries:
                raise ChartFileError(f"bracket ({coords[i]}, {coords[j]}) declared twice", lineno)
            entries[(i, j)] = poly if sign == 1 else -poly
        elif head == "volume":
            _, _, expr = rest.partition("=")
            try:
                volume = parse_poly(expr.strip(), coords)
            except ParseError as err:
                raise ChartFileError(f"bad volume density: {err}", lineno) from None
            if volume.is_zero():
                raise ChartFileError("volume density must not be identically zero", lineno)
        elif head == "submanifold":
            lhs, _, names = rest.partition("=")
            if lhs.strip() != "x":
                raise ChartFileError("expected 'submanifold x = <names>'", lineno)
            sub_names = names.split()
            sub_line = lineno
        else:
            raise ChartFileError(f"unknown directive {head!r}", lineno)

    pi = PolyMultiVec(dim, 2, {k: p for k, p in entries.items() if not p.is_zero()})
    chart = PoissonChart(dim, tuple(coords), pi, volume)

    if check_jacobi:
        jac = jacobiator(chart)
        if not jac.is_zero():
            key, witness = sorted(jac.comps.items())[0]
            names = ", ".join(coords[i] for i in key)
            raise ChartFileError(
                f"bracket is not Poisson: Jacobiator component ({names}) = {print_poly(witness, coords)}", 0
            )

    sub = None
    if sub_names is not None:
        xs = tuple(_coord_index(t, coords, sub_line) for t in sub_names)
        ys = tuple(i for i in range(dim) if i not in xs)
        sub = AlignedSubmanifold(chart, xs, ys)
    return chart, sub


def parse_chart_file(path: str | Path, check_jacobi: bool = True) -> tuple[PoissonChart, AlignedSubmanifold | None]:
    """Load a chart file from a path or a bundled fixture name."""
    return parse_chart_text(fixture_path(path).read_text(), check_jacobi)


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
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    for lineno, head, rest in body:
        if head == "c":
            lhs, _, value = rest.partition("=")
            tokens = lhs.split()
            if len(tokens) != 3 or not value.strip():
                raise ChartFileError("expected 'c i j k = <scalar>'", lineno)
            i = _coord_index(tokens[0], labels, lineno)
            j = _coord_index(tokens[1], labels, lineno)
            k = _coord_index(tokens[2], labels, lineno)
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
    g = LieAlgebraData.from_brackets(labels, brackets, name=name)
    verdict = validate_lie(g)
    if not verdict:
        raise ChartFileError(f"structure constants invalid: {verdict.reason}", 0)
    return g


def load_algebra(name_or_path: str | Path) -> LieAlgebraData:
    """Resolve a built-in algebra name, a bundled fixture, or a file path."""
    name = str(name_or_path)
    if name in BUILTIN_ALGEBRAS:
        return builtin_algebra(name)
    path = fixture_path(name_or_path)
    return parse_algebra_text(path.read_text(), name=Path(name).stem)


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------


def _data_dir() -> Path:
    return Path(importlib.resources.files("poissonkit") / "data")


def fixture_path(name: str | Path) -> Path:
    """An existing path as-is, else the bundled fixture of that name."""
    p = Path(name)
    if p.exists():
        return p
    candidate = _data_dir() / str(name)
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file or bundled fixture: {name}")


def list_fixtures() -> list[str]:
    return sorted(p.name for p in _data_dir().iterdir() if p.suffix in (".chart", ".alg"))
