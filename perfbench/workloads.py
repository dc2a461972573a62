"""Seeded workloads: CLI argument vectors, generated chart files and known answers.

Nothing here imports poissonkit.  Every expected verdict comes from a bundled
fixture, from theory, or from how a generated input was constructed:

* gl(n) Lie-Poisson charts are Poisson, unimodular (modular field 0), and
  tr X, tr X^2 are Casimirs.
* log-canonical charts {y_i, y_j} = c_ij y_i y_j are Poisson for every
  antisymmetric integer c; their modular field is sum_i (sum_j c_ij) y_i d/dy_i,
  and y_1 * ... * y_d is a Casimir exactly when every column sum of c is 0.
* adding a constant a to {y_1, y_2} adds -a (c_1k + c_2k) y_k to the
  (1, 2, k) Jacobiator component, so the variant is non-Poisson whenever some
  c_1k + c_2k is nonzero; only such variants are kept.

exact-lie has no negative control: a non-Lie .alg file is rejected at parse
time (exit 2), so no exact-lie command can be made to exit 1 on purpose.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("exact-lie", "numeric-group", "symbolic-charts")

# A run executes round(seconds / NOMINAL_PASS_S) passes, so the number of
# operations, and with it the tail percentile, is the same on every commit.
# At 20 s that is 2, 4 and 3 passes; at reference host speed (hostspeed.py) one
# pass took a median 13.7 s, 4.9 s and 5.8 s when the first baseline was taken.
NOMINAL_PASS_S = {"exact-lie": 10.0, "numeric-group": 5.0, "symbolic-charts": 6.0}

LOG_CANONICAL_DIMS = (10, 11, 12, 13, 14)
GL_SIZES = (4, 5)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and its known answer."""

    label: str  # stable name of the command shape, used for per-operation rows
    argv: tuple[str, ...]
    expect_exit: int
    expect_values: dict = field(default_factory=dict)  # report key -> exact str(value)
    expect_abs: dict = field(default_factory=dict)  # report key -> (|value| target, tolerance)
    expect_vf: dict | None = None  # modular_vf as {coordinate: integer coefficient of that coordinate}


def check_answer(op: Op, code: int | None, values: dict) -> str | None:
    """None if the verdict matches the known answer, else what differs."""
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}"
    for key, want in op.expect_values.items():
        got = values.get(key)
        if got != str(want):
            return f"{key}={got!r}, expected {want!r}"
    for key, (target, tol) in op.expect_abs.items():
        try:
            got = abs(float(values[key]))
        except (KeyError, ValueError):
            return f"{key} missing or not a number"
        if abs(got - target) > tol:
            return f"|{key}|={got!r}, expected {target} +- {tol}"
    if op.expect_vf is not None:
        got = parse_linear_vf(values.get("modular_vf", ""))
        if got != op.expect_vf:
            return f"modular_vf={values.get('modular_vf')!r}, expected coefficients {op.expect_vf}"
    return None


_VF_TERM = re.compile(r"\((-?)(\d*)\*?(\w+)\) d/d(\w+)")


def parse_linear_vf(text: str) -> dict | None:
    """'(-y1) d/dy1 + (2*y3) d/dy3' -> {'y1': -1, 'y3': 2}; '0' -> {}; None if not diagonal-linear."""
    if text == "0":
        return {}
    terms = [t.strip() for t in text.split(" + ")]
    out = {}
    for term in terms:
        m = _VF_TERM.fullmatch(term)
        if m is None or m.group(3) != m.group(4):
            return None
        out[m.group(4)] = (-1 if m.group(1) else 1) * int(m.group(2) or 1)
    return out


# ---------------------------------------------------------------------------
# chart generators
# ---------------------------------------------------------------------------


def _signed_term(coeff: int, monomial: str) -> str:
    if coeff == 1:
        return monomial
    if coeff == -1:
        return f"-{monomial}"
    return f"{coeff}*{monomial}"


def _chart_text(coords: list[str], brackets: dict[tuple[int, int], str]) -> str:
    lines = [f"dim {len(coords)}", "coords " + " ".join(coords)]
    lines += [f"bracket {coords[i]} {coords[j]} = {expr}" for (i, j), expr in sorted(brackets.items())]
    return "\n".join(lines) + "\n"


def gl_chart(n: int, rng: random.Random) -> str:
    """Lie-Poisson chart of gl(n): {x_ij, x_kl} = d_jk x_il - d_li x_kj, coordinates in seeded order."""
    entries = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    rng.shuffle(entries)
    coords = [f"x{i}{j}" for i, j in entries]
    brackets = {}
    for a, (i, j) in enumerate(entries):
        for b in range(a + 1, len(entries)):
            k, l = entries[b]
            terms = []
            if j == k:
                terms.append(f"x{i}{l}")
            if l == i:
                terms.append(f"-x{k}{j}")
            if terms:
                brackets[(a, b)] = " + ".join(terms).replace("+ -", "- ")
    return _chart_text(coords, brackets)


def gl_casimirs(n: int) -> tuple[str, str]:
    trace = " + ".join(f"x{i}{i}" for i in range(1, n + 1))
    square = " + ".join(f"x{i}{j}*x{j}{i}" for i in range(1, n + 1) for j in range(1, n + 1))
    return trace, square


def random_log_canonical(dim: int, rng: random.Random) -> dict[tuple[int, int], int]:
    """Antisymmetric integer c with every entry above the diagonal nonzero."""
    return {(i, j): rng.choice((-3, -2, -1, 1, 2, 3)) for i in range(dim) for j in range(i + 1, dim)}


def cyclic_log_canonical(dim: int, rng: random.Random) -> dict[tuple[int, int], int]:
    """Antisymmetric integer c with zero row sums: a sum of oriented 3-cycles."""
    c = {(i, j): 0 for i in range(dim) for j in range(i + 1, dim)}
    for _ in range(2 * dim):
        a, b, d = rng.sample(range(dim), 3)
        m = rng.choice((-2, -1, 1, 2))
        for p, q in ((a, b), (b, d), (d, a)):
            if p < q:
                c[(p, q)] += m
            else:
                c[(q, p)] -= m
    return c


def entry(c: dict, i: int, j: int) -> int:
    if i == j:
        return 0
    return c[(i, j)] if i < j else -c[(j, i)]


def column_sums(c: dict, dim: int) -> list[int]:
    return [sum(entry(c, i, k) for i in range(dim)) for k in range(dim)]


def breaks_jacobi(c: dict, dim: int) -> bool:
    """A constant added to {y_1, y_2} makes the Jacobiator nonzero iff this holds."""
    return any(entry(c, 0, k) + entry(c, 1, k) != 0 for k in range(2, dim))


def log_canonical_chart(c: dict, dim: int, constant: int = 0) -> str:
    coords = [f"y{i + 1}" for i in range(dim)]
    brackets = {}
    for (i, j), cij in c.items():
        terms = [_signed_term(cij, f"y{i + 1}*y{j + 1}")] if cij else []
        if constant and (i, j) == (0, 1):
            terms.append(str(constant))
        if terms:
            brackets[(i, j)] = " + ".join(terms).replace("+ -", "- ")
    return _chart_text(coords, brackets)


def modular_coefficients(c: dict, dim: int) -> dict[str, int]:
    rows = [sum(entry(c, i, k) for k in range(dim)) for i in range(dim)]
    return {f"y{i + 1}": s for i, s in enumerate(rows) if s}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def exact_lie(rng: random.Random, workdir: Path) -> list[Op]:
    dims = {"sl2": 3, "sl3": 8, "sl4": 15, "su2": 3, "su3": 8}
    ops = [
        Op(f"lie validate {alg}", ("lie", "validate", alg), 0, {"dim": dims[alg]})
        for alg in ("sl3", "sl4", "su3")
    ]
    ops += [
        Op(f"lie bialgebra {alg}", ("lie", "bialgebra", "--algebra", alg), 0,
           {"double_dim": 2 * dims[alg], "chi": True, "coboundary": True, "symmetric": True})
        for alg in ("sl2", "sl3", "su2", "su3", "sl4")
    ]
    ops += [
        Op(f"oracle alg {alg}", ("oracle", "alg", "--algebra", alg, "--seed", _seed(rng)), 0, {"mismatches": 0})
        for alg in ("sl3", "su3")
    ]
    ops.append(Op("dynr cdybe sl4 trig 10", ("dynr", "cdybe", "--algebra", "sl4", "--samples", "10",
                                              "--seed", _seed(rng)), 0))
    ops.append(Op("group crosscheck n4 3", ("group", "crosscheck", "--n", "4", "--samples", "3",
                                             "--seed", _seed(rng)), 0))
    return ops


def numeric_group(rng: random.Random, workdir: Path) -> list[Op]:
    ops = [
        Op("group crosscheck n3 200", ("group", "crosscheck", "--n", "3", "--samples", "200",
                                       "--seed", _seed(rng)), 0, {"group": "SL(3,R)"}),
        Op("group bruhat n3 200", ("group", "bruhat", "--n", "3", "--samples", "200",
                                   "--seed", _seed(rng)), 0, {"group": "SU(3)"}),
        Op("group stokes 200", ("group", "stokes", "--samples", "200", "--seed", _seed(rng)), 0,
           expect_abs={"kappa": (2.0, 1e-6)}),
    ]
    for family, samples, code in (("trig", 300, 0), ("rational", 300, 0), ("tanh-corrupted", 50, 1)):
        ops.append(Op(f"dynr cdybe sl3 {family} {samples}",
                      ("dynr", "cdybe", "--algebra", "sl3", "--family", family, "--samples", str(samples),
                       "--seed", _seed(rng)), code))
    return ops


def symbolic_charts(rng: random.Random, workdir: Path) -> list[Op]:
    ops: list[Op] = []

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        return str(path)

    tag = _seed(rng)
    for n in GL_SIZES:
        path = write(f"gl{n}-{tag}.chart", gl_chart(n, rng))
        trace, square = gl_casimirs(n)
        ops += [
            Op(f"check jacobi gl{n}", ("check", "jacobi", path), 0, {"jacobiator": "0"}),
            Op(f"modular vf gl{n}", ("modular", "vf", path), 0, {"modular_vf": "0"}),
            Op(f"check casimir gl{n} trace", ("check", "casimir", path, "--f", trace), 0),
            Op(f"check casimir gl{n} trace-square", ("check", "casimir", path, "--f", square), 0),
        ]

    for dim in LOG_CANONICAL_DIMS:
        product = "*".join(f"y{i + 1}" for i in range(dim))
        c = random_log_canonical(dim, rng)
        while not breaks_jacobi(c, dim) or not any(column_sums(c, dim)):
            c = random_log_canonical(dim, rng)
        path = write(f"logcan{dim}-{tag}.chart", log_canonical_chart(c, dim))
        ops += [
            Op(f"check jacobi logcan{dim}", ("check", "jacobi", path), 0, {"jacobiator": "0"}),
            Op(f"modular vf logcan{dim}", ("modular", "vf", path), 0, expect_vf=modular_coefficients(c, dim)),
            Op(f"check casimir logcan{dim} product (not Casimir)", ("check", "casimir", path, "--f", product), 1),
        ]
        bad = write(f"logcan{dim}-bad-{tag}.chart", log_canonical_chart(c, dim, constant=rng.choice((-2, -1, 1, 2))))
        ops.append(Op(f"check jacobi logcan{dim} bad", ("check", "jacobi", bad), 1, {"jacobiator": "nonzero"}))
        cyc = cyclic_log_canonical(dim, rng)
        path = write(f"logcan{dim}-cyclic-{tag}.chart", log_canonical_chart(cyc, dim))
        ops.append(Op(f"check casimir logcan{dim} cyclic product", ("check", "casimir", path, "--f", product), 0))

    ops += [
        Op(f"oracle schouten dim{d}", ("oracle", "schouten", "--dim", str(d), "--seed", _seed(rng)), 0,
           {"mismatches": 0})
        for d in (4, 6)
    ]
    # the README's fixture commands, then the fixture negative controls
    ops += [
        Op("check jacobi dubrovin3", ("check", "jacobi", "dubrovin3.chart"), 0, {"jacobiator": "0"}),
        Op("check casimir dubrovin3 markoff", ("check", "casimir", "dubrovin3.chart", "--f", "x^2+y^2+z^2-x*y*z"), 0),
        Op("check bracket dubrovin3", ("check", "bracket", "dubrovin3.chart", "--f", "x", "--g", "y"), 0,
           {"bracket": "x*y - 2*z"}),
        Op("dirac aligned product22", ("dirac", "aligned", "product22.chart"), 0),
        Op("dirac fixed-locus so3", ("dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,1"), 0,
           {"fixed_dim": 1}),
        Op("dirac affine-lie so3", ("dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x1,x2",
                                    "--mu", "0,0,1"), 0),
        Op("dirac slice slice_family", ("dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "0",
                                        "--degree", "1"), 0),
        Op("dirac transverse sl2", ("dirac", "transverse", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12",
                                    "--mu", "0,0,1"), 0),
        Op("modular vf so3", ("modular", "vf", "so3.chart"), 0, {"modular_vf": "0"}),
        Op("modular relative relmod2", ("modular", "relative", "relmod2.chart"), 0, {"nu_r": "(1) d/dx"}),
        Op("dirac aligned product22_bad", ("dirac", "aligned", "product22_bad.chart"), 1),
        Op("check casimir dubrovin3 x", ("check", "casimir", "dubrovin3.chart", "--f", "x"), 1),
    ]
    return ops


BUILDERS = {"exact-lie": exact_lie, "numeric-group": numeric_group, "symbolic-charts": symbolic_charts}


def build_pass(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """The operation list of one pass; identical for identical (workload, seed, pass_index)."""
    return BUILDERS[workload](pass_rng(workload, seed, pass_index), workdir)
