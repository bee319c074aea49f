"""Command-line front end.

Subcommands:

  curvature   evaluate a curvature operator at a point or over a grid
  rank        bracket-closure and two-form rank checks
  scenario    run comparison scenarios and write reports

Configuration files are minimal INI-style text (sections + key=value,
``#`` comments) with all expressions parsed by the expression grammar.
Reports are deterministic: floats are serialized with 17 significant
digits and keys and arrays have fixed order.  ``scenario run --jobs N``
with N >= 2 sweeps v in a forked child process while u is swept; the
output, errors included, never depends on N.

Exit codes: 0 success, 2 configuration error (a bad SUBCURV_EPS_SING
included), 3 evaluation error (a value outside the float range
included), 4 missing frame metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import calculus as ca
from .calculus import CalculusError, CoordSystem, EvaluationError, Expr
from .core import (
    GridSpec,
    IndefiniteCometric,
    MissingFrames,
    ScalarField,
    SingularPoint,
    SubriemannianStructure,
    VectorFieldExpr,
    checked_box,
    compile_sweep,
    curvature_at,
    default_eps_sing,
    p_mean_curvature_expr,
    probe_validate,
    conorm_sq_expr,
)
from .brackets import BracketWordBound, bracket_generate_rank, tangent_distribution_fields, two_form_rank
from .heisenberg import cylinder_structure, graph_coords, standard_structure, drift_graph_structure
from . import smp

__all__ = [
    "ConfigError",
    "ConfigDocument",
    "parse_config",
    "load_config",
    "format_number",
    "dumps_report",
    "write_scenario_csv",
    "scenario_to_config",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_FRAMES = 4


class ConfigError(Exception):
    """Malformed configuration; message carries the line number."""


class _Value(str):
    """A config value that remembers the line it was read from (``lineno``)."""


def _at(value) -> str:
    """``"line N: "`` for a value read from config text, else ``""``."""
    lineno = getattr(value, "lineno", None)
    return f"line {lineno}: " if lineno is not None else ""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


class ConfigDocument:
    """Parsed sections: structure, functions, fields, scenario."""

    def __init__(self):
        self.structure_raw: Optional[dict] = None
        self.functions: dict = {}
        self.fields_raw: dict = {}
        self.scenario_raw: Optional[dict] = None

    # -- resolution -------------------------------------------------------

    def structure(self) -> SubriemannianStructure:
        if self.structure_raw is None:
            raise ConfigError("no [structure] section")
        try:
            return _build_structure(self.structure_raw)
        except ValueError as exc:
            # a parameter the constructors refuse: n = 0, an asymmetric cometric
            raise ConfigError(f"[structure]: {exc}") from None

    def function(self, name: str, coords: CoordSystem) -> ScalarField:
        if name not in self.functions:
            raise ConfigError(f"{_at(name)}no [function {name}] section")
        raw = self.functions[name]
        if "expr" not in raw:
            raise ConfigError(f"function {name!r} has no expr")
        expr = _config_expr(raw["expr"], coords, f"function {name!r}")
        box = _parse_box(raw["box"], len(coords), f"function {name!r}") if "box" in raw else None
        return ScalarField(expr, coords, box)

    def field(self, name: str, coords: CoordSystem) -> VectorFieldExpr:
        if name not in self.fields_raw:
            raise ConfigError(f"no [field {name}] section")
        raw = self.fields_raw[name]
        if "components" not in raw:
            raise ConfigError(f"field {name!r} has no components")
        comps = _parse_expr_list(raw["components"], coords, f"field {name}")
        if len(comps) != len(coords):
            raise ConfigError(
                f"{_at(raw['components'])}field {name!r} has {len(comps)} components for "
                f"{len(coords)} coordinates"
            )
        return VectorFieldExpr(coords, comps)


def parse_config(text: str) -> ConfigDocument:
    doc = ConfigDocument()
    current: Optional[dict] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            header = line[1:-1].strip()
            section, _, name = header.partition(" ")
            name = name.strip()
            if header == "structure":
                doc.structure_raw = current = {}
            elif header == "scenario":
                doc.scenario_raw = current = {}
            elif section == "function" and name:
                doc.functions[name] = current = {}
            elif section == "field" and name:
                doc.fields_raw[name] = current = {}
            else:
                raise ConfigError(f"line {lineno}: unknown section [{header}]")
            keys = _SECTION_KEYS[section]
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in keys and not (section == "structure" and key.startswith("cometric.")):
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{header}]")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = _Value(value)
        current[key].lineno = lineno
    return doc


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "rb") as fh:  # bytes, so a decode error's offset is the file's
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None
    return parse_config(text)


def _config_expr(text: str, coords: CoordSystem, where: str, value=None) -> Expr:
    """``text`` parsed over ``coords``; a parse error is a config error that
    names ``where`` and the line of ``value`` (by default of ``text``)."""
    try:
        return ca.parse_expr(text, coords)
    except CalculusError as exc:
        raise ConfigError(f"{_at(text if value is None else value)}{where}: {exc}") from exc


def _parse_expr_list(value: str, coords: CoordSystem, where: str) -> list:
    out = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"{_at(value)}{where}: empty expression in list")
        out.append(_config_expr(part, coords, where, value))
    return out


def _parse_box(value: str, n: int, where: str):
    intervals = []
    for part in value.split(","):
        part = part.strip()
        if ":" not in part:
            raise ConfigError(f"{_at(value)}box interval {part!r} must be lo:hi")
        lo, hi = part.split(":", 1)
        try:
            intervals.append((_real(lo), _real(hi)))
        except ValueError as exc:
            raise ConfigError(f"{_at(value)}bad box interval {part!r}") from exc
    try:
        return checked_box(intervals, n)
    except ValueError as exc:
        raise ConfigError(f"{_at(value)}{where}: {exc}") from None


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _grid_counts(text: str):
    counts = tuple(int(c) for c in text.split(","))
    if min(counts) < 1:
        raise ValueError("grid counts must be >= 1")
    return counts if "," in text else counts[0]


# numeric [scenario] key -> (smp.ComparisonScenario keyword, converter); the
# tolerance keys are smp.Tolerances.__slots__, all real
_SCENARIO_NUMBERS = {
    "grid": ("grid_counts", _grid_counts),
    "T": ("T", _real),
    "step": ("step", _real),
    "max_propagation_starts": ("max_propagation_starts", int),
    "rank_depth": ("rank_depth", int),
}

# the [structure] keys each kind reads; custom also reads cometric.L.K
_STRUCTURE_KEYS = {"heisenberg": {"kind", "n"}, "cylinder": {"kind", "n"}, "graph_F": {"kind", "m", "F"},
                   "custom": {"kind", "coords", "density", "degeneracy", "box"}}

# the keys each section accepts; [structure] also takes cometric.L.K
_SECTION_KEYS = {
    "structure": set().union(*_STRUCTURE_KEYS.values()),
    "function": {"expr", "box"},
    "field": {"components"},
    "scenario": {
        "name", "description", "operator", "p", "graph_dir", "n", "u", "v", "box",
        *smp.Tolerances.__slots__, *_SCENARIO_NUMBERS,
    },
}

_KINDS = {
    int: "an integer",
    _real: "a number",
    Fraction: "a rational number",
    _grid_counts: "one positive integer per axis, or one for all",
}


def _number(raw: dict, key: str, where: str, convert=_real):
    """``convert(raw[key])``; a bad value is a config error naming its line."""
    if key not in raw:
        raise ConfigError(f"{where}: missing {key}")
    try:
        return convert(raw[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"{_at(raw[key])}{where}: {key} must be {_KINDS[convert]}, "
            f"got {raw[key]!r}"
        ) from None


def _build_structure(raw: dict) -> SubriemannianStructure:
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("[structure]: missing kind")
    # compact spellings: heisenberg(2), cylinder(1), graph_F(4)
    if kind.endswith(")") and "(" in kind:
        base, arg = kind[:-1].split("(", 1)
        kind = base.strip()
        size = "m" if kind == "graph_F" else "n"
        if size in raw:
            raise ConfigError(f"{_at(raw[size])}[structure]: size given twice, in kind {raw['kind']} and as {size}")
        raw = {**raw, size: _Value(arg)}  # read by _number as if given as a key on the kind's line
        raw[size].lineno = getattr(raw["kind"], "lineno", None)
    if kind not in _STRUCTURE_KEYS:
        raise ConfigError(f"[structure]: unknown kind {kind!r}")
    for key, value in raw.items():
        if key not in _STRUCTURE_KEYS[kind] and not (kind == "custom" and key.startswith("cometric.")):
            raise ConfigError(f"{_at(value)}[structure]: kind {kind} does not read {key}")
    if kind == "heisenberg":
        return standard_structure(_number(raw, "n", "[structure]", int))
    if kind == "cylinder":
        return cylinder_structure(_number(raw, "n", "[structure]", int))
    if kind == "graph_F":
        m = _number(raw, "m", "[structure]", int)
        if "F" not in raw:
            raise ConfigError("[structure]: graph_F needs F = expr, expr, ...")
        F = _parse_expr_list(raw["F"], graph_coords(m), "[structure] F")
        if len(F) != m:
            raise ConfigError(f"{_at(raw['F'])}[structure]: F has {len(F)} components for m={m}")
        return drift_graph_structure(F, m)
    if kind == "custom":
        if "coords" not in raw:
            raise ConfigError("[structure]: custom needs coords = name, name, ...")
        names = tuple(s.strip() for s in raw["coords"].split(","))
        try:
            coords = CoordSystem(names)
        except ValueError as exc:  # a name given twice
            raise ConfigError(f"{_at(raw['coords'])}[structure] coords: {exc}") from None
        for i, name in enumerate(names):  # the parser must read each name back as its coordinate
            where = f"[structure] coords: {name!r} is not a name"
            if _config_expr(name, coords, where, raw["coords"]) is not ca.Var(i):
                raise ConfigError(f"{_at(raw['coords'])}{where}")
        n = len(coords)
        given = {}
        for key, value in raw.items():
            if not key.startswith("cometric."):
                continue
            try:  # cometric.L.K, with integer L and K
                _, l, k = key.split(".")
                l, k = int(l), int(k)
            except ValueError as exc:
                raise ConfigError(f"{_at(value)}[structure]: bad cometric key {key!r}") from exc
            if not (0 <= l < n and 0 <= k < n):
                raise ConfigError(f"{_at(value)}[structure]: cometric index out of range in {key}")
            given[l, k] = _config_expr(value, coords, f"[structure] {key}")
            if given.get((k, l), given[l, k]) != given[l, k]:
                raise ConfigError(f"{_at(value)}[structure]: {key} differs from cometric.{k}.{l}, "
                                  "and the cometric is symmetric")
        cometric = [[given.get((l, k), given.get((k, l), ca.ZERO)) for k in range(n)] for l in range(n)]
        density = _config_expr(raw["density"], coords, "[structure] density") if "density" in raw else ca.ONE
        extra = {}
        if "degeneracy" in raw:
            extra["degeneracy"] = _number(raw, "degeneracy", "[structure]", int)
        box = _parse_box(raw["box"], n, "[structure]") if "box" in raw else None
        S = SubriemannianStructure(coords, cometric, density, domain_box=box, **extra)
        if box is not None:
            try:
                issues = probe_validate(S)
            except EvaluationError as exc:
                raise ConfigError(
                    f"{_at(raw['box'])}[structure]: cometric or density "
                    f"undefined on the box: {exc}"
                ) from None
            if issues:
                raise ConfigError(f"[structure]: {issues[0]}")
        return S


# operators that take only their size n, by kind
_SIZED_OPERATORS = {
    cls.kind: cls
    for cls in (smp.IntrinsicOperator, smp.LaGraphOperator, smp.RadialCylinderOperator)
}


# [scenario] keys that only some operators read -> those operators
_OPERATOR_KEYS = {"p": {"generic"}, "graph_dir": {"generic"}, "n": set(_SIZED_OPERATORS)}


def _build_operator(doc: ConfigDocument, raw: dict):
    name = raw.get("operator")
    if name is None:
        raise ConfigError("[scenario]: missing operator")
    if name not in _SIZED_OPERATORS and name not in ("generic", "graph_HF"):
        raise ConfigError(f"{_at(name)}[scenario]: unknown operator {name!r}")
    for key, readers in _OPERATOR_KEYS.items():
        if key in raw and name not in readers:
            raise ConfigError(f"{_at(raw[key])}[scenario]: operator {name} does not read {key}")
    if name in _SIZED_OPERATORS:
        try:
            return _SIZED_OPERATORS[name](_number(raw, "n", "[scenario]", int))
        except ValueError as exc:  # n < 1
            raise smp.ParameterError(str(exc), "n") from exc
    S = doc.structure()
    if name == "graph_HF":
        if S.null_coform is None or S.dim < 2:
            raise ConfigError(f"{_at(name)}[scenario]: graph_HF needs a graph_F structure")
        m = S.dim - 1
        return smp.GraphHFOperator(S.null_coform[:m], m)
    extra = {}
    if "p" in raw:
        extra["p"] = _number(raw, "p", "[scenario]", Fraction)
        if extra["p"] < 0:
            raise ConfigError(f"{_at(raw['p'])}[scenario]: p must be >= 0")
    if "graph_dir" in raw:
        try:
            extra["graph_dir"] = S.coords.index(raw["graph_dir"])
        except KeyError:
            raise ConfigError(
                f"{_at(raw['graph_dir'])}[scenario]: unknown graph_dir {raw['graph_dir']!r}"
            ) from None
    return smp.GenericOperator(S, **extra)


def scenario_from_config(doc: ConfigDocument) -> smp.ComparisonScenario:
    raw = doc.scenario_raw
    if raw is None:
        raise ConfigError("no [scenario] section")
    try:
        operator = _build_operator(doc, raw)
        chart = operator.chart
        for key in ("u", "v"):
            if key not in raw:
                raise ConfigError(f"[scenario]: missing {key}")
        u = doc.function(raw["u"], chart)
        v = doc.function(raw["v"], chart)
        if "box" in raw:
            box = _parse_box(raw["box"], len(chart), "[scenario]")
        elif u.box is not None:
            box = u.box
        else:
            raise ConfigError("[scenario]: no box (set box= or give u a box)")
        # only the keys present are passed on: the defaults live in
        # smp.ComparisonScenario and smp.Tolerances
        where = "[scenario]"
        tol = smp.Tolerances(
            **{k: _number(raw, k, where) for k in smp.Tolerances.__slots__ if k in raw}
        )
        extra = {
            keyword: _number(raw, key, where, convert)
            for key, (keyword, convert) in _SCENARIO_NUMBERS.items()
            if key in raw
        }
        if "description" in raw:
            extra["description"] = raw["description"]
        return smp.ComparisonScenario(
            raw.get("name", "config-scenario"),
            operator,
            u.expr,
            v.expr,
            box=box,
            tolerances=tol,
            **extra,
        )
    except ValueError as exc:
        # the line of the first key present that a refused parameter names
        keyword_keys = {keyword: key for key, (keyword, _) in _SCENARIO_NUMBERS.items()}
        keys = [keyword_keys.get(p, p) for p in getattr(exc, "parameters", ())]
        line = next((_at(raw[k]) for k in keys if k in raw), "")
        raise ConfigError(f"{line}[scenario]: {exc}") from exc


def scenario_to_config(sc: smp.ComparisonScenario) -> str:
    """Render a scenario as a config file reproducing its report.

    A name or description holding ``#`` or a line break has no config
    spelling (the reader would cut it there) and raises ``ValueError``.
    """
    for field in ("name", "description"):
        text = getattr(sc, field)
        # the reader splits lines as str.splitlines does
        if "#" in text or text.splitlines() not in ([], [text]):
            raise ValueError(
                f"scenario {field} {text!r} holds '#' or a line break, "
                "which a config value cannot"
            )
    op = sc.operator
    chart = op.chart
    lines = ["[structure]", *_structure_config_lines(op.structure), ""]
    for graph in ("u", "v"):
        expr = getattr(sc, graph).expr
        lines += [f"[function {graph}]", "expr = " + ca.unparse(expr, chart), ""]
    # quoted, so that surrounding blanks and quotes survive the reader
    lines += ["[scenario]", f'name = "{sc.name}"']
    if sc.description:
        lines.append(f'description = "{sc.description}"')
    lines.append(f"operator = {op.kind}")
    scenario_keys = _SECTION_KEYS["scenario"]
    lines += [f"{k} = {v}" for k, v in op.params().items() if k in scenario_keys]
    lines += ["u = u", "v = v"]
    lines.append(
        "box = " + ", ".join(f"{format_number(lo)}:{format_number(hi)}" for lo, hi in sc.box)
    )
    numbers = {key: getattr(sc, kw) for key, (kw, _) in _SCENARIO_NUMBERS.items()}
    for key, value in (*numbers.items(), *sc.tolerances.as_dict().items()):
        lines.append(f"{key} = {_config_number(value)}")
    return "\n".join(lines) + "\n"


def _config_number(value) -> str:
    """A number as config text; per-axis grid counts are a comma list."""
    if isinstance(value, tuple):
        return ", ".join(map(format_number, value))
    return format_number(value)


def _structure_config_lines(S: SubriemannianStructure) -> list:
    # a builtin structure round-trips through its construction parameters
    # when it equals the builtin (interned trees: equal entries are one node)
    dim, m = S.dim, S.dim - 1
    builtins = []
    if dim >= 3 and dim % 2 == 1:
        n = m // 2
        builtins.append((["kind = heisenberg", f"n = {n}"], standard_structure(n)))
        builtins.append((["kind = cylinder", f"n = {n}"], cylinder_structure(n)))
    if S.null_coform is not None:
        F = S.null_coform[:m]
        drift = ", ".join(ca.unparse(f, S.coords) for f in F)
        try:
            B = drift_graph_structure(F, m)
        except ValueError:
            pass  # the coform involves the graph coordinate: no drift graph
        else:
            builtins.append((["kind = graph_F", f"m = {m}", f"F = {drift}"], B))
    for written, B in builtins:
        if (S.coords, S.cometric, S.volume_density, S.frame_fields) == (
            B.coords, B.cometric, B.volume_density, B.frame_fields
        ):
            return written
    lines = ["kind = custom", "coords = " + ", ".join(S.coords.names)]
    for l in range(dim):
        for k in range(l, dim):
            entry = S.cometric[l][k]
            if entry is not ca.ZERO:
                lines.append(f"cometric.{l}.{k} = " + ca.unparse(entry, S.coords))
    lines.append("density = " + ca.unparse(S.volume_density, S.coords))
    lines.append(f"degeneracy = {S.degeneracy}")
    return lines


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits, fixed key order)
# ---------------------------------------------------------------------------


def format_number(x) -> str:
    """The one rule for every number the program writes: a float with 17
    significant digits (``-0.0`` as ``0``), an int as itself and a bool as
    ``true``/``false``.  A non-finite float raises ``ValueError`` and any
    other type ``TypeError``."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite number in report: {x}")
        return f"{x + 0.0:.17g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


class _Formatted(dict):
    """The text of each float (``format_number``) and each string (JSON), once per writer
    call; ints and bools stay out (``True == 1 == 1.0``)."""

    def __missing__(self, x) -> str:
        text = self[x] = json.dumps(x, ensure_ascii=False) if isinstance(x, str) else format_number(x)
        return text


def dumps_report(obj, indent: int = 0) -> str:
    """JSON with deterministic float formatting and insertion key order."""
    return _dumps(obj, indent, _Formatted())


def _dumps(obj, indent: int, text: _Formatted) -> str:
    if type(obj) is float:
        return text[obj]
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return text[obj]
    if isinstance(obj, (list, tuple)):
        # a list of floats only or of ints only is one map; bools (not of
        # type int) and mixed or nested lists are written item by item
        kinds = set(map(type, obj))
        brackets, items = "[]", (
            map(text.__getitem__, obj) if kinds == {float}
            else map(str, obj) if kinds == {int}
            else [_dumps(v, indent + 1, text) for v in obj]
        )
    elif isinstance(obj, dict):
        brackets, items = "{}", [
            text[str(k)] + ": " + _dumps(v, indent + 1, text) for k, v in obj.items()
        ]
    else:
        return format_number(obj)
    if not obj:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * indent + brackets[1]


def _write_text(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _grid_columns(grid: GridSpec) -> list:
    """The grid's points as text columns: each axis value is formatted once
    and repeated in row-major order."""
    shape, columns = grid.shape, []
    for i in range(len(shape)):
        repeats = range(math.prod(shape[i + 1:]))  # a value's points in a row
        column = [t for t in map(format_number, grid.axis_values(i)) for _ in repeats]
        columns.append(column * math.prod(shape[:i]))
    return columns


def _csv(header: Sequence[str], grid: GridSpec, numbers, texts=()) -> str:
    """CSV text, one line per grid point: its coordinates, the ``numbers``
    columns (floats and ``None``) through one memo, ``None`` as an empty
    cell, then the ``texts`` columns as they are."""
    text = _Formatted({None: ""}).__getitem__
    rows = zip(*_grid_columns(grid), *[map(text, column) for column in numbers], *texts, strict=True)
    return "\n".join([",".join(header), *map(",".join, rows), ""])


def write_scenario_csv(report: smp.ScenarioReport, coords: Sequence[str]) -> str:
    """The per-point table of a scenario run (see the README for its columns)."""
    masks = [["1" if h is None else "0" for h in column] for column in (report.h_u, report.h_v)]
    header = [*coords, "v_minus_u", "H_u", "H_v", "singular_u", "singular_v"]
    return _csv(header, report.grid, (report.du, report.h_u, report.h_v), masks)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_point(text: str, expected: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ConfigError(f"point has {len(parts)} coordinates, chart needs {expected}")
    try:
        return tuple(_real(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad point {text!r}: {exc}") from None


def cmd_curvature(args) -> int:
    doc = load_config(args.config)
    S = doc.structure()
    phi = doc.function(args.function, S.coords)
    p = args.p
    point = None if args.at is None else _parse_point(args.at, S.dim)
    try:
        h, sq = p_mean_curvature_expr(S, phi, p), conorm_sq_expr(S, phi)
    except OverflowError as exc:  # a constant folded while building H left the float range
        where = f"{_at(doc.functions[args.function]['expr'])}function {args.function!r}"
        raise EvaluationError(f"{where}: outside the float range while building H ({exc})") from None
    if point is not None:
        _write_text(args.out, format_number(curvature_at(h, sq, point)) + "\n")
        return EXIT_OK
    # grid mode over the function's box
    box = phi.box or S.domain_box
    if box is None:
        raise ConfigError("grid mode needs a box on the function or structure")
    grid = GridSpec.from_box(box, args.grid)
    if grid.npoints > smp.MAX_GRID_POINTS:  # refused before any point exists
        raise ConfigError(f"--grid {args.grid} asks for {grid.npoints} points, "
                          f"over the bound of {smp.MAX_GRID_POINTS}")
    _, values, _ = compile_sweep(h, sq, S.dim, default_eps_sing() ** 2)(grid)
    if args.format == "csv":
        _write_text(args.out, _csv([*S.coords.names, "H"], grid, [values]))
    else:
        payload = {
            "schema_version": "1",
            "function": args.function,
            "p": str(p),
            "grid": grid.as_dict(),
            "values": [{"point": list(pt), "H": h} for pt, h in zip(grid, values)],
        }
        _write_text(args.out, dumps_report(payload) + "\n")
    return EXIT_OK


def cmd_rank(args) -> int:
    doc = load_config(args.config)
    S = doc.structure()
    if args.at is not None:
        point = _parse_point(args.at, S.dim)
    elif S.domain_box is not None:
        point = tuple((lo + hi) / 2.0 for lo, hi in S.domain_box)
    else:
        point = tuple(0.1 * (i + 1) for i in range(S.dim))

    if args.surface is not None:
        if not S.frame_fields:
            raise MissingFrames("surface rank check needs structure frame fields")
        phi = doc.function(args.surface, S.coords)
        fields = tangent_distribution_fields(S, phi)
        target = S.dim - 1
        mode = "surface"
    elif args.fields:
        fields = [doc.field(name, S.coords) for name in args.fields]
        target = S.dim
        mode = "fields"
    else:
        if not S.frame_fields:
            raise MissingFrames("no --fields given and structure has no frames")
        fields = list(S.frame_fields)
        target = S.dim
        mode = "frames"

    try:
        report = bracket_generate_rank(fields, point, args.depth, target_rank=target)
        if S.null_coform is not None:
            w = S.null_coform
            m = [[ca.sub(ca.differentiate(w[j], k), ca.differentiate(w[k], j))
                  for j in range(S.dim)] for k in range(S.dim)]
            tf_rank = two_form_rank(m, point, restriction_basis=S.frame_fields or None)
    except BracketWordBound:
        raise  # its message names the point
    except ca.FAULTS as exc:
        raise EvaluationError(f"rank undefined at point {point}: {exc}") from None
    hormander = report.rank >= target
    payload = {
        "schema_version": "1",
        "mode": mode,
        "point": list(point),
        **report.as_dict(),
        "target_rank": target,
        "hormander": f"{'yes' if hormander else 'no'} (rank {report.rank} of {target})",
    }
    if S.null_coform is not None:
        payload["two_form_rank"] = tf_rank
        payload["two_form_verdict"] = (
            f"two-form rank {tf_rank} >= 3: bracket-generating criterion holds"
            if tf_rank >= 3
            else f"two-form rank {tf_rank} < 3: bracket-generating criterion fails"
        )
    _write_text(args.out, dumps_report(payload) + "\n")
    return EXIT_OK


def cmd_scenario(args) -> int:
    if args.action == "list":
        for name in smp.builtin_names():
            print(f"{name}  -  {smp.builtin_scenario(name).description}")
        return EXIT_OK
    if args.name:
        sc = smp.builtin_scenario(args.name)
    elif args.config:
        sc = scenario_from_config(load_config(args.config))
    else:
        raise ConfigError("scenario run needs a NAME or --config")
    report = smp.run_scenario(sc, jobs=args.jobs)
    _write_text(args.out, dumps_report(report.as_dict()) + "\n")
    if args.csv:
        _write_text(args.csv, write_scenario_csv(report, sc.operator.chart.names))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _at_least(convert, minimum):
    """argparse type: ``convert(text)``, refused (exit 2) below ``minimum``."""

    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcurv",
        description=(
            "horizontal p-mean curvature, bracket rank checks, and "
            "comparison scenarios for subriemannian structures"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curvature", help="evaluate a curvature operator")
    c.add_argument("--config", required=True)
    c.add_argument("--function", required=True)
    c.add_argument("--p", type=_at_least(Fraction, 0), default="0",
                   help="curvature exponent (rational)")
    c.add_argument("--at", help="comma-separated evaluation point")
    c.add_argument("--grid", type=_at_least(int, 1), default=17,
                   help="grid points per axis")
    c.add_argument("--out", default=None)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_curvature)

    r = sub.add_parser("rank", help="bracket-closure rank checks")
    r.add_argument("--config", required=True)
    r.add_argument("--fields", nargs="*", default=None)
    r.add_argument("--surface", default=None)
    r.add_argument("--at", default=None)
    r.add_argument("--depth", type=_at_least(int, 1), default=4)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_rank)

    s = sub.add_parser("scenario", help="run comparison scenarios")
    s.add_argument("action", choices=("run", "list"))
    s.add_argument("name", nargs="?", default=None)
    s.add_argument("--config", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--csv", default=None)
    s.add_argument("--jobs", type=_at_least(int, 1), default=1,
                   help="2 or more: sweep v in a forked child (same output at any value)")
    s.set_defaults(func=cmd_scenario)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default_eps_sing()  # a bad SUBCURV_EPS_SING fails before any work
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, KeyError, IndefiniteCometric) as exc:
        # str() of a KeyError quotes its message
        print(f"config error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingFrames as exc:
        print(f"missing frames: {exc}", file=sys.stderr)
        return EXIT_FRAMES
    except (SingularPoint, EvaluationError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except OverflowError as exc:
        # a constant folded while building the operator, or a value at a
        # point, left the float range
        print(f"evaluation error: outside the float range ({exc})", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
