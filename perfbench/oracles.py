"""Output checks that do not come from subcurv.

Each ``check_*`` takes the report text and CSV text of one op together
with the config dict that generated it, and returns None when the output
is right or a one-line reason when it is not.  Reports are read with
targeted regular expressions (not ``json.loads``) so that checking an
MB-sized report does not raise the peak memory of the process that runs
the ops.
"""

from __future__ import annotations

import itertools
import math
import re

from workloads import TOUCH_EXPECT, sweep_closed_form

_CLASS = re.compile(r'^  "classification": "([^"]*)"', re.M)
_TOUCHING = re.compile(r'^  "touching_count": (\d+)', re.M)
_GAP = re.compile(r'^  "curvature_gap": \{\s*"max": ([^,\s]+),', re.M)
_RANK = re.compile(
    r'^  "rank": \{\s*"rank": (\d+),\s*"depth": \d+,\s*"words_generated": \d+,'
    r'\s*"pivot_tol": [^,]+,\s*"expected": (\d+),', re.M
)


def _field(regex, text, what):
    m = regex.search(text)
    if m is None:
        raise ValueError(f"report has no {what}")
    return m.groups() if regex.groups > 1 else m.group(1)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _csv_rows(csv_text: str, header: list):
    lines = iter(csv_text.splitlines())
    got = next(lines, "")
    if got != ",".join(header):
        raise ValueError(f"CSV header {got[:80]!r}")
    for line in lines:
        yield line.split(",")


# ---------------------------------------------------------------------------
# sweep: closed-form curvature of unshifted paraboloids
# ---------------------------------------------------------------------------


def check_sweep(cfg: dict, report: str, csv_text: str):
    n, c_u, c_v = cfg["n"], cfg["c_u"], cfg["c_v"]
    h_u, h_v = sweep_closed_form(n, c_u), sweep_closed_form(n, c_v)
    names = [f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(n)]
    header = names + ["v_minus_u", "H_u", "H_v", "singular_u", "singular_v"]
    rows = 0
    try:
        for cells in _csv_rows(csv_text, header):
            rows += 1
            r_sq = sum(float(c) ** 2 for c in cells[: 2 * n])
            du = float(cells[2 * n])
            if abs(du - (c_v - c_u) * r_sq) > 1e-12 * c_v * r_sq + 1e-15:
                return f"row {rows}: v-u {du!r} != {(c_v - c_u) * r_sq!r}"
            for cell, flag, want, name in (
                (cells[2 * n + 1], cells[2 * n + 3], h_u, "H_u"),
                (cells[2 * n + 2], cells[2 * n + 4], h_v, "H_v"),
            ):
                if cell == "":
                    if flag != "1":
                        return f"row {rows}: {name} empty but not masked"
                    continue
                if _rel_err(float(cell), want) > 1e-8:
                    return f"row {rows}: {name} {cell} != closed form {want!r}"
        if rows != cfg["points"]:
            return f"CSV has {rows} rows, grid has {cfg['points']} points"
        label = _field(_CLASS, report, "classification")
        if label != "hypothesis-violated":
            return f"classification {label!r}"
        if int(_field(_TOUCHING, report, "touching_count")) != 0:
            return "unshifted paraboloids reported as touching"
        gap = float(_field(_GAP, report, "curvature gap"))
        if _rel_err(gap, h_v - h_u) > 1e-8:
            return f"curvature gap {gap!r} != {h_v - h_u!r}"
    except (ValueError, IndexError) as exc:
        return f"malformed output: {exc}"
    return None


# ---------------------------------------------------------------------------
# touch: known classification and bracket rank of each family
# ---------------------------------------------------------------------------


def check_touch(cfg: dict, report: str, csv_text: str):
    label_want, rank_want = TOUCH_EXPECT[cfg["family"]]
    try:
        label = _field(_CLASS, report, "classification")
        if label != label_want:
            return f"classification {label!r}, want {label_want!r}"
        if rank_want is not None:
            rank = tuple(int(v) for v in _field(_RANK, report, "rank block"))
            if rank != rank_want:
                return f"rank {rank[0]} of {rank[1]}, want {rank_want[0]} of {rank_want[1]}"
        if int(_field(_TOUCHING, report, "touching_count")) == 0:
            return "touching family reported no touching point"
    except ValueError as exc:
        return f"malformed output: {exc}"
    rows = csv_text.count("\n") - 1
    if rows != cfg["points"]:
        return f"CSV has {rows} rows, grid has {cfg['points']} points"
    return None


# ---------------------------------------------------------------------------
# cold-cli: central differences of A^-1 sum_l d_l(A |dphi|^(p-1) (G dphi)^l)
# ---------------------------------------------------------------------------

_EVAL_NS = {"__builtins__": {}, "sqrt": math.sqrt}


def _compile_text(text: str, names: list):
    """Grammar text -> Python callable of a coordinate tuple."""
    body = text.replace("^", "**")
    code = compile(f"lambda {', '.join(names)}: {body}", "<oracle>", "eval")
    f = eval(code, dict(_EVAL_NS))
    return lambda pt: f(*pt)


def _d4(f, pt, i, h):
    """Fourth-order central difference of f along axis i."""
    def at(s):
        q = list(pt)
        q[i] += s * h
        return f(q)
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def _d6(f, pt, i, h):
    """Richardson extrapolation of _d4 to sixth order."""
    return (16.0 * _d4(f, pt, i, h / 2) - _d4(f, pt, i, h)) / 15.0


class CurvatureOracle:
    """H = A^-1 sum_l d_l(A |dphi|*^(p-1) (G dphi)^l) by finite differences."""

    def __init__(self, cfg: dict):
        names = cfg["names"]
        dim = len(names)
        self.dim = dim
        self.p = float(eval(cfg["p"], {"__builtins__": {}}))
        g = [[None] * dim for _ in range(dim)]
        for key, text in cfg["cometric"].items():
            l, k = (int(v) for v in key.split(","))
            g[l][k] = g[k][l] = _compile_text(text, names)
        zero = lambda pt: 0.0  # noqa: E731
        self.g = [[e or zero for e in row] for row in g]
        self.density = _compile_text(cfg["density"], names)

    def _dphi(self, phi, pt):
        return [_d4(phi, pt, k, 1e-4) for k in range(self.dim)]

    def norm_sq(self, phi, pt) -> float:
        d = self._dphi(phi, pt)
        return sum(self.g[l][k](pt) * d[l] * d[k]
                   for l in range(self.dim) for k in range(self.dim))

    def curvature(self, phi, pt) -> float:
        dim, expo = self.dim, (self.p - 1.0) / 2.0

        def flux(l, q):
            d = self._dphi(phi, q)
            gd = [sum(self.g[a][k](q) * d[k] for k in range(dim)) for a in range(dim)]
            nsq = sum(gd[a] * d[a] for a in range(dim))
            return self.density(q) * nsq ** expo * gd[l]

        div = sum(_d6(lambda q, l=l: flux(l, q), pt, l, 2e-3) for l in range(dim))
        return div / self.density(pt)


def check_cold(cfg: dict, report, csv_text: str, rng):
    """``report`` is None for curvature-grid ops, which write only a CSV."""
    names = cfg["names"]
    oracle = CurvatureOracle(cfg)
    chart = names[:-1]
    try:
        if cfg["kind"] == "curvature":
            header = names + ["H"]
            rows = list(_csv_rows(csv_text, header))
            phi = _compile_text(cfg["phi"], names)
            cases = [([float(c) for c in r[:-1]], r[-1], phi) for r in rows]
        else:
            header = chart + ["v_minus_u", "H_u", "H_v", "singular_u", "singular_v"]
            rows = list(_csv_rows(csv_text, header))
            u = _compile_text(cfg["u"], chart)
            shift = float(eval(cfg["shift"], {"__builtins__": {}}))
            cases = []
            for r in rows:
                pt = [float(c) for c in r[: len(chart)]]
                if abs(float(r[len(chart)]) - shift) > 1e-9 * max(1.0, abs(shift)):
                    return f"v-u {r[len(chart)]} != shift {shift!r}"
                for col, s in ((len(chart) + 1, 0.0), (len(chart) + 2, shift)):
                    graph = lambda q, s=s: u(q[:-1]) + s - q[-1]  # noqa: E731
                    cases.append((pt + [u(pt) + s], r[col], graph))
            label = _field(_CLASS, report, "classification")
            if label not in ("smp-consistent", "hypothesis-violated"):
                return f"shifted graphs classified {label!r}"
        if len(rows) != cfg["points"]:
            return f"CSV has {len(rows)} rows, grid has {cfg['points']} points"
        candidates = [c for c in cases if c[1] != ""]
        rng.shuffle(candidates)
        # well away from the singular set, where finite differences are sharp
        usable = (c for c in candidates if oracle.norm_sq(c[2], c[0]) > 5e-2)
        checked = 0
        for pt, cell, phi in itertools.islice(usable, 3):
            want = oracle.curvature(phi, pt)
            got = float(cell)
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                return f"H at {pt} is {got!r}, finite differences give {want!r}"
            checked += 1
        if not checked:
            return "no CSV point away from the singular set to check"
    except (ValueError, IndexError, ZeroDivisionError, OverflowError) as exc:
        return f"malformed output: {exc}"
    return None


def corrupt(report, csv_text: str):
    """A deliberately wrong copy of an op's output, for the smoke test."""
    if report is not None:
        report = _CLASS.sub(lambda m: m.group(0)[:-1] + '-corrupt"', report, count=1)
    out = []
    for i, line in enumerate(csv_text.splitlines()):
        cells = line.split(",")
        if i > 0:
            for j, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if "." in cell or "e" in cell:
                    cells[j] = repr(value * (1 + 1e-3) + 1e-3)
        out.append(",".join(cells))
    return report, "\n".join(out) + "\n"
