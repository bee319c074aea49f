"""Seeded inputs for the three benchmark workloads.

Every input is config text in subcurv's INI format, generated here from
the ``--seed`` alone.  Each config dict carries what its oracle needs
(family, coefficients, the exact texts of the expressions it wrote) so
that checks never consult subcurv.

Workloads
---------
sweep     unshifted paraboloids ``c r^2`` on the punctured (cylinder)
          chart, n = 1 and n = 2, 1e4..2e4 grid points per op, jobs = 2.
          Nothing touches, so brackets, Newton and propagation do no
          work: kernel evaluation, the grid sweep and the CSV writer
          carry the op.  Only workload that runs the threaded sweep path.
touch     the four touching families behind the builtins, jobs = 1:
          symbolic bracket words, RK4 propagation, Newton refinement and
          MB-sized reports.  The bracket rank of sphere-paraboloid ops
          carries about half the op time (ops_per_s); propagation of
          vertical-plane ops sets the tail, and the rank-deficient h1 and
          coinciding families set the median (see TOUCH_CYCLE).
cold-cli  distinct random polynomial graphs (v = u + const, nothing
          touches) on custom structures whose cometric this module
          writes out, one fresh ``python -m subcurv`` process per op.
          Symbolic build and process start carry the op; no expression
          repeats, so a cross-call cache cannot help here.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "touch", "cold-cli")

WHY = {
    "sweep": "kernel evaluation, grid sweep and CSV writing at jobs=2; "
    "no touching, so brackets/Newton/propagation idle",
    "touch": "bracket-word rank, RK4 propagation, Newton refinement and "
    "large reports on the four touching families",
    "cold-cli": "symbolic build (parse, differentiate, compile) and process "
    "start on every op; no expression shared between ops",
}

# Families of the touch workload and the outcome each must produce.
TOUCH_EXPECT = {
    "sphere-paraboloid": ("hypothesis-violated", (4, 4)),
    "vertical-plane": ("coincide-near-touching", (4, 4)),
    "h1-segment": ("counterexample-detected;rank-condition-failed", (1, 2)),
    "coinciding-pair": ("coincide-near-touching", None),
}

# One touch cycle of 21 ops: 1 sphere-paraboloid, 4 vertical-plane and
# 16 cheap ops (13 h1-segment, 3 coinciding-pair), about 6 s.  Fewer than
# ten sphere-paraboloid ops (the dearest: bracket rank) fit in a run, so
# the tail, the sample with ten beyond it, falls among the vertical-plane
# ops (propagation) even on a machine twice as slow, and the median falls
# inside the h1-segment ops, four fifths of the cheap ones.  Op time
# splits about 37/35/28 between the three groups.
TOUCH_CYCLE = ("sphere-paraboloid",) + tuple(
    "vertical-plane" if k % 5 == 2 else
    "coinciding-pair" if k in (5, 10, 15) else "h1-segment"
    for k in range(20)
)

# Share of cold-cli ops that run ``subcurv curvature --grid``.
CURVATURE_EVERY = 4
COLD_POOL = 400
COLD_GRID = 5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _frac(rng: random.Random, lo: int, hi: int, den_hi: int = 9) -> str:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return f"{num}/{rng.randint(2, den_hi)}"


def _box(intervals) -> str:
    return ", ".join(f"{lo!r}:{hi!r}" for lo, hi in intervals)


def _heis_names(n: int) -> list:
    return [f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(n)] + ["z"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_closed_form(n: int, c: float) -> float:
    """H of z = c r^2 on the punctured chart: 2(2n-1)c / (1+4c^2)^(1/4)."""
    return 2.0 * (2 * n - 1) * c / (1.0 + 4.0 * c * c) ** 0.25


def sweep_configs(seed: int, size: str = "full") -> list:
    rng = _rng("sweep", seed)
    # grids chosen so that n = 1 and n = 2 ops cost about the same (0.5 s
    # each at jobs = 1), so that the median op falls inside one cost band
    grids = {1: "141", 2: "10"} if size == "full" else {1: "21", 2: "4"}
    out = []
    for i in range(8 if size == "full" else 2):
        n = 1 + i % 2
        c_u = round(rng.uniform(0.1, 0.9), 3)
        c_v = round(c_u + rng.uniform(0.1, 0.8), 3)
        names = _heis_names(n)[:-1]
        r_sq = " + ".join(f"{x}^2" for x in names)
        box = [(0.5, 1.5)] + [(-0.5, 0.5)] * (2 * n - 1)
        text = (
            f"[structure]\nkind = cylinder\nn = {n}\n\n"
            f"[function u]\nexpr = {c_u!r}*({r_sq})\n\n"
            f"[function v]\nexpr = {c_v!r}*({r_sq})\n\n"
            "[scenario]\n"
            f"name = sweep-{i}\noperator = generic\np = 0\ngraph_dir = z\n"
            f"u = u\nv = v\nbox = {_box(box)}\ngrid = {grids[n]}\n"
        )
        npts = int(grids[n]) ** (2 * n)
        out.append(
            {"id": f"sweep-{i}", "family": f"paraboloids-n{n}", "text": text,
             "n": n, "c_u": c_u, "c_v": c_v, "points": npts}
        )
    return out


# ---------------------------------------------------------------------------
# touch
# ---------------------------------------------------------------------------


def _sphere_paraboloid(rng, i, grid):
    r_lo = round(rng.uniform(0.55, 0.65), 3)
    c = round(rng.uniform(1.1, 1.5), 3)
    # value matching at the inner radius: the graphs touch along r = r_lo
    c_par = math.sqrt(c - r_lo ** 4) / (2 * r_lo ** 2)
    r_sq = "x1^2 + x2^2 + y1^2 + y2^2"
    box = [(r_lo, r_lo + 0.08)] + [(-0.04, 0.04)] * 3
    text = (
        "[structure]\nkind = cylinder(2)\n\n"
        f"[function u]\nexpr = {c_par!r}*({r_sq})\n\n"
        f"[function v]\nexpr = 1/2*sqrt({c!r} - ({r_sq})^2)\n\n"
        "[scenario]\n"
        f"name = touch-{i}\noperator = generic\np = 0\ngraph_dir = z\n"
        f"u = u\nv = v\nbox = {_box(box)}\ngrid = {grid}\n"
    )
    return text, grid ** 4


def _vertical_plane(rng, i, grid):
    const = _frac(rng, -9, 9, 40)
    text = (
        f"[function u]\nexpr = {const}\n\n"
        "[scenario]\n"
        f"name = touch-{i}\noperator = la_graph\nn = 2\nu = u\nv = u\n"
        f"box = {_box([(-0.5, 0.5)] * 4)}\ngrid = {grid}\n"
    )
    return text, grid ** 4


def _h1_segment(rng, i, grid):
    a = _frac(rng, 1, 9)
    text = (
        "[structure]\nkind = graph_F\nm = 2\nF = -x2, x1\n\n"
        f"[function u]\nexpr = x1*x2 + {a}*x2^2\n\n"
        "[function v]\nexpr = x1*x2\n\n"
        "[scenario]\n"
        f"name = touch-{i}\noperator = graph_HF\nu = u\nv = v\n"
        f"box = 0.5:1.5, -0.4:0.4\ngrid = {grid}\n"
    )
    return text, grid ** 2


def _coinciding_pair(rng, i, grid):
    a, b, c = _frac(rng, 1, 9), _frac(rng, 1, 9), _frac(rng, -9, 9)
    expr = f"{a}*x1^2 + {b}*y1^2 + {c}*x1*y1"
    text = (
        "[structure]\nkind = heisenberg(1)\n\n"
        f"[function u]\nexpr = {expr}\n\n"
        f"[function v]\nexpr = {expr}\n\n"
        "[scenario]\n"
        f"name = touch-{i}\noperator = generic\np = 0\ngraph_dir = z\n"
        f"u = u\nv = v\nbox = 0.5:1.5, -0.5:0.5\ngrid = {grid}\n"
    )
    return text, grid ** 2


_TOUCH_MAKERS = {
    "sphere-paraboloid": (_sphere_paraboloid, 5, 3),
    "vertical-plane": (_vertical_plane, 7, 3),
    "h1-segment": (_h1_segment, 65, 9),
    "coinciding-pair": (_coinciding_pair, 33, 5),
}


def touch_configs(seed: int, size: str = "full") -> list:
    rng = _rng("touch", seed)
    cycle = TOUCH_CYCLE if size == "full" else tuple(TOUCH_EXPECT)
    out = []
    for i, family in enumerate(cycle):
        make, grid_full, grid_tiny = _TOUCH_MAKERS[family]
        text, npts = make(rng, i, grid_full if size == "full" else grid_tiny)
        out.append({"id": f"touch-{i}", "family": family, "text": text, "points": npts})
    return out


# ---------------------------------------------------------------------------
# cold-cli: custom structures whose cometric is written out here
# ---------------------------------------------------------------------------


def _poly(rng, names, max_degree, nterms) -> str:
    """Random polynomial with rational coefficients, as grammar text."""
    monos = set()
    while len(monos) < nterms:
        degs = [0] * len(names)
        for _ in range(rng.randint(1, max_degree)):
            degs[rng.randrange(len(names))] += 1
        monos.add(tuple(degs))
    terms = []
    for degs in sorted(monos):
        factors = [f"{x}^{d}" if d > 1 else x for x, d in zip(names, degs) if d]
        terms.append("(" + _frac(rng, -9, 9) + ")*" + "*".join(factors))
    return " + ".join(terms)


def cold_structure(geometry: str, n: int, rng) -> dict:
    """Coordinates, cometric entries (l <= k) and density, as grammar text."""
    if geometry == "graph_F":
        m = 2 * n
        names = [f"x{j + 1}" for j in range(m + 1)]
        drift = []
        for k in range(n):
            a, b = _frac(rng, -3, 3, 7), _frac(rng, -3, 3, 7)
            drift.append(f"-x{2 * k + 2} + ({a})*x{2 * k + 1}")
            drift.append(f"x{2 * k + 1} + ({b})")
        entries = {}
        for j in range(m):
            entries[(j, j)] = "1"
            entries[(j, m)] = f"-({drift[j]})"
        entries[(m, m)] = " + ".join(f"({f})^2" for f in drift)
        return {"names": names, "cometric": entries, "density": "1",
                "box": [(0.5, 1.5)] * m + [(-0.5, 0.5)]}
    names = _heis_names(n)
    dim = 2 * n + 1
    entries = {}
    for j in range(n):
        entries[(j, j)] = "1"
        entries[(n + j, n + j)] = "1"
        entries[(j, dim - 1)] = f"y{j + 1}"
        entries[(n + j, dim - 1)] = f"-x{j + 1}"
    entries[(dim - 1, dim - 1)] = " + ".join(f"{x}^2" for x in names[:-1])
    if geometry == "heisenberg":
        return {"names": names, "cometric": entries, "density": "1",
                "box": [(-0.5, 0.5)] * dim}
    r_sq = " + ".join(f"{x}^2" for x in names[:-1])
    rho4 = f"(({r_sq})^2 + 4*z^2)"
    entries = {key: f"{rho4}^(1/2)*({val})" for key, val in entries.items()}
    return {"names": names, "cometric": entries,
            "density": f"{rho4}^(-{2 * n + 2}/4)",
            "box": [(0.5, 1.5)] + [(-0.5, 0.5)] * (dim - 1)}


def cold_configs(seed: int, size: str = "full") -> list:
    rng = _rng("cold-cli", seed)
    grid = COLD_GRID if size == "full" else 3
    seen = set()
    out = []
    for i in range(COLD_POOL if size == "full" else 4):
        geometry = ("heisenberg", "cylinder", "graph_F")[i % 3]
        n = 1 + (i // 3) % 2
        s = cold_structure(geometry, n, rng)
        names = s["names"]
        chart = names[:-1]
        while True:
            # a linear term along a horizontal coordinate keeps |dphi| away
            # from 0 at most grid points, where finite differences are sharp
            u = _poly(rng, chart, 2 + rng.randint(0, 1), rng.randint(2, 4))
            u += f" + ({_frac(rng, -9, 9, 3)})*{rng.choice(chart)}"
            phi = _poly(rng, names, 2, rng.randint(2, 4))
            phi += f" + ({_frac(rng, -9, 9, 3)})*{rng.choice(chart)}"
            if u not in seen and phi not in seen:
                break
        seen.update((u, phi))
        shift = _frac(rng, 1, 9)
        p = rng.choice(("0", "1/2", "1"))
        kind = "curvature" if i % CURVATURE_EVERY == CURVATURE_EVERY - 1 else "scenario"
        lines = ["[structure]", "kind = custom", "coords = " + ", ".join(names)]
        for (l, k), val in sorted(s["cometric"].items()):
            lines.append(f"cometric.{l}.{k} = {val}")
        lines += [f"density = {s['density']}", ""]
        lines += ["[function u]", f"expr = {u}", ""]
        lines += ["[function v]", f"expr = {u} + {shift}", ""]
        lines += ["[function phi]", f"expr = {phi}", f"box = {_box(s['box'])}", ""]
        lines += [
            "[scenario]", f"name = cold-{i}", "operator = generic", f"p = {p}",
            f"graph_dir = {names[-1]}", "u = u", "v = v",
            f"box = {_box(s['box'][:-1])}", f"grid = {grid}",
        ]
        out.append({
            "id": f"cold-{i}", "family": f"{kind}-{geometry}-n{n}", "kind": kind,
            "text": "\n".join(lines) + "\n", "names": names,
            "cometric": {f"{l},{k}": v for (l, k), v in s["cometric"].items()},
            "density": s["density"], "u": u, "phi": phi, "shift": shift, "p": p,
            "grid": grid,
            "points": grid ** (len(names) if kind == "curvature" else len(chart)),
        })
    return out


def configs(workload: str, seed: int, size: str = "full") -> list:
    if workload == "sweep":
        return sweep_configs(seed, size)
    if workload == "touch":
        return touch_configs(seed, size)
    if workload == "cold-cli":
        return cold_configs(seed, size)
    raise ValueError(f"unknown workload {workload!r}")
