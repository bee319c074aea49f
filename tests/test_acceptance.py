"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline) and enforces the stated tolerance and runtime budget.
"""

import contextlib
import math
import random
import time

from subcurv import calculus as ca
from subcurv.calculus import CoordSystem, compile_expr, differentiate
from subcurv.core import (
    ScalarField,
    SubriemannianStructure,
    VectorFieldExpr,
    conorm,
    covector_pairing,
    p_mean_curvature,
)
from subcurv.brackets import (
    bracket_generate_rank,
    tangent_distribution_fields,
    two_form_rank,
)
from subcurv.heisenberg import (
    Dilation,
    HeisenbergPoint,
    LaTranslation,
    apply_isometry,
    cylinder_structure,
    graph_coords,
    graph_operator_HF,
    pullback_expr,
    standard_drift,
    standard_structure,
    drift_graph_structure,
)
from subcurv import cli, smp

from conftest import central_difference, random_polynomial, random_rational_power_expr


@contextlib.contextmanager
def criterion(num, label):
    ok = False
    start = time.monotonic()
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {num:02d} [{elapsed:5.1f}s]: {label}")


def paraboloid_level_points(rng, n, c, count):
    pts = []
    while len(pts) < count:
        x = [rng.uniform(0.35, 1.0) for _ in range(2 * n)]
        rr = sum(v * v for v in x)
        pts.append(x + [c * rr])
    return pts


def test_criterion_01_paraboloid_closed_form(rng):
    with criterion(1, "paraboloid closed form on the cylinder (rel 1e-8)"):
        start = time.monotonic()
        for n, c in [(1, 1.0), (2, 0.5), (2, 1.0)]:
            C = cylinder_structure(n)
            r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
            z = ca.var(2 * n)
            phi_up = ca.sub(ca.mul(ca.const(c), r_sq), z)   # c r^2 - z
            phi_down = ca.sub(z, ca.mul(ca.const(c), r_sq))  # z - c r^2
            closed = 2 * (2 * n - 1) * c / (1 + 4 * c * c) ** 0.25
            for pt in paraboloid_level_points(rng, n, c, 5):
                got = p_mean_curvature(C, phi_up, 0, pt)
                assert abs(got - closed) <= 1e-8 * abs(closed)
                # flipping the defining function's sign negates the value
                flipped = p_mean_curvature(C, phi_down, 0, pt)
                assert abs(flipped + closed) <= 1e-8 * abs(closed)
        assert time.monotonic() - start < 10.0


def test_criterion_02_gauge_sphere_minimality(rng):
    with criterion(2, "gauge spheres on the cylinder are minimal (|H| <= 1e-8)"):
        start = time.monotonic()
        for n in (1, 2):
            C = cylinder_structure(n)
            r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
            rho4 = ca.add(ca.pow_(r_sq, 2), ca.mul(4, ca.pow_(ca.var(2 * n), 2)))
            for c in (1.0, 5.0):
                phi = ca.sub(rho4, ca.const(c))
                checked = 0
                while checked < 20:
                    x = [rng.uniform(0.3 / math.sqrt(2 * n), 0.9)
                         for _ in range(2 * n)]
                    rr = sum(v * v for v in x)
                    if rr < 0.3 ** 2 or rr * rr >= c:
                        continue
                    z = math.sqrt(c - rr * rr) / 2.0
                    assert abs(p_mean_curvature(C, phi, 0, x + [z])) <= 1e-8
                    checked += 1
        assert time.monotonic() - start < 10.0


def test_criterion_03_engine_matches_direct_divergence(rng):
    with criterion(3, "weighted divergence == direct graph divergence (rel 1e-8)"):
        m = 4
        F = standard_drift(m)
        S = drift_graph_structure(F, m)
        for _ in range(5):
            u = random_polynomial(rng, m, max_terms=5, max_degree=3)
            phi = ca.sub(u, ca.var(m))
            checked = 0
            while checked < 10:
                x = [rng.uniform(0.5, 1.5) for _ in range(m)]
                pt = x + [rng.uniform(-1.0, 1.0)]
                if conorm(S, phi, pt) < 1e-3:
                    continue
                direct = graph_operator_HF(F, u, x)
                engine = p_mean_curvature(S, phi, 0, pt)
                assert abs(engine - direct) <= 1e-8 * max(1.0, abs(direct))
                checked += 1


def test_criterion_04_counterexample_reproduction():
    with criterion(4, "touching minimal graphs reproduce the rank-1 failure"):
        start = time.monotonic()
        report = smp.run_scenario(smp.builtin_scenario("h1-counterexample"))
        d = report.as_dict()
        assert d["grid"]["axes"][0][2] == 65 and d["grid"]["axes"][1][2] == 65
        for row in report.table:
            _, _, _, hu, hv, su, sv = row
            if not su:
                assert abs(hu) <= 1e-10
            if not sv:
                assert abs(hv) <= 1e-10
        assert d["ordering"]["holds"] is True
        assert d["touching_count"] >= 5
        # every touching point, read from the CSV rows, lies on x2 = 0, and
        # so does each touching cluster's axis-1 index range
        eps = d["tolerances"]["eps_touch"]
        csv_text = cli.write_scenario_csv(report, ("x1", "x2"))
        rows = [[float(c) for c in line.split(",")[:3]] for line in csv_text.splitlines()[1:]]
        touching = [(x1, x2) for x1, x2, du in rows if abs(du) <= eps]
        assert len(touching) == d["touching_count"]
        for _, x2 in touching:
            assert abs(x2) <= 1e-12
        x2_values = report.grid.axis_values(1)
        for c in d["touching_clusters"]:
            assert c["index_lo"][1] == c["index_hi"][1]
            assert abs(x2_values[c["index_lo"][1]]) <= 1e-12
        assert d["rank"]["rank"] == 1 < d["rank"]["expected"]
        assert (
            d["classification"] == "counterexample-detected;rank-condition-failed"
        )
        assert time.monotonic() - start < 30.0


def test_criterion_05_bracket_and_two_form_ranks(rng):
    with criterion(5, "bracket-closure and two-form ranks on builtin charts"):
        for n in (1, 2, 3):
            S = standard_structure(n)
            pt = [rng.uniform(-1, 1) for _ in range(2 * n + 1)]
            rep = bracket_generate_rank(S.frame_fields, pt, max_depth=4)
            assert rep.rank == 2 * n + 1 and rep.depth == 2
            m = 2 * n
            F = standard_drift(m)
            M = [
                [
                    ca.simplify(
                        ca.sub(differentiate(F[j], k), differentiate(F[k], j))
                    )
                    for j in range(m)
                ]
                for k in range(m)
            ]
            assert two_form_rank(M, [rng.uniform(-1, 1) for _ in range(m)]) == m
        S2 = standard_structure(2)
        phi = ca.sub(ca.var(0), ca.const(0.3))
        fields = tangent_distribution_fields(S2, phi)
        pt = [0.3] + [rng.uniform(-1, 1) for _ in range(4)]
        rep = bracket_generate_rank(fields, pt, max_depth=4, target_rank=4)
        assert rep.rank == 4


def test_criterion_06_isometry_invariance(rng):
    with criterion(6, "translation and dilation invariance (1e-8, 20 pairs each)"):
        # graphs transversal to x1-translations in the flat group
        S = standard_structure(1)
        inv = ca.add(ca.var(2), ca.mul(ca.var(0), ca.var(1)))
        u = ca.add(ca.mul(ca.var(1), inv), ca.pow_(ca.var(1), 2),
                   ca.mul(ca.const(2), inv))
        phi = ca.sub(u, ca.var(0))
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0)
            pt = [rng.uniform(0.3, 1.0) for _ in range(3)]
            moved = apply_isometry(LaTranslation(a), HeisenbergPoint(1, pt)).coords
            h0 = p_mean_curvature(S, phi, 0, pt)
            h1 = p_mean_curvature(S, phi, 0, moved)
            assert abs(h1 - h0) <= 1e-8 * max(1.0, abs(h0))
        # dilations preserve the cylinder structure
        C = cylinder_structure(1)
        phi_c = ca.parse_expr("z - (x1^2 + y1^2) - (x1^2 + y1^2)^2", C.coords)
        for _ in range(20):
            lam = rng.uniform(0.5, 1.8)
            pulled = pullback_expr(phi_c, Dilation(1.0 / lam), 1)
            pt = [rng.uniform(0.4, 1.0) for _ in range(3)]
            moved = apply_isometry(Dilation(lam), HeisenbergPoint(1, pt)).coords
            h0 = p_mean_curvature(C, phi_c, 0, pt)
            h1 = p_mean_curvature(C, pulled, 0, moved)
            assert abs(h1 - h0) <= 1e-8 * max(1.0, abs(h0))


def test_criterion_07_projection_difference_identity(rng):
    with criterion(7, "normalized-difference pairing identity (rel 1e-12)"):
        checked = 0
        for _ in range(10):
            dim = rng.choice([2, 3, 4, 5])
            coords = CoordSystem(tuple(f"c{i}" for i in range(dim)))
            b = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(dim)]
            g = [
                [
                    ca.const(sum(b[r][l] * b[r][k] for r in range(dim)))
                    for k in range(dim)
                ]
                for l in range(dim)
            ]
            S = SubriemannianStructure(coords, g, ca.ONE)
            pt = tuple(0.0 for _ in range(dim))
            pairs = 0
            while pairs < 100:
                w = [rng.uniform(-2, 2) for _ in range(dim)]
                e = [rng.uniform(-2, 2) for _ in range(dim)]
                nw = math.sqrt(max(covector_pairing(S, w, w, pt), 0.0))
                ne = math.sqrt(max(covector_pairing(S, e, e, pt), 0.0))
                if nw < 1e-2 or ne < 1e-2:
                    continue
                uw = [v / nw for v in w]
                ue = [v / ne for v in e]
                diff_unit = [a - b_ for a, b_ in zip(uw, ue)]
                diff_raw = [a - b_ for a, b_ in zip(w, e)]
                lhs = covector_pairing(S, diff_raw, diff_unit, pt)
                rhs = 0.5 * (nw + ne) * covector_pairing(
                    S, diff_unit, diff_unit, pt
                )
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
                pairs += 1
            checked += pairs
        assert checked == 1000


def test_criterion_08_sublaplacian_spot_check(rng):
    with criterion(8, "p = 1 operator on the squared radius returns 4 (1e-12)"):
        S = standard_structure(1)
        phi = ca.parse_expr("x1^2 + y1^2", S.coords)
        checked = 0
        while checked < 10:
            pt = [rng.uniform(-1.2, 1.2) for _ in range(3)]
            if math.hypot(pt[0], pt[1]) < 1e-2:
                continue
            assert abs(p_mean_curvature(S, phi, 1, pt) - 4.0) <= 1e-12
            checked += 1


def test_criterion_09_variational_weak_form():
    with criterion(9, "weak-form residual <= 2e-2 at 64^2, <= 1e-2 at 128^2"):
        cs = graph_coords(2)
        F = standard_drift(2)
        f = ScalarField(
            ca.parse_expr("((x1-1/2)*(3/2-x1)*(x2-1/2)*(3/2-x2))^2", cs),
            cs,
            box=((0.5, 1.5), (0.5, 1.5)),
        )
        for src in ("x1*x2", "x1*x2 + x2^2"):
            u = ScalarField(ca.parse_expr(src, cs), cs)
            r64 = smp.variation_check(F, u, f, 64)
            r128 = smp.variation_check(F, u, f, 128)
            assert r64 <= 2e-2
            assert r128 <= 1e-2


def test_criterion_10_propagation():
    with criterion(10, "touching propagates along the tangent orbit (1e-9)"):
        cs = graph_coords(2)
        sc = smp.builtin_scenario("h1-counterexample")
        op = sc.operator
        u_small = ca.parse_expr("x1*x2", cs)
        fields = tangent_distribution_fields(op.structure, op.phi(u_small))
        results = smp.propagate_max(sc, (1.0, 0.0), fields, T=1.0, step=1e-3)
        assert results
        for r in results:
            assert r.max_deviation <= 1e-9
        # the constructed violation is caught within five steps
        op = smp.GraphHFOperator(standard_drift(2), 2)
        bad = smp.ComparisonScenario(
            "violation",
            op,
            ca.parse_expr("x1*x2", cs),
            ca.parse_expr("x1*x2 + x2^2", cs),
            box=((0.5, 1.5), (-0.4, 0.4)),
            grid_counts=17,
        )
        X2 = VectorFieldExpr(op.structure.coords, [ca.ZERO, ca.ONE, ca.ZERO])
        for r in smp.propagate_max(bad, (1.0, 0.0), [X2], T=0.5, step=1e-3):
            assert not r.ok
            assert r.first_violation_step is not None
            assert r.first_violation_step <= 5


def test_criterion_11_report_determinism(tmp_path):
    with criterion(11, "byte-identical reports across reruns and --jobs"):
        for name in ("h1-counterexample", "hyperplane-z"):
            paths = [str(tmp_path / f"{name}-{i}.json") for i in range(3)]
            assert cli.main(["scenario", "run", name, "--out", paths[0]]) == 0
            assert cli.main(["scenario", "run", name, "--out", paths[1]]) == 0
            assert (
                cli.main(
                    ["scenario", "run", name, "--out", paths[2], "--jobs", "4"]
                )
                == 0
            )
            blobs = [open(p, "rb").read() for p in paths]
            assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_12_derivative_oracle():
    with criterion(12, "200 random expressions vs central differences (1e-6)"):
        rng = random.Random(1234)
        for i in range(200):
            nvars = rng.choice([1, 2, 3])
            if i % 2 == 0:
                e = random_polynomial(rng, nvars, max_terms=5, max_degree=4)
            else:
                e = random_rational_power_expr(rng, nvars)
            fn = compile_expr(e, nvars)
            axis = rng.randrange(nvars)
            d_fn = compile_expr(differentiate(e, axis), nvars)
            pt = [rng.uniform(0.3, 1.2) for _ in range(nvars)]
            sym = d_fn(pt)
            fd = central_difference(fn, pt, axis)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))
