"""Comparison harness: touching, gaps, propagation, classification."""

import ast
import cProfile
import functools
import itertools
import math
import os
import pstats
import random
import re
import signal
import struct
import time
import types
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from subcurv import calculus as ca
from subcurv import core, smp
from subcurv.cli import dumps_report, format_number, parse_config, scenario_from_config, write_scenario_csv
from subcurv.calculus import EvaluationError
from subcurv.core import (
    PSD_TOL, GridSpec, IndefiniteCometric, ScalarField, SingularPoint, SubriemannianStructure,
    VectorFieldExpr, compile_sweep, conorm_sq_expr, curvature_at, grid_clusters,
    p_mean_curvature_expr,
)
from subcurv.brackets import bracket_generate_rank, lie_bracket, tangent_distribution_fields
from subcurv.heisenberg import (
    cylinder_structure, graph_coords, graph_HF_exprs, standard_drift, standard_structure,
)
from subcurv.smp import (
    ComparisonScenario,
    GenericOperator,
    GraphHFOperator,
    IntrinsicOperator,
    LaGraphOperator,
    RadialCylinderOperator,
    builtin_names,
    builtin_scenario,
    classify,
    integrate_field,
    propagate_max,
    run_scenario,
    variation_check,
)

from conftest import assert_close, random_polynomial, random_rational_power_expr

CS2 = graph_coords(2)


def flat_scenario(u_src, v_src, box=((0.5, 1.5), (-0.4, 0.4)), grid=17, **kw):
    op = GraphHFOperator(standard_drift(2), 2)
    return ComparisonScenario(
        "test",
        op,
        ca.parse_expr(u_src, CS2),
        ca.parse_expr(v_src, CS2),
        box=box,
        grid_counts=grid,
        **kw,
    )


def touching_rows(report, sc) -> list:
    """The CSV rows (as ``report.table`` holds them) whose |v - u| is within
    eps_touch: the touching grid points, in grid order."""
    n = len(sc.operator.chart)
    rows = parsed_csv(write_scenario_csv(report, sc.operator.chart.names))
    return [row for row in rows if abs(row[n]) <= sc.tolerances.eps_touch]


class TestTouchingSet:
    def test_identical_graphs_touch_everywhere(self):
        sc = flat_scenario("x1*x2", "x1*x2", grid=9)
        report = run_scenario(sc)
        d = report.as_dict()
        assert d["touching_count"] == len(touching_rows(report, sc)) == 81
        [cluster] = d["touching_clusters"]
        assert (cluster["cells"], cluster["index_lo"], cluster["index_hi"]) == (81, [0, 0], [8, 8])
        assert cluster["representative"]["index"] == [4, 4]  # the grid's centre
        assert cluster["max_abs_v_minus_u"] == 0.0

    def test_separated_graphs_do_not_touch(self):
        sc = flat_scenario("x1*x2", "x1*x2 + 1", grid=9)
        report = run_scenario(sc)
        d = report.as_dict()
        assert d["touching_clusters"] == [] and d["touching_count"] == 0
        assert touching_rows(report, sc) == []

    def test_counterexample_touches_along_segment(self):
        sc = builtin_scenario("h1-counterexample")
        report = run_scenario(sc)
        d = report.as_dict()
        rows = touching_rows(report, sc)
        assert len(rows) == d["touching_count"] >= 5
        for row in rows:
            assert abs(row[1]) <= 1e-12
        # one segment: x2 = 0 is grid row 32 of 65, every x1 touching
        assert [(c["cells"], c["index_lo"], c["index_hi"]) for c in d["touching_clusters"]] == [
            (65, [0, 32], [64, 32])]


class TestCurvatureGap:
    def test_counterexample_gap_is_zero(self):
        sc = builtin_scenario("h1-counterexample")
        gap = run_scenario(sc).as_dict()["curvature_gap"]
        assert abs(gap["max"]) <= 1e-10

    def test_identical_graphs(self):
        sc = flat_scenario("x1*x2", "x1*x2", grid=9)
        assert run_scenario(sc).as_dict()["curvature_gap"]["max"] == 0.0

    def test_radial_paraboloid_pair(self):
        op = RadialCylinderOperator(1)
        sc = ComparisonScenario(
            "radial-pair",
            op,
            ca.parse_expr("1/2*r^2", op.chart),
            ca.parse_expr("r^2", op.chart),
            box=((0.5, 1.5),),
            grid_counts=33,
        )
        report = run_scenario(sc)
        expected = 2 / 5 ** 0.25 - 1 / 2 ** 0.25
        assert_close(report.as_dict()["curvature_gap"]["max"], expected, rel=1e-9)
        assert expected > 0  # comparison hypothesis fails in this direction
        assert report.classification == "hypothesis-violated"

    def test_swapped_pair_reports_same_normalized_gap(self):
        op = RadialCylinderOperator(1)
        a = ComparisonScenario(
            "a", op, ca.parse_expr("1/2*r^2", op.chart),
            ca.parse_expr("r^2", op.chart), box=((0.5, 1.5),), grid_counts=17,
        )
        b = ComparisonScenario(
            "a", op, ca.parse_expr("r^2", op.chart),
            ca.parse_expr("1/2*r^2", op.chart), box=((0.5, 1.5),), grid_counts=17,
        )
        ra, rb = run_scenario(a).as_dict(), run_scenario(b).as_dict()
        assert ra["swapped"] is False and rb["swapped"] is True
        # after normalization the measurements agree exactly
        assert ra["curvature_gap"] == rb["curvature_gap"]
        assert ra["ordering"] == rb["ordering"]


class TestIntegrateField:
    def test_constant_field_exact(self):
        X = VectorFieldExpr(CS2, [ca.ONE, ca.ZERO])
        # binary-friendly step: the increments accumulate without rounding
        out = integrate_field(X, (0.0, 0.0), 1.0, 1.0 / 128)
        assert out.completed and out.end == "completed"
        assert out.endpoint == (1.0, 0.0)

    def test_left_invariant_flow_from_origin(self):
        from subcurv.heisenberg import standard_structure

        S = standard_structure(1)
        out = integrate_field(S.frame_fields[0], (0.0, 0.0, 0.0), 1.0, 1e-3)
        assert_close(out.endpoint[0], 1.0, rel=1e-12)
        assert abs(out.endpoint[1]) <= 1e-12
        assert abs(out.endpoint[2]) <= 1e-12

    def test_circular_flow(self):
        X = VectorFieldExpr(
            CS2, [ca.neg(ca.var(1)), ca.var(0)]
        )
        out = integrate_field(X, (1.0, 0.0), math.pi / 2, 1e-3)
        assert_close(out.endpoint[0], 0.0, rel=1.0, abs_tol=1e-8)
        assert_close(out.endpoint[1], 1.0, rel=1e-8)

    def test_fourth_order_convergence(self):
        X = VectorFieldExpr(CS2, [ca.neg(ca.var(1)), ca.var(0)])

        def endpoint_error(step):
            out = integrate_field(X, (1.0, 0.0), math.pi / 2, step)
            return math.hypot(out.endpoint[0] - 0.0, out.endpoint[1] - 1.0)

        e1 = endpoint_error(math.pi / 2 / 64)
        e2 = endpoint_error(math.pi / 2 / 128)
        ratio = e1 / e2
        assert 8.0 <= ratio <= 32.0

    def test_backward_integration(self):
        X = VectorFieldExpr(CS2, [ca.ONE, ca.ZERO])
        out = integrate_field(X, (0.0, 0.0), -1.0, 1.0 / 128)
        assert out.endpoint == (-1.0, 0.0)


    def test_stop_ends_trajectory_at_first_stopping_point(self):
        X = VectorFieldExpr(CS2, [ca.ONE, ca.ZERO])
        seen = []
        out = integrate_field(
            X, (0.0, 0.0), 1.0, 1.0 / 128, stop=lambda p: seen.append(p) or p[0] > 0.1
        )
        assert (out.completed, out.end, out.note) == (False, "stopped", "stopped at step 13")
        assert seen == out.points and len(out) == 14
        assert out.points[-2][0] <= 0.1 < out.endpoint[0]
        start = integrate_field(X, (0.0, 0.0), 1.0, 1.0 / 128, stop=lambda p: True)
        assert start.points == [(0.0, 0.0)] and not start.completed

    @staticmethod
    def third_pair(**kw):
        third = ca.const(Fraction(1, 3))
        return ComparisonScenario("third", LaGraphOperator(1), third, third,
                                  box=((-0.5, 0.5), (-0.5, 0.5)), grid_counts=3, **kw)

    @pytest.mark.parametrize("T, step", [(1e308, 1e-3), (1.0, 1e-300), (1.0, 0.999999e-6),
                                         (-1e308, 1e-3), (float("inf"), 1.0), (1.0, float("nan"))])
    def test_scenario_refuses_a_step_count_over_the_bound(self, T, step):
        # constructed only: the 1e300 steps that step = 1e-300 asks for would never end
        with pytest.raises(ValueError, match="RK4 steps, over the bound of 1000000"):
            self.third_pair(T=T, step=step)

    def test_step_count_at_the_bound_is_accepted(self):
        sc = self.third_pair(T=0.5, step=5e-7)
        assert smp._rk4_steps(sc.T, sc.step) == smp.MAX_RK4_STEPS == 10**6
        assert smp._rk4_steps(-sc.T, sc.step) == 10**6 and smp._rk4_steps(0.0, sc.step) == 0

    def test_integration_refuses_a_step_count_over_the_bound(self):
        # 1e308 / 1e-3 overflows to inf
        with pytest.raises(ValueError, match="asks for inf RK4 steps"):
            integrate_field(VectorFieldExpr(CS2, [ca.ZERO, ca.ZERO]), (0.0, 0.0), 1e308, 1e-3)
        sc = self.third_pair()
        fields = tangent_distribution_fields(sc.operator.structure, sc.operator.phi(sc.u.expr))
        with pytest.raises(ValueError, match="asks for inf RK4 steps"):
            propagate_max(sc, (0.0, 0.0), fields, T=1e308)
        with pytest.raises(ValueError, match="step must be positive"):
            propagate_max(sc, (0.0, 0.0), fields, step=0.0)


def reference_rk4(X, x0, T, step, stop=None):
    """RK4 as a loop over per-stage lists, the reference the generated
    step must match bitwise: (points, completed, note)."""
    n = len(X.coords)
    rhs = ca.compile_expr(X.components, n)
    nsteps = max(1, math.ceil(abs(T) / step)) if T != 0 else 0
    h = T / nsteps if nsteps else 0.0
    pts = [tuple(float(c) for c in x0)]
    if stop is not None and stop(pts[0]):
        return pts, False, "stopped at step 0"
    x = list(pts[0])
    for k in range(1, nsteps + 1):
        try:
            k1 = rhs(x)
            k2 = rhs([x[i] + 0.5 * h * k1[i] for i in range(n)])
            k3 = rhs([x[i] + 0.5 * h * k2[i] for i in range(n)])
            k4 = rhs([x[i] + h * k3[i] for i in range(n)])
        except (ca.EvaluationError, OverflowError) as exc:
            return pts, False, f"integration aborted: {exc}"
        x = [
            x[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(n)
        ]
        pts.append(tuple(x))
        if stop is not None and stop(pts[-1]):
            return pts, False, f"stopped at step {k}"
    return pts, True, ""


def bits(points):
    """Points as bytes, so that equality is bitwise (signed zeros, nans)."""
    return [struct.pack(f"<{len(p)}d", *p) for p in points]


def exact_record(record):
    """A propagation record with its floats as bytes or hex, so that
    equality is bitwise."""
    return {k: bits([v])[0] if k == "start" else v.hex() if isinstance(v, float) else v
            for k, v in record.items()}


def assert_same_as_reference(X, x0, T, step, stop=None):
    out = integrate_field(X, x0, T, step, stop=stop)
    pts, completed, note = reference_rk4(X, x0, T, step, stop=stop)
    assert bits(out.points) == bits(pts)
    assert (out.completed, out.note) == (completed, note)
    return out


class TestGeneratedStep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(2, 5),
           T=st.sampled_from([0.4, -0.4, 0.05, -0.05, 0.0]),
           step=st.sampled_from([1e-2, 3e-2, 0.1]), stopping=st.booleans())
    def test_bitwise_equal_to_the_reference_loop(self, seed, nvars, T, step, stopping):
        rng = random.Random(seed)
        cs = ca.CoordSystem(tuple(f"c{i}" for i in range(nvars)))
        X = VectorFieldExpr(cs, [random_polynomial(rng, nvars, 3, 2) for _ in range(nvars)])
        x0 = tuple(rng.uniform(-1.0, 1.0) for _ in range(nvars))
        stop = (lambda p: abs(p[0] - x0[0]) > 0.02) if stopping else None
        assert_same_as_reference(X, x0, T, step, stop)

    # constants a component may be: zero, units, an inexact third, a power
    # of two and a huge value whose weighted sum still fits in a double
    THIRD = ca.const(Fraction(1, 3))
    HOISTED = [ca.ZERO, ca.ONE, ca.const(-1), THIRD, ca.const(Fraction(1, 8)), ca.const(1e300)]
    # (component, start coordinate): a constant, a coordinate ("v", so that
    # another component may read a constant coordinate) or a polynomial ("p")
    PARTS = st.tuples(st.sampled_from(HOISTED) | st.sampled_from("vp"),
                      st.sampled_from([-0.0, 0.0]) | st.floats(-1.0, 1.0))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), parts=st.lists(PARTS, min_size=2, max_size=5),
           T=st.sampled_from([0.4, -0.4, 0.05, -0.05, 0.0]),
           step=st.sampled_from([1e-2, 3e-2, 0.1]), stopping=st.booleans())
    # the vertical-plane shape, an all-constant field and the zero field
    @example(seed=1, parts=[(ca.ZERO, 0.5), (ca.ONE, -0.0), (ca.ZERO, 0.1), (ca.ZERO, -0.2), ("v", 0.0)],
             T=0.4, step=1e-2, stopping=False)
    @example(seed=2, parts=[(THIRD, -0.0), (ca.const(-1), 0.3), (ca.ONE, 0.0)], T=-0.4, step=3e-2,
             stopping=True)
    @example(seed=3, parts=[(ca.ZERO, -0.0)] * 5, T=-0.05, step=1e-2, stopping=False)
    # zero fields, which rest after one step: both signs of zero and of T
    @example(seed=4, parts=[(ca.ZERO, -0.0), (ca.ZERO, 0.0), (ca.ZERO, 0.3)], T=0.4, step=1e-2,
             stopping=True)
    @example(seed=5, parts=[(ca.ZERO, -0.0), (ca.ZERO, 0.0), (ca.ZERO, -0.7)], T=-0.4, step=3e-2,
             stopping=True)
    @example(seed=6, parts=[(ca.ZERO, 0.0), (ca.ZERO, -0.0)], T=0.05, step=0.1, stopping=True)
    def test_hoisted_constants_bitwise_equal_to_the_reference_loop(self, seed, parts, T, step, stopping):
        rng, n = random.Random(seed), len(parts)
        cs = ca.CoordSystem(tuple(f"c{i}" for i in range(n)))
        make = {"v": lambda: ca.var(rng.randrange(n)), "p": lambda: random_polynomial(rng, n, 3, 2)}
        X = VectorFieldExpr(cs, [make[c]() if isinstance(c, str) else c for c, _ in parts])
        x0 = tuple(x for _, x in parts)
        stop = (lambda p: abs(p[0] - x0[0]) > 0.02) if stopping else None
        out = assert_same_as_reference(X, x0, T, step, stop)
        if stopping:  # a stop on each point, but a zero field's on its start and first step only
            calls = []
            integrate_field(X, x0, T, step, stop=lambda p: calls.append(p) or stop(p))
            zero = all(c is ca.ZERO for c, _ in parts)
            assert bits(calls) == bits(out.points[:2] if zero else out.points)

    def test_constant_components_are_hoisted_and_unread_coordinates_skipped(self):
        cs = ca.CoordSystem(("c0", "c1", "c2"))
        src = VectorFieldExpr(cs, [ca.ONE, ca.ZERO, ca.var(0)]).integrator().source
        loop = src.split("    for k in")[1]
        assert not re.findall(r"\b[abcd][01]\b", src)  # no stage assigns a constant component
        assert not re.findall(r"\by[12]\b", src) and "y0, = x0 + hk0," in loop
        assert "y0, = x0 + hc0," in loop and "x0 + inc0, x1 + inc1, x2 + h6 * (a2" in loop
        assert "hk0, hc0, inc0 = hh * (1.0), h * (1.0), h6 * ((1.0) + 2.0 * (1.0)" in src
        zero = VectorFieldExpr(cs, [ca.ZERO] * 3).integrator().source
        assert "try:" not in zero and not re.findall(r"\b[abcdy]\d\b", zero)

    @pytest.mark.parametrize("T", [1.0, -1.0])
    def test_domain_hole_mid_trajectory_gives_the_same_partial_points(self, T):
        # in either time direction c0 runs from 0.2 towards 0 at unit speed,
        # and sqrt(c0) has no value past 0
        cs = ca.CoordSystem(("c0", "c1", "c2"))
        X = VectorFieldExpr(cs, [ca.const(-int(T)), ca.parse_expr("sqrt(c0) + c2", cs),
                                 ca.parse_expr("c1*c2 - 1", cs)])
        out = assert_same_as_reference(X, (0.2, 0.1, -0.3), T, 1e-2)
        assert out.end == "aborted" and out.note.startswith("integration aborted: non-integer power 0.5")
        assert 15 < len(out.points) < 25

    def test_loop_is_built_once_per_field_with_the_components_inline(self):
        X = VectorFieldExpr(CS2, [ca.neg(ca.var(1)), ca.var(0)])
        assert X.integrator() is X.integrator()
        src = X.integrator().source
        assert "(-1.0) * y1" in src and "f(" not in src

    def test_profiles_keep_each_generated_loop_apart(self, monkeypatch):
        # profiled inside integrate_field only: one `run` per trajectory, in
        # one <rk4-N> file per field, no kernel call, and one stop per point,
        # but a zero field's on its start and first step only (it rests there)
        profiler, fields, nstops = cProfile.Profile(), {}, []
        real = smp.integrate_field

        def profiled(X, *args, **kwargs):
            fields[id(X)] = X
            traj = profiler.runcall(real, X, *args, **kwargs)
            zero = all(c is ca.ZERO for c in X.components)
            nstops.append(min(len(traj.points), 2) if zero else len(traj.points))
            return traj

        monkeypatch.setattr(smp, "integrate_field", profiled)
        run_scenario(builtin_scenario("vertical-hyperplane"))
        stats = pstats.Stats(profiler).stats
        loops = {key: value[1] for key, value in stats.items() if key[2] == "run"}
        assert all(re.fullmatch(r"<rk4-\d+>", filename) for filename, _, _ in loops)
        assert 1 < len(loops) == len(fields) and sum(loops.values()) == len(nstops) == 96
        assert not [key for key in stats if key[0].startswith("<kernel-")]
        stops = [value[1] for key, value in stats.items() if re.fullmatch(r"<box-stop-\d+>", key[0])]
        assert stops == [sum(nstops)]


class TestPropagateMax:
    def test_trajectories_end_at_box_exit(self, monkeypatch):
        computed = []
        real = smp.integrate_field

        def counting(*args, **kwargs):
            traj = real(*args, **kwargs)
            computed.append(len(traj.points) - 1)
            return traj

        monkeypatch.setattr(smp, "integrate_field", counting)
        report = run_scenario(builtin_scenario("vertical-hyperplane")).as_dict()
        runs = report["propagation"]
        assert len(runs) == len(computed) == 96
        exits = [(r, k) for r, k in zip(runs, computed) if r["exited_box"]]
        assert exits
        for r, k in exits:
            assert k <= r["steps_used"] + 1

    def test_a_step_onto_the_radial_origin_stops_the_trajectory(self):
        # -d_x1 from r = 0.75 lands exactly on the origin in one step of
        # 0.75, where r = sqrt(0) has no value: the trajectory stops there,
        # as a projection below the box does; +d_x1 leaves through r = 1.5
        op = RadialCylinderOperator(1)
        sc = ComparisonScenario("origin", op, ca.ZERO, ca.ZERO, box=((0.5, 1.0),), grid_counts=3)
        minus_x1 = VectorFieldExpr(op.structure.coords, [ca.const(-1), ca.ZERO, ca.ZERO])
        assert integrate_field(minus_x1, (0.75, 0.0, 0.0), 0.75, 0.75).endpoint == (0.0, 0.0, 0.0)
        runs = propagate_max(sc, (0.75,), [minus_x1], T=1.5, step=0.75)
        assert [(r.direction, r.steps_used, r.exited_box, r.ok) for r in runs] == [
            (1, 0, True, True), (-1, 0, True, True)]

    def test_a_trajectory_aborted_inside_the_box_has_not_exited_it(self):
        # sqrt((x1 - 1.1)^2 - 1/10000) has no value on |x1 - 1.1| < 1/100, a
        # strip between grid points: a trajectory that runs into it aborts there
        op = GenericOperator(standard_structure(1))
        u = ca.parse_expr("x1^2 + y1^2 + ((x1 - 1.1)^2 - 1/10000)^(1/2)", op.chart)
        sc = ComparisonScenario("hole", op, u, u, box=((1.0, 1.5), (-0.5, 0.5)), grid_counts=9)
        records = run_scenario(sc).as_dict()["propagation"]
        fields = tangent_distribution_fields(op.structure, op.phi(u))
        aborted = 0
        for r in records:
            start = op.lift(tuple(r["start"]), ca.evaluate(u, tuple(r["start"])))
            traj = integrate_field(fields[r["field_index"]], start, r["direction"] * sc.T, sc.step)
            left = any(not smp._in_box(reference_project(op, p), sc.box) for p in traj.points)
            assert r["exited_box"] == left
            aborted += not (left or traj.completed)  # no stop test: incomplete is aborted
        assert (len(records), aborted) == (16, 5)

    @pytest.mark.parametrize("name", builtin_names())
    def test_run_scenario_lifts_each_start_as_propagate_max_does(self, name):
        # run_scenario lifts a start from the swept value of its grid point,
        # propagate_max from ca.evaluate at the start: the records agree bitwise
        sc = builtin_scenario(name)
        report = run_scenario(sc).as_dict()
        records = report["propagation"]
        assert records
        lower = sc.v if report["swapped"] else sc.u
        fields = tangent_distribution_fields(sc.operator.structure, sc.operator.phi(lower.expr))
        starts = list(dict.fromkeys(tuple(r["start"]) for r in records))
        expected = [r.as_dict() for start in starts for r in propagate_max(sc, start, fields)]
        assert list(map(exact_record, records)) == list(map(exact_record, expected))

    def test_counterexample_axis_orbit_holds(self):
        sc = builtin_scenario("h1-counterexample")
        op = sc.operator
        u_small = ca.parse_expr("x1*x2", CS2)
        fields = tangent_distribution_fields(op.structure, op.phi(u_small))
        results = propagate_max(sc, (1.0, 0.0), fields, T=1.0, step=1e-3)
        assert results
        for r in results:
            assert r.max_deviation <= 1e-9
            assert r.ok

    def test_identical_graphs_hold_everywhere(self):
        sc = flat_scenario("x1*x2", "x1*x2", grid=9)
        op = sc.operator
        fields = tangent_distribution_fields(
            op.structure, op.phi(sc.u.expr)
        )
        for start in [(1.0, 0.0), (0.7, 0.2), (1.2, -0.3)]:
            for r in propagate_max(sc, start, fields):
                assert r.ok

    def test_constructed_violation_detected_quickly(self):
        sc = flat_scenario("x1*x2", "x1*x2 + x2^2", grid=17)
        op = sc.operator
        X2 = VectorFieldExpr(
            op.structure.coords, [ca.ZERO, ca.ONE, ca.ZERO]
        )
        results = propagate_max(sc, (1.0, 0.0), [X2], T=0.5, step=1e-3)
        for r in results:
            assert not r.ok
            assert r.first_violation_step is not None
            assert r.first_violation_step <= 5

    def test_depth_two_brackets_can_be_included(self):
        sc = builtin_scenario("vertical-hyperplane")
        op = sc.operator
        fields = tangent_distribution_fields(
            op.structure, op.phi(sc.u.expr)
        )
        start = (0.1, 0.2, -0.1, 0.0)
        plain = propagate_max(sc, start, fields, T=0.05, step=1e-2)
        brackets = [
            lie_bracket(fields[i], fields[j])
            for i in range(len(fields)) for j in range(i + 1, len(fields))
        ]
        with_brackets = propagate_max(sc, start, fields + brackets, T=0.05, step=1e-2)
        assert len(with_brackets) > len(plain)
        assert all(r.ok for r in with_brackets)


@functools.cache
def touch_family_configs(seed=101):
    """The text of the first config of each touch family of the benchmark's
    generator, which is run from its source, so nothing is written next to it."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    workloads = types.ModuleType("perfbench_workloads")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), workloads.__dict__)
    first = {}
    for config in workloads.touch_configs(seed):
        first.setdefault(config["family"], config["text"])
    return first


def reference_propagation(sc, report):
    """Each propagation record of ``report`` rebuilt over the full length of
    its trajectory: :func:`reference_rk4` with a stop test that projects
    each point by :func:`reference_project`, tests the box and records
    |v - u| there from one kernel per graph, on every point up to the stop."""
    op, n = sc.operator, len(sc.operator.chart)
    lower = sc.v if report["swapped"] else sc.u
    fields = tangent_distribution_fields(op.structure, op.phi(lower.expr))
    u_fn, v_fn = ca.compile_expr(sc.u.expr, n), ca.compile_expr(sc.v.expr, n)
    eps = sc.tolerances.eps_touch
    out = []
    for r in report["propagation"]:
        devs = []

        def stop(p):
            c = reference_project(op, p)
            if not all(lo <= x <= hi for x, (lo, hi) in zip(c, sc.box)):
                return True
            devs.append(abs(v_fn(c) - u_fn(c)))
            return False

        start = tuple(r["start"])
        lifted = op.lift(start, ca.evaluate(lower.expr, start))
        _, _, note = reference_rk4(fields[r["field_index"]], lifted, r["direction"] * sc.T, sc.step, stop)
        max_dev = max([0.0, *devs])
        out.append({
            "start": r["start"], "field_index": r["field_index"], "direction": r["direction"],
            "max_deviation": max_dev,
            "first_violation_step": next((k for k, dev in enumerate(devs) if dev > eps), None),
            "steps_used": max(len(devs) - 1, 0),
            "exited_box": note.startswith("stopped"),
            "ok": max_dev <= eps,
        })
    return out


@functools.cache
def propagation_case(name):
    """(scenario, report at jobs 1, its full-length reference records) of a
    builtin or of ``touch-<family>``, a config of that touch family."""
    family = name.removeprefix("touch-")
    if family == name:
        sc = builtin_scenario(name)
    else:
        sc = scenario_from_config(parse_config(touch_family_configs()[family]))
    report = run_scenario(sc).as_dict()
    return sc, report, reference_propagation(sc, report)


class TestFullLengthPropagation:
    """Every reported propagation record equals one rebuilt by the reference
    loop with a stop test on every point, a zero field's resting points too."""

    # the builtins at both jobs, the touch families at jobs 1, as the benchmark runs them
    @pytest.mark.parametrize("name, jobs", [*[(name, jobs) for name in builtin_names() for jobs in (1, 2)],
                                            *[(f"touch-{family}", 1) for family in touch_family_configs()]])
    def test_records_are_the_full_length_reference(self, name, jobs):
        sc, report, expected = propagation_case(name)
        records = report["propagation"] if jobs == 1 else run_scenario(sc, jobs).as_dict()["propagation"]
        assert records and list(map(exact_record, records)) == list(map(exact_record, expected))


# (operator, u on its chart, box of the chart)
AMBIENT_CASES = {
    "generic-z": (lambda: GenericOperator(cylinder_structure(1), 0, graph_dir=2),
                  "x1^2 + y1^2", ((0.3, 1.3), (-1.0, 1.0))),
    "generic-x1": (lambda: GenericOperator(cylinder_structure(1), 0, graph_dir=0),
                   "y1*z + z^2 + 1", ((-1.0, 1.0), (-1.0, 1.0))),
    "graph-HF": (lambda: GraphHFOperator(standard_drift(2), 2),
                 "x1*x2 + x2^2", ((0.5, 1.5), (-0.4, 0.4))),
    "la-graph": (lambda: LaGraphOperator(2),
                 "eta3*tau + eta2^2 - 3/10", ((-0.5, 0.5),) * 4),
    "intrinsic": (lambda: IntrinsicOperator(2),
                  "eta3*tau + eta2^2 - 3/10", ((-0.5, 0.5),) * 4),
    "radial": (lambda: RadialCylinderOperator(2),
               "r^3/3 - r/2 + 1/5", ((0.6, 1.4),)),
}


@functools.cache
def ambient_case(case):
    """(operator, u, box, phi) of an AMBIENT_CASES entry, built once."""
    make, u_src, box = AMBIENT_CASES[case]
    op = make()
    u = ca.parse_expr(u_src, op.chart)
    return op, u, box, op.phi(u)


def two_stage_build(op, u):
    """The generic graph restricted in two substitutions per expression:
    x^g -> phi + x^g (which is u over the ambient coordinates), then each
    coordinate after x^g down one index."""
    S, g = op.structure, op.axis
    phi = op.phi(u)
    on_graph = {g: ca.add(phi, ca.var(g))}
    down = {k: ca.var(k - 1) for k in range(g + 1, S.dim)}
    exprs = (p_mean_curvature_expr(S, phi, op.p), conorm_sq_expr(S, phi))
    return tuple(ca.substitute(ca.substitute(e, on_graph), down) for e in exprs)


BUILD_STRUCTURES = {
    "heisenberg1": lambda: standard_structure(1),
    "cylinder1": lambda: cylinder_structure(1),
    "heisenberg2": lambda: standard_structure(2),
}


class TestGenericBuild:
    @settings(max_examples=80, deadline=None)
    @given(structure=st.sampled_from(sorted(BUILD_STRUCTURES)), data=st.data(),
           p=st.sampled_from(["0", "1/2", "1"]), seed=st.integers(0, 2**32 - 1),
           rational=st.booleans())
    def test_one_substitution_is_the_two_stage_restriction(self, structure, data, p, seed,
                                                             rational):
        S = BUILD_STRUCTURES[structure]()
        op = GenericOperator(S, Fraction(p), data.draw(st.integers(0, S.dim - 1)))
        rng = random.Random(seed)
        make = random_rational_power_expr if rational else random_polynomial
        u = make(rng, S.dim - 1)
        h, sing = op.build(u)
        ref_h, ref_sing = two_stage_build(op, u)
        assert h is ref_h and sing is ref_sing


class TestAmbientMaps:
    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_lift_projects_back_onto_the_graph(self, case, data):
        op, u, box, phi = ambient_case(case)
        pt = data.draw(st.tuples(*[st.floats(lo, hi) for lo, hi in box]))
        lifted = op.lift(pt, ca.evaluate(u, pt))
        assert len(lifted) == op.structure.dim
        assert all(abs(a - b) <= 1e-12 for a, b in zip(reference_project(op, lifted), pt, strict=True))
        assert abs(ca.evaluate(phi, lifted)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_chart_curvature_is_the_ambient_p_mean_curvature(self, case):
        # H from op.build on the chart equals H_{phi,0} of the lifted graph
        # in op.structure; a wrong sign in the intrinsic chart breaks this
        op, u, box, phi = ambient_case(case)
        h_chart = ca.compile_expr(op.build(u)[0], len(op.chart))
        h_ambient = ca.compile_expr(p_mean_curvature_expr(op.structure, phi, 0), op.structure.dim)
        rng = random.Random(case)
        for _ in range(20):
            pt = tuple(rng.uniform(lo, hi) for lo, hi in box)
            lifted = op.lift(pt, ca.evaluate(u, pt))
            assert_close(h_chart(pt), h_ambient(lifted), rel=1e-12, msg=f"{case} at {pt}")

    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_chart_norm_is_the_ambient_squared_norm(self, case):
        # the singular mask reads the same norm on every operator's chart
        op, u, box, phi = ambient_case(case)
        norm_chart = ca.compile_expr(op.build(u)[1], len(op.chart))
        norm_ambient = ca.compile_expr(conorm_sq_expr(op.structure, phi), op.structure.dim)
        rng = random.Random(case)
        for _ in range(20):
            pt = tuple(rng.uniform(lo, hi) for lo, hi in box)
            lifted = op.lift(pt, ca.evaluate(u, pt))
            assert_close(norm_chart(pt), norm_ambient(lifted), rel=1e-12, msg=f"{case} at {pt}")

    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_tangent_fields_keep_the_lift_on_the_graph(self, case):
        op, u, box, phi = ambient_case(case)
        start = tuple(lo + 0.4 * (hi - lo) for lo, hi in box)
        devs = phi_along_tangent_fields(op, box, phi, op.lift(start, ca.evaluate(u, start)))
        assert len(devs) > 100 and max(devs) <= 1e-8

    @pytest.mark.parametrize("theta1, theta2, alpha",
                             [(0.7, 0.0, 0.0), (-2.0, 0.0, 0.0), (2.5, 0.3, 0.9), (-1.2, 1.0, 0.4)])
    def test_rotated_radial_start_keeps_rank_and_stays_on_the_graph(self, theta1, theta2, alpha):
        # the lift (r, 0, 0, 0, u) has r spread over the two planes by alpha
        # (a rotation of (x1, x2) and (y1, y2) together) and then turned by
        # theta_j in each (x_j, y_j) plane: both are isometries of cylinder(2)
        op, u, box, phi = ambient_case("radial")
        r = 1.1
        on_axis = op.lift((r,), ca.evaluate(u, (r,)))
        a, b = r * math.cos(alpha), r * math.sin(alpha)
        turned = (a * math.cos(theta1), b * math.cos(theta2),
                  a * math.sin(theta1), b * math.sin(theta2), on_axis[-1])
        assert abs(ca.evaluate(phi, turned)) <= 1e-12
        fields = tangent_distribution_fields(op.structure, phi)
        ranks = [bracket_generate_rank(fields, pt, max_depth=2, target_rank=4)
                 for pt in (on_axis, turned)]
        assert [(k.rank, k.depth) for k in ranks] == [(4, 2), (4, 2)]
        devs = phi_along_tangent_fields(op, box, phi, turned)
        assert len(devs) > 100 and max(devs) <= 1e-8


def phi_along_tangent_fields(op, box, phi, lifted, T=0.3, step=1e-3):
    """|phi| at every point, while its projection stays in the box, of the
    trajectory of each tangent field from ``lifted``."""
    phi_fn = ca.compile_expr(phi, op.structure.dim)
    devs = []

    def leaves_box(pt):
        if not all(lo <= c <= hi for c, (lo, hi) in zip(reference_project(op, pt), box)):
            return True
        devs.append(abs(phi_fn(pt)))
        return False

    for X in tangent_distribution_fields(op.structure, phi):
        integrate_field(X, lifted, T, step, stop=leaves_box)
    return devs


def reference_project(op, pt):
    """Each operator's chart projection written out by hand, the reference
    the stop test's projection (generated from ``op.projection``) must
    match bitwise: r is the sum of the squares in coordinate order, to the
    power 0.5, as the engine evaluates ``sqrt``."""
    if isinstance(op, GenericOperator):
        g = op.axis
        return tuple(pt[:g]) + tuple(pt[g + 1 :])
    if isinstance(op, RadialCylinderOperator):
        return (sum(c ** 2 for c in pt[: 2 * op.n]) ** 0.5,)
    n = op.n
    tau = pt[2 * n] + op.sign * pt[0] * pt[n]
    return tuple(pt[1 : 2 * n]) + (tau,)


class TestGeneratedProjection:
    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_project_is_the_reference_formula_bitwise(self, case):
        # ambient points off the graph and off the lift's coordinate planes,
        # where a wrong sign or a missing square in the projection shows;
        # v - u is linear with a distinct weight on each chart coordinate
        op, u, box, _ = ambient_case(case)
        v = ca.add(u, *[ca.mul(ca.const(Fraction(i + 2, 7)), ca.var(i)) for i in range(len(box))])
        engine = smp._ScenarioEngine(ComparisonScenario(case, op, u, v, box=box, grid_counts=3))
        stop, devs = engine.box_stop
        rng = random.Random(case)
        wide = [(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)) for lo, hi in box]
        pts = [tuple(rng.uniform(-1.5, 1.5) for _ in range(op.structure.dim)) for _ in range(100)]
        pts += [op.lift(tuple(rng.uniform(lo, hi) for lo, hi in wide), rng.uniform(-1.5, 1.5))
                for _ in range(100)]
        inside_count = 0
        for pt in pts:
            chart_pt = reference_project(op, pt)
            inside = all(lo <= c <= hi for c, (lo, hi) in zip(chart_pt, box))
            inside_count += inside
            devs.clear()
            assert stop(pt) is not inside
            du = ca.evaluate(engine.v.expr, chart_pt) - ca.evaluate(engine.u.expr, chart_pt)
            assert bits([devs]) == bits([[abs(du)] if inside else []])
        assert inside_count >= 20

    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_stop_matches_the_reference_box_test_at_faces(self, case):
        op, u, box, _ = ambient_case(case)
        v = ca.add(u, ca.mul(ca.const(Fraction(1, 7)), ca.pow_(ca.var(0), 2)))
        engine = smp._ScenarioEngine(
            ComparisonScenario(case, op, u, v, box=box, grid_counts=3))
        stop, devs = engine.box_stop
        mid = [(lo + hi) / 2 for lo, hi in box]
        for axis, (lo, hi) in enumerate(box):
            for c in (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
                target = tuple(mid[:axis] + [c] + mid[axis + 1 :])
                pt = op.lift(target, 0.0)
                chart_pt = reference_project(op, pt)
                assert chart_pt == target  # the point sits on the face or just off it
                inside = all(lo <= x <= hi for x, (lo, hi) in zip(chart_pt, box))
                devs.clear()
                assert stop(pt) is not inside
                du = ca.evaluate(engine.v.expr, chart_pt) - ca.evaluate(engine.u.expr, chart_pt)
                expected = [abs(du)] if inside else []
                assert bits([devs]) == bits([expected])

    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), same=st.booleans())
    def test_stop_records_the_evaluated_deviation_bitwise(self, case, seed, same):
        # u is v, or u and v share a rational-power subtree
        op, _, box, _ = ambient_case(case)
        rng, n = random.Random(seed), len(op.chart)
        shared = random_rational_power_expr(rng, n)
        u = ca.add(shared, random_polynomial(rng, n, 3, 2))
        v = u if same else ca.mul(shared, random_rational_power_expr(rng, n))
        try:
            engine = smp._ScenarioEngine(ComparisonScenario(case, op, u, v, box=box, grid_counts=3))
        except EvaluationError:
            reject()  # the sweep refuses the pair (a norm hole), so no stop is built
        stop, devs = engine.box_stop
        recorded = re.search(r"record\(abs\((\S+) - (\S+)\)\)", stop.source).groups()
        assert (recorded[0] == recorded[1]) is same  # u is v: evaluated once
        for _ in range(20):
            pt = op.lift(tuple(rng.uniform(lo, hi) for lo, hi in box), 0.0)
            chart_pt = reference_project(op, pt)
            if not all(lo <= c <= hi for c, (lo, hi) in zip(chart_pt, box)):
                continue
            devs.clear()
            assert stop(pt) is False
            du = ca.evaluate(engine.v.expr, chart_pt) - ca.evaluate(engine.u.expr, chart_pt)
            assert bits([devs]) == bits([[abs(du)]])


def reference_variation(F, u, f, grid):
    """The weak-form residual as a loop of ``ca.evaluate`` at each midpoint
    where f is not 0: N . grad f term by term, then f H."""
    m = len(f.coords)
    h, sq = graph_HF_exprs(F, u.expr, m)
    inv_norm = ca.pow_(sq, Fraction(-1, 2))
    normal = [ca.mul(ca.add(ca.differentiate(u.expr, j), F[j]), inv_norm) for j in range(m)]
    grad_f = ca.gradient(f.expr, m)
    widths = [(hi - lo) / grid for lo, hi in f.box]
    vol = math.prod(widths)
    mids = [[lo + (k + 0.5) * w for k in range(grid)] for (lo, _), w in zip(f.box, widths)]
    total = total_abs_f = 0.0
    for pt in itertools.product(*mids):
        fv = ca.evaluate(f.expr, pt)
        total_abs_f += abs(fv) * vol
        if fv != 0.0:
            term = sum(ca.evaluate(n, pt) * ca.evaluate(g, pt) for n, g in zip(normal, grad_f))
            total += (term + fv * ca.evaluate(h, pt)) * vol
    return abs(total) / (total_abs_f + 1.0)


class TestVariationCheck:
    def bump(self):
        return ScalarField(
            ca.parse_expr(
                "((x1-1/2)*(3/2-x1)*(x2-1/2)*(3/2-x2))^2", CS2
            ),
            CS2,
            box=((0.5, 1.5), (0.5, 1.5)),
        )

    def test_counterexample_graphs_have_small_residual(self):
        F = standard_drift(2)
        f = self.bump()
        for src in ("x1*x2", "x1*x2 + x2^2"):
            u = ScalarField(ca.parse_expr(src, CS2), CS2)
            r64 = variation_check(F, u, f, 64)
            r128 = variation_check(F, u, f, 128)
            assert r64 <= 2e-2
            assert r128 <= 1e-2

    @pytest.mark.parametrize("src", ["x1*x2", "x1*x2 + x2^2"])
    @pytest.mark.parametrize("grid", [64, 128])
    def test_residual_is_the_evaluate_reference(self, src, grid):
        # one swept integrand against the term-by-term loop: the sums
        # round differently, by far less than the criterion-9 bound
        F, f = standard_drift(2), self.bump()
        u = ScalarField(ca.parse_expr(src, CS2), CS2)
        assert abs(variation_check(F, u, f, grid) - reference_variation(F, u, f, grid)) <= 1e-15

    @pytest.mark.parametrize("src", ["x1*x2", "x1*x2 + (x1^2)^(3/2)"])
    def test_no_point_outside_the_support_is_evaluated(self, src):
        # f = 0 on {x1 = 0}, where x1*x2 is singular and (x1^2)^(3/2) has
        # no value; an odd cell count puts midpoints exactly on the line
        F, u = standard_drift(2), ScalarField(ca.parse_expr(src, CS2), CS2)
        f = ScalarField(ca.parse_expr("x1^2*((x1+1/2)*(1/2-x1)*(x2+1/2)*(1/2-x2))^2", CS2),
                        CS2, box=((-0.5, 0.5), (-0.5, 0.5)))
        h, sq = graph_HF_exprs(F, u.expr, 2)
        with pytest.raises((SingularPoint, EvaluationError)):
            curvature_at(h, sq, (0.0, 0.1))
        r = variation_check(F, u, f, 15)
        assert math.isfinite(r) and abs(r - reference_variation(F, u, f, 15)) <= 1e-15

    def test_integrand_without_value_in_the_support_names_the_point(self):
        # the norm 1 + 4*x1^2 is regular, and f is finite on {x1 = 0}, but
        # its derivative takes (1e-300)^-2 there, which leaves the float range
        F, u = standard_drift(2), ScalarField(ca.parse_expr("x1*x2 + x1", CS2), CS2)
        f = ScalarField(ca.parse_expr("((x1+1/2)*(1/2-x1)*(x2+1/2)*(1/2-x2))^2 / (x1^2 + 1e-300)", CS2),
                        CS2, box=((-0.5, 0.5), (-0.5, 0.5)))
        first = (0.0, -0.5 + 0.5 / 15)
        with pytest.raises(EvaluationError, match=re.escape(f"integrand undefined at chart point {first}")):
            variation_check(F, u, f, 15)

    @pytest.mark.parametrize("factor, point, base", [
        ("(x1 - 1/2)^(1/2)", (-0.5, -0.5), -1.0),  # the first face point
        ("1 + (x1^2 + x2^2)^(1/2)", (0.0, 0.0), 0.0),  # regular on the faces, a hole at the middle midpoint
    ])
    def test_test_function_without_value_names_f_and_the_point(self, factor, point, base):
        F, u = standard_drift(2), ScalarField(ca.parse_expr("x1*x2 + x1", CS2), CS2)
        f = ScalarField(ca.parse_expr(f"((x1+1/2)*(1/2-x1)*(x2+1/2)*(1/2-x2))^2 * ({factor})", CS2),
                        CS2, box=((-0.5, 0.5), (-0.5, 0.5)))
        message = f"test function f undefined at chart point {point}: non-integer power 0.5 of non-positive base {base}"
        with pytest.raises(EvaluationError, match=re.escape(message)):
            variation_check(F, u, f, 15)

    def test_zero_test_function(self):
        F = standard_drift(2)
        u = ScalarField(ca.parse_expr("x1*x2", CS2), CS2)
        f = ScalarField(ca.ZERO, CS2, box=((0.5, 1.5), (0.5, 1.5)))
        assert variation_check(F, u, f, 16) == 0.0

    def test_nonvanishing_boundary_rejected(self):
        F = standard_drift(2)
        u = ScalarField(ca.parse_expr("x1*x2", CS2), CS2)
        f = ScalarField(ca.ONE, CS2, box=((0.5, 1.5), (0.5, 1.5)))
        with pytest.raises(ValueError, match="vanish"):
            variation_check(F, u, f, 16)

    def test_singular_support_aborts(self):
        F = standard_drift(2)
        u = ScalarField(ca.parse_expr("x1*x2", CS2), CS2)
        # support straddles {x1 = 0} where the drifted gradient vanishes;
        # an odd cell count puts a quadrature midpoint exactly on the line
        f = ScalarField(
            ca.parse_expr("((x1+1/2)*(1/2-x1)*(x2+1/2)*(1/2-x2))^2", CS2),
            CS2,
            box=((-0.5, 0.5), (-0.5, 0.5)),
        )
        with pytest.raises(SingularPoint):
            variation_check(F, u, f, 15)


class TestRunScenario:
    def test_counterexample_classification(self):
        report = run_scenario(builtin_scenario("h1-counterexample"))
        d = report.as_dict()
        assert d["classification"] == "counterexample-detected;rank-condition-failed"
        assert d["swapped"] is True
        assert d["ordering"]["holds"] is True
        assert d["touching_count"] >= 5
        assert abs(d["curvature_gap"]["max"]) <= 1e-10
        assert d["rank"]["rank"] == 1
        assert d["rank"]["expected"] == 2
        assert d["propagation"]
        assert all(p["ok"] for p in d["propagation"])

    def test_translate_coincide_classification(self):
        report = run_scenario(builtin_scenario("translate-coincide"))
        assert report.classification == "coincide-near-touching"

    def test_hyperplane_probe(self):
        report = run_scenario(builtin_scenario("hyperplane-z"))
        d = report.as_dict()
        assert d["classification"] == "coincide-near-touching"
        assert d["curvature_gap"]["max"] == 0.0
        assert d["singular_fraction_u"] == pytest.approx(1 / 65 ** 2)
        assert d["singular_clusters_u"] == 1  # one cell cluster at the origin
        assert d["singular_touch"] is True
        assert d["notes"]

    def test_vertical_hyperplane_probe(self):
        report = run_scenario(builtin_scenario("vertical-hyperplane"))
        d = report.as_dict()
        assert d["classification"] == "coincide-near-touching"
        assert d["singular_fraction_u"] == 0.0
        assert d["curvature_gap"]["max"] == 0.0
        assert d["rank"]["rank"] == 4 == d["rank"]["expected"]

    def test_vertical_hyperplane_rank_is_unchanged_by_a_deep_rank_depth(self):
        # the rank reaches its target at depth 2, long before the word bound
        sc = builtin_scenario("vertical-hyperplane")
        deep = ComparisonScenario(
            sc.name, sc.operator, sc.u.expr, sc.v.expr, box=sc.box,
            grid_counts=sc.grid_counts, tolerances=sc.tolerances, T=sc.T,
            step=sc.step, max_propagation_starts=sc.max_propagation_starts,
            rank_depth=30, description=sc.description,
        )
        d, d30 = run_scenario(sc).as_dict(), run_scenario(deep).as_dict()
        assert (d30["rank"]["rank"], d30["rank"]["expected"], d30["rank"]["depth"]) == (4, 4, 2)
        assert d30["rank"] == d["rank"]
        assert d30["classification"] == d["classification"]

    def test_cylinder_sphere_paraboloid(self):
        report = run_scenario(builtin_scenario("cylinder-sphere-paraboloid"))
        d = report.as_dict()
        assert d["classification"] == "hypothesis-violated"
        assert d["swapped"] is True
        assert d["touching_count"] >= 1
        # the paraboloid carries strictly positive curvature, the cap none
        assert d["curvature_gap"]["max"] > 1.0

    @pytest.mark.parametrize("n, rank, expected, depth", [(1, 1, 2, 1), (2, 4, 4, 2)])
    @pytest.mark.parametrize(
        "make, u_src, box, grid",
        [
            (IntrinsicOperator, "eta2^2/2 + tau/3 + 1/5", (-0.5, 0.5), 3),
            (RadialCylinderOperator, "r^3/3 - r/2 + 1/5", (0.6, 1.4), 5),
        ],
        ids=["intrinsic", "radial"],
    )
    def test_intrinsic_and_radial_pairs_get_rank_and_propagation(
        self, make, u_src, box, grid, n, rank, expected, depth
    ):
        op = make(n)
        u = ca.parse_expr(u_src, op.chart)
        sc = ComparisonScenario("t", op, u, u, box=(box,) * len(op.chart), grid_counts=grid)
        d = run_scenario(sc).as_dict()
        assert d["classification"] == "coincide-near-touching"
        r = d["rank"]
        assert (r["rank"], r["expected"], r["depth"]) == (rank, expected, depth)
        assert d["propagation"] and all(p["ok"] for p in d["propagation"])

    def test_classification_is_pure_function_of_measurements(self):
        for name in builtin_names():
            d = run_scenario(builtin_scenario(name)).as_dict()
            stored = d["classification"]
            recomputed = classify({k: v for k, v in d.items()})
            assert recomputed == stored

    def test_grid_refinement_keeps_classification(self):
        sc = builtin_scenario("h1-counterexample")
        coarse = ComparisonScenario(
            sc.name, sc.operator, sc.u.expr, sc.v.expr,
            box=sc.box, grid_counts=33,
        )
        fine = ComparisonScenario(
            sc.name, sc.operator, sc.u.expr, sc.v.expr,
            box=sc.box, grid_counts=65,
        )
        assert (
            run_scenario(coarse).classification
            == run_scenario(fine).classification
            == "counterexample-detected;rank-condition-failed"
        )

    def test_report_deterministic_and_jobs_invariant(self):
        sc_name = "h1-counterexample"
        a = run_scenario(builtin_scenario(sc_name)).as_dict()
        b = run_scenario(builtin_scenario(sc_name)).as_dict()
        c = run_scenario(builtin_scenario(sc_name), jobs=3).as_dict()
        assert a == b == c

    def test_ordering_failure_without_swap(self):
        # graphs that cross: neither orientation is ordered
        sc = flat_scenario("x1*x2", "x1*x2 + x2", grid=17)
        d = run_scenario(sc).as_dict()
        assert d["ordering"]["holds"] is False
        assert d["classification"] == "hypothesis-violated"

    def test_no_touching_is_consistent(self):
        sc = flat_scenario("x1*x2", "x1*x2 + 1", grid=9)
        d = run_scenario(sc).as_dict()
        assert d["touching_count"] == 0
        assert d["classification"] == "smp-consistent"


def swapped(sc):
    """The same scenario with u and v exchanged."""
    return ComparisonScenario(
        sc.name, sc.operator, sc.v.expr, sc.u.expr, box=sc.box,
        grid_counts=sc.grid_counts, tolerances=sc.tolerances, T=sc.T,
        step=sc.step, max_propagation_starts=sc.max_propagation_starts,
        rank_depth=sc.rank_depth, description=sc.description,
    )


def lo_hi_pair():
    # touching zero-curvature graphs with lo below hi; the rank hypothesis
    # fails at the touching points of the lower graph
    return flat_scenario("x1*x2 - x1", "x1*x2", box=((0.0, 1.0), (-0.5, 0.5)), grid=9)


class TestSwapInvariance:
    """The verdict does not depend on which graph the input calls u."""

    @pytest.mark.parametrize(
        "make",
        [lambda name=name: builtin_scenario(name) for name in builtin_names()] + [lo_hi_pair],
        ids=builtin_names() + ["lo-hi"],
    )
    def test_exchanging_u_and_v_changes_only_swapped(self, make):
        sc = make()
        a, b = run_scenario(sc), run_scenario(swapped(sc))
        da, db = dict(a.as_dict()), dict(b.as_dict())
        flags = da.pop("swapped"), db.pop("swapped")
        # an ordered pair of distinct graphs is relabelled on exactly one side
        assert flags == (False, False) if sc.u.expr == sc.v.expr else flags[0] != flags[1]
        assert da == db
        names = sc.operator.chart.names
        assert write_scenario_csv(a, names) == write_scenario_csv(b, names)

    @pytest.mark.parametrize("orient", [lambda sc: sc, swapped], ids=["in-order", "swapped"])
    def test_rank_and_propagation_are_checked_on_the_lower_graph(self, orient):
        d = run_scenario(orient(lo_hi_pair())).as_dict()
        assert d["classification"] == "counterexample-detected;rank-condition-failed"
        assert d["rank"]["rank"] == 1 and d["rank"]["expected"] == 2
        assert len(d["propagation"]) == 16


def edge_touch_pair():
    # u = 0 is singular at the origin and v = x1 at (0, 1): they touch along
    # the box edge x1 = 0, where each graph has its own singular point
    return flat_scenario("0", "x1", box=((0.0, 1.0), (0.0, 1.0)), grid=9)


class TestNormRule:
    """The report's norm-based choices, recomputed from fresh norm kernels."""

    @pytest.mark.parametrize(
        "make",
        [lambda name=name: builtin_scenario(name) for name in builtin_names()]
        + [edge_touch_pair, lambda: swapped(edge_touch_pair())],
        ids=builtin_names() + ["edge-touch", "edge-touch-swapped"],
    )
    def test_singular_touch_rank_point_and_starts(self, make):
        sc = make()
        report = run_scenario(sc)
        d = report.as_dict()
        op = sc.operator
        lower, upper = (sc.v.expr, sc.u.expr) if d["swapped"] else (sc.u.expr, sc.v.expr)
        sq_lo, sq_hi = (ca.compile_expr(op.build(e)[1], len(op.chart)) for e in (lower, upper))
        eps_sq = sc.tolerances.eps_sing ** 2
        pts = [row[: len(op.chart)] for row in touching_rows(report, sc)]
        assert len(pts) == d["touching_count"]
        assert d["singular_touch"] == any(sq_lo(p) < eps_sq or sq_hi(p) < eps_sq for p in pts)
        regular = [p for p in pts if sq_lo(p) >= eps_sq]
        assert regular  # every case has a rank verdict to pin
        assert d["rank"]["point"] == list(regular[0])
        starts = [p for p in pts[: sc.max_propagation_starts] if sq_lo(p) >= eps_sq]
        assert list(dict.fromkeys(tuple(r["start"]) for r in d["propagation"])) == starts


AB = ca.CoordSystem(("a", "b"))
ABC = ca.CoordSystem(("a", "b", "c"))


def custom_line_scenario(u_src, g00, g11, v_src=None):
    """A generic graph b = u(a), a in [0.5, 1.5] at 5 points, on the custom
    structure diag(g00, g11) over (a, b), against v (u + 1 by default)."""
    S = SubriemannianStructure(
        AB, [[ca.parse_expr(g00, AB), ca.ZERO], [ca.ZERO, ca.parse_expr(g11, AB)]], ca.ONE)
    u = ca.parse_expr(u_src, AB)
    v = ca.add(u, ca.ONE) if v_src is None else ca.parse_expr(v_src, AB)
    return ComparisonScenario("line", GenericOperator(S, 0, 1), u, v,
                              box=((0.5, 1.5),), grid_counts=5)


# (u, g00, g11, error, needle): u and v = u + 1 both fail, u first
SWEEP_ERRORS = [
    # the norm hole at a = 0.5 comes first in grid order
    pytest.param("sqrt(1.2 - a)", "sqrt(a - 0.7)", "1", EvaluationError,
                 "graph u undefined at chart point (1.25,): non-integer power",
                 id="value-hole-after-norm-hole"),
    # |dphi|*^2 = sqrt(a - 0.7) - a: a hole at 0.5, indefinite from 0.75
    pytest.param("a", "sqrt(a - 0.7)", "-a", EvaluationError,
                 "graph u: |dphi|*^2 undefined at chart point (0.5,): non-integer power",
                 id="norm-hole-before-indefinite"),
    # |dphi|*^2 = sqrt(1.1 - a) - 2a: indefinite at 0.5, a hole from 1.25
    pytest.param("a", "sqrt(1.1 - a)", "-2*a", IndefiniteCometric,
                 "graph u: cometric not PSD at (0.5, 0.5): |dphi|*^2 is -0.2254",
                 id="indefinite-before-norm-hole"),
]


class TestSweepErrors:
    """Which error a sweep raises first: a value hole anywhere, then a
    non-finite value, then the first norm hole or indefinite norm."""

    @pytest.mark.parametrize("u, g00, g11, error, needle", SWEEP_ERRORS)
    def test_value_errors_come_first_then_the_first_norm_error(self, u, g00, g11, error,
                                                                needle):
        with pytest.raises(error) as exc:
            run_scenario(custom_line_scenario(u, g00, g11))
        assert needle in str(exc.value)


def paraboloid_pair():
    """Unshifted paraboloids c r^2 on the punctured cylinder chart, u below
    v, as in the benchmark's sweep ops."""
    op = GenericOperator(cylinder_structure(1), 0, 2)
    u, v = (ca.parse_expr(f"{c}*(x1^2 + y1^2)", op.chart) for c in ("0.3", "0.7"))
    return ComparisonScenario("paraboloids", op, u, v, box=((0.5, 1.5), (-0.5, 0.5)),
                              grid_counts=21)


def output_bytes(sc, jobs):
    """The report and CSV text of ``sc`` run at ``jobs``, as the CLI writes them."""
    report = run_scenario(sc, jobs=jobs)
    return dumps_report(report.as_dict()), write_scenario_csv(report, sc.operator.chart.names)


def raised(sc, jobs):
    """The type and message of the error ``run_scenario(sc, jobs=jobs)`` raises."""
    with pytest.raises(Exception) as exc:
        run_scenario(sc, jobs=jobs)
    return type(exc.value), str(exc.value)


def no_child_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


PAIRS = {**{name: functools.partial(builtin_scenario, name) for name in builtin_names()},
         "paraboloid-pair": paraboloid_pair}


class TestForkedSweep:
    """``jobs >= 2`` sweeps v in a forked child: the same bytes and the same
    errors as ``jobs == 1``, and no child outlives ``run_scenario``."""

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_report_and_csv_bytes_equal_at_jobs_1_and_2(self, name):
        assert output_bytes(PAIRS[name](), 2) == output_bytes(PAIRS[name](), 1)
        assert no_child_left()

    @pytest.mark.parametrize("u, g00, g11, v, error, needle", [
        *[pytest.param(*case.values[:3], None, *case.values[3:], id=case.id)
          for case in SWEEP_ERRORS],
        pytest.param("a", "1", "1", "sqrt(1.2 - a)", EvaluationError,
                     "graph v undefined at chart point (1.25,): non-integer power",
                     id="value-hole-only-in-v"),
        # |dphi|*^2 = (slope)^2 - 1: 3 on u, -0.75 on v, lifted onto v at a = 0.5
        pytest.param("2*a", "1", "-1", "a/2 + 1", IndefiniteCometric,
                     "graph v: cometric not PSD at (0.5, 1.25): |dphi|*^2 is -0.75",
                     id="indefinite-only-in-v"),
        # u has a value hole, v an indefinite norm: u's error wins
        pytest.param("sqrt(1.2 - a)", "1", "-1", "a/2 + 1", EvaluationError,
                     "graph u undefined at chart point (1.25,): non-integer power",
                     id="both-fail-u-wins"),
    ])
    def test_errors_equal_at_jobs_1_and_2(self, u, g00, g11, v, error, needle):
        sc = custom_line_scenario(u, g00, g11, v)
        kind, message = raised(sc, 1)
        assert kind is error and needle in message
        assert raised(sc, 2) == (kind, message)
        assert no_child_left()

    @pytest.mark.parametrize("fail", [None, "exit-3", "sigkill", "raises"])
    def test_a_failed_child_falls_back_to_the_parents_sweep(self, monkeypatch, fail):
        sc = paraboloid_pair()
        expected = output_bytes(sc, 1)
        parent, real = os.getpid(), smp.compile_sweep
        compiled, ran, forks, fork = [], [], [], os.fork

        def compile_sweep(*args, graph):
            if os.getpid() == parent:
                compiled.append(graph[0])
            kernel = real(*args, graph=graph)

            def sweep(points):  # the faults strike where the child runs its kernel
                if os.getpid() == parent:
                    ran.append(graph[0])
                elif fail == "exit-3":
                    os._exit(3)
                elif fail == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif fail == "raises":
                    raise RuntimeError("the child's sweep failed")
                return kernel(points)

            return sweep

        monkeypatch.setattr(smp, "compile_sweep", compile_sweep)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert output_bytes(sc, 2) == expected
        # each graph is compiled here once, v before the fork; v's kernel runs
        # here only when the child failed
        assert forks == [1] and compiled == ["v", "u"]
        assert ran == (["u"] if fail is None else ["u", "v"])
        assert no_child_left()

    def test_u_error_kills_and_reaps_a_running_child(self, monkeypatch):
        # v's child is still running its kernel when u's value hole raises
        sc = custom_line_scenario("sqrt(1.2 - a)", "1", "1", "a")
        parent, real = os.getpid(), smp.compile_sweep

        def compile_sweep(*args, graph):
            kernel = real(*args, graph=graph)

            def slow_in_child(points):
                if os.getpid() != parent:
                    time.sleep(20)
                return kernel(points)

            return slow_in_child

        monkeypatch.setattr(smp, "compile_sweep", compile_sweep)
        t0 = time.monotonic()
        assert raised(sc, 2) == raised(sc, 1)
        assert time.monotonic() - t0 < 10  # the child was killed, not waited for
        assert no_child_left()

    def test_a_warm_child_builds_and_compiles_nothing(self, monkeypatch, tmp_path):
        # the child of each run writes what it builds or compiles to a file
        sc, log = paraboloid_pair(), tmp_path / "child.log"
        parent, build, code = os.getpid(), GenericOperator.build, ca._code

        def noted(what, real):
            def call(*args):
                if os.getpid() != parent:
                    with open(log, "a", encoding="utf-8") as out:
                        out.write(f"{what}\n")
                return real(*args)
            return call

        monkeypatch.setattr(ca, "_BUILT", OrderedDict())  # the first run starts cold
        monkeypatch.setattr(GenericOperator, "build", noted("op.build", build))
        monkeypatch.setattr(ca, "_code", noted("calculus._code", code))
        runs = []
        for _ in range(2):  # the second run finds v's build and code in this process's memos
            runs.append(output_bytes(sc, 2))
            assert not log.exists(), log.read_text(encoding="utf-8")
        assert runs[1] == runs[0] == output_bytes(sc, 1)
        assert no_child_left()

    @pytest.mark.parametrize("u, needle", [
        ("x1*x2 + sqrt(x1)", "graph u undefined at chart point (-0.5, -0.5): non-integer power"),
        ("x1*x2", "graph v: outside the float range while building H"),
    ])
    def test_a_v_build_that_fails_is_raised_after_the_u_sweep(self, monkeypatch, u, needle):
        # v's H build overflows, so there is no fork, and u's value hole wins
        op = GraphHFOperator([ca.neg(ca.var(1)), ca.var(0)], 2)
        u, v = (ca.parse_expr(t, op.chart) for t in (u, "x1^2 + 1e154*x2^2"))
        sc = ComparisonScenario("big", op, u, v, box=((-0.5, 0.5),) * 2, grid_counts=3)
        kind, message = raised(sc, 1)
        assert kind is EvaluationError and needle in message

        def refused():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refused)
        assert raised(sc, 2) == (kind, message)
        assert no_child_left()

    @pytest.mark.parametrize("name, jobs", [("h1-counterexample", 1), ("translate-coincide", 2)])
    def test_jobs_1_and_coinciding_graphs_never_fork(self, monkeypatch, name, jobs):
        expected = output_bytes(builtin_scenario(name), 1)

        def refused():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refused)
        assert output_bytes(builtin_scenario(name), jobs) == expected

    def test_no_fork_on_this_platform_runs_sequentially(self, monkeypatch):
        expected = output_bytes(paraboloid_pair(), 1)
        monkeypatch.delattr(os, "fork")
        assert output_bytes(paraboloid_pair(), 2) == expected


# graph pieces with rational and negative-integer powers and holes at a, b = t
GRAPH_PIECES = ["a + b", "a*b", "b^3", "(a + 2)^(3/2)", "sqrt(a - {t})", "(b - {t})^-1",
                "(a - {t})^-2", "(b + 3)^(-1/2)*a", "{t}*a^2"]
# custom cometric entries: holes, indefinite signs, and products that
# overflow to inf (inf - inf is a NaN norm)
COMETRIC_ENTRIES = ["1", "a^2 + 1", "sqrt(a - {t})", "-1", "b - {t}", "a*b + 1",
                    "a*b - (a + 1)*(b + 1)", "(c - {t})^-2"]
# a density hole reaches H only
DENSITIES = ["1", "sqrt(b - {t})", "(a + 3)^-1"]
T_VALUES = ["0", "1/2", "1", "-1/2"]
COORDS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e200])


def filled(pool):
    """A pool entry with its hole position ``t`` drawn."""
    return st.tuples(st.sampled_from(pool), st.sampled_from(T_VALUES)).map(
        lambda pair: pair[0].format(t=pair[1]))


def sweep_operator(build, cometric, density, p):
    if build == "la_graph":
        return LaGraphOperator(1)
    if build == "graph_HF":
        return GraphHFOperator(standard_drift(2), 2)
    diag = [ca.parse_expr(entry, ABC) for entry in cometric]
    S = SubriemannianStructure(ABC, [[diag[i] if i == k else ca.ZERO for k in range(3)]
                                     for i in range(3)], ca.parse_expr(density, ABC))
    return GenericOperator(S, Fraction(p), 2)


def reference_sweep(op, u, points, eps_sq):
    """The sweep rule per point by ``ca.evaluate``: ``(values, H, low)``,
    or the first error as ``(kind, point)``."""
    h, sq = op.build(u)
    faults = (EvaluationError, OverflowError)
    values = []
    for pt in points:
        try:
            values.append(ca.evaluate(u, pt))
        except faults:
            return "value", pt
    for pt, value in zip(points, values):
        if not math.isfinite(value):
            return "non-finite", pt
    hs, low = [], {}
    for k, pt in enumerate(points):
        try:
            s = ca.evaluate(sq, pt)
        except faults:
            return "norm", pt
        if s < -PSD_TOL:
            return "indefinite", op.lift(pt, values[k])
        if not s >= eps_sq:
            low[k] = s
        value = None
        if not s < eps_sq:
            try:
                value = ca.evaluate(h, pt)
            except faults:
                pass
        hs.append(value if value is not None and math.isfinite(value) else None)
    return values, hs, low


def first_error(exc):
    """``(kind, point)`` of a sweep error."""
    if isinstance(exc, IndefiniteCometric):
        return "indefinite", exc.point
    kinds = [("non-finite", r"graph u undefined at chart point (\(.*?\)): non-finite value"),
             ("value", r"graph u undefined at chart point (\(.*?\)): "),
             ("norm", r"graph u: \|dphi\|\*\^2 undefined at chart point (\(.*?\)): ")]
    for kind, pattern in kinds:
        m = re.match(pattern, str(exc))
        if m:
            return kind, ast.literal_eval(m.group(1))
    raise AssertionError(f"unexpected sweep error {exc}")


def bitwise(low):
    return {k: struct.pack("<d", v) for k, v in low.items()}


def test_every_generated_kind_has_the_one_no_value_rule_in_scope():
    engine = smp._ScenarioEngine(builtin_scenario("h1-counterexample"))
    generated = {
        "kernel": ca.compile_expr(ca.var(0), 1),
        "sweep": compile_sweep(ca.var(0), ca.ONE, 1, 1e-14),
        "rk4": VectorFieldExpr(CS2, [ca.neg(ca.var(1)), ca.var(0)]).integrator(),
        "box-stop": engine.box_stop[0],
    }
    for kind, fn in generated.items():
        assert fn.__code__.co_filename.startswith(f"<{kind}-")
        assert fn.__globals__["_FAULTS"] is ca.FAULTS


class TestGeneratedSweep:
    @settings(max_examples=300, deadline=None)
    @given(build=st.sampled_from(["generic", "la_graph", "graph_HF"]),
           cometric=st.tuples(*[filled(COMETRIC_ENTRIES)] * 3), density=filled(DENSITIES),
           p=st.sampled_from(["0", "1/2", "1", "3"]),
           u=st.lists(filled(GRAPH_PIECES), min_size=1, max_size=3).map(" + ".join),
           points=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=12),
           eps_sq=st.sampled_from([1e-14, 0.5]))
    @example(build="generic", cometric=("1", "1", "a*b - (a + 1)*(b + 1)"), density="1",
             p="0", u="a + b", points=[(-1.0, -1.0), (1e200, 1e200)], eps_sq=1e-14)  # NaN norm
    def test_sweep_is_the_evaluate_reference(self, build, cometric, density, p, u, points,
                                             eps_sq):
        op = sweep_operator(build, cometric, density, p)
        u = ca.parse_expr(u, AB)
        expected = reference_sweep(op, u, points, eps_sq)
        try:
            swept = smp._SweptGraph(op, "u", u, points, eps_sq)
        except (EvaluationError, IndefiniteCometric) as exc:
            assert first_error(exc) == expected
            return
        assert (swept.values, swept.h, bitwise(swept.low)) == (
            expected[0], expected[1], bitwise(expected[2]))

    @staticmethod
    def sweep_calls(name):
        """The call count of each generated sweep in a profile of ``name``."""
        profiler = cProfile.Profile()
        profiler.runcall(run_scenario, builtin_scenario(name))
        stats = pstats.Stats(profiler).stats
        sweeps = [key for key in stats if key[2] == "sweep"]
        assert len({filename for filename, _, _ in sweeps}) == len(sweeps)
        assert all(re.fullmatch(r"<sweep-\d+>", filename) for filename, _, _ in sweeps)
        return [stats[key][1] for key in sweeps]

    def test_profiles_list_one_sweep_per_swept_graph(self):
        assert self.sweep_calls("h1-counterexample") == [1, 1]  # one call, no per-point call

    def test_coinciding_graphs_share_one_sweep(self):
        assert self.sweep_calls("translate-coincide") == [1]


# ---------------------------------------------------------------------------
# The columnar record and the CSV writer
# ---------------------------------------------------------------------------


def reference_csv(report, coords) -> str:
    """The scenario CSV written row by row from ``report.table``, each cell
    by ``format_number`` and ``None`` as an empty cell."""
    lines = [",".join([*coords, "v_minus_u", "H_u", "H_v", "singular_u", "singular_v"])]
    lines += [",".join("" if v is None else format_number(v) for v in row) for row in report.table]
    return "\n".join(lines) + "\n"


def parsed_csv(text: str) -> list:
    """The rows of a scenario CSV as ``report.table`` holds them."""
    rows = []
    for line in text.splitlines()[1:]:
        *numbers, su, sv = line.split(",")
        rows.append((*(None if c == "" else float(c) for c in numbers), int(su), int(sv)))
    return rows


RECORDS = {**PAIRS, "lo-hi-swapped": lambda: swapped(lo_hi_pair()),
           "h1-counterexample-swapped": lambda: swapped(builtin_scenario("h1-counterexample"))}


class TestColumnarRecord:
    """The engine keeps v - u and H as columns, and ``write_scenario_csv``
    writes them column by column; ``table`` builds the rows on request."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_csv_is_the_row_wise_reference(self, name):
        sc = RECORDS[name]()
        report = run_scenario(sc)
        names = sc.operator.chart.names
        text = write_scenario_csv(report, names)
        assert text == reference_csv(report, names)
        assert parsed_csv(text) == report.table

    def test_scenarios_cover_masked_and_swapped_records(self):
        masked = run_scenario(builtin_scenario("hyperplane-z"))
        assert None in masked.h_u or None in masked.h_v
        assert run_scenario(RECORDS["lo-hi-swapped"]()).as_dict()["swapped"] is True

    def test_writer_never_reads_the_row_table(self, monkeypatch):
        sc = builtin_scenario("hyperplane-z")
        report = run_scenario(sc)
        expected = reference_csv(report, sc.operator.chart.names)

        def table(self):
            raise AssertionError("write_scenario_csv read report.table")

        monkeypatch.setattr(smp.ScenarioReport, "table", property(table))
        assert write_scenario_csv(report, sc.operator.chart.names) == expected

    @pytest.mark.parametrize("u, v, relabelled", [("2*x1", "x1", True), ("x1", "2*x1", False)],
                             ids=["swapped", "in-order"])
    def test_argmin_is_taken_after_relabelling(self, u, v, relabelled):
        # v = x1 below u = 2 x1: v - u = -x1 as given is least at x1 = 1.5, and
        # x1 after relabelling is least at x1 = 0.5, the first grid point
        d = run_scenario(flat_scenario(u, v, grid=9)).as_dict()
        assert d["swapped"] is relabelled
        assert d["ordering"] == {"min_v_minus_u": 0.5, "argmin": [0.5, -0.4], "holds": True}

    @pytest.mark.parametrize("u, v, box, relabelled, first, sign", [
        # +0.0 at (-1, 0) first, -0.0 along x1 = 0 later
        ("0", "-x1*x2^2", ((-1.0, 0.0), (-1.0, 1.0)), False, 1, 1.0),
        # -0.0 at (-1, 0) first, +0.0 at (0, -1) and (0, -0.5) later
        ("0", "-x2*x1^2", ((-1.0, 1.0), (-1.0, 0.0)), False, 2, -1.0),
        # v <= u as given: +0.0 first, the negation of v - u = -0.0 there
        ("0", "x1*x2^2", ((-1.0, 0.0), (-1.0, 1.0)), True, 1, 1.0),
    ], ids=["plus-first", "minus-first", "swapped"])
    def test_signed_zero_tie_takes_the_first_index(self, u, v, box, relabelled, first, sign):
        report = run_scenario(flat_scenario(u, v, box=box, grid=3))
        assert report.as_dict()["swapped"] is relabelled
        du = report.du
        zeros = {math.copysign(1.0, d) for d in du if d == 0}
        assert min(du) == 0 and zeros == {1.0, -1.0}  # a true tie of signed zeros
        assert du.index(0.0) == first
        ordering = report.as_dict()["ordering"]
        assert ordering["argmin"] == list(list(report.grid.points())[first])
        assert math.copysign(1.0, ordering["min_v_minus_u"]) == sign


def reference_coincide(engine):
    """``_coincide_check`` as a full scan of every touching point's 5-cell
    ball, with a map from multi-index to grid position."""
    du, eps = engine.du, engine.tol.eps_touch
    if all(abs(d) <= eps for d in du):
        return True, None
    cells = list(grid_indices(engine.grid))
    position = {idx: k for k, idx in enumerate(cells)}
    for k in engine.hits:
        ranges = [range(max(0, i - 5), min(c, i + 6)) for i, c in zip(cells[k], engine.grid.shape)]
        for nb in itertools.product(*ranges):
            if abs(du[position[nb]]) > eps:
                return False, list(nb)
    return True, None


def grid_indices(grid):
    """The multi-index of each grid point, in the row-major order of ``grid.points()``."""
    return itertools.product(*map(range, grid.shape))


def flood_fill(cells):
    """The connected components of grid cells under axis adjacency, as sets
    of cells, by flood fill: the oracle for the cluster helpers."""
    unseen, components = set(cells), []
    while unseen:
        stack = [unseen.pop()]
        components.append(set(stack))
        while stack:
            cell = stack.pop()
            for axis in range(len(cell)):
                for delta in (-1, 1):
                    nb = cell[:axis] + (cell[axis] + delta,) + cell[axis + 1 :]
                    if nb in unseen:
                        unseen.remove(nb)
                        components[-1].add(nb)
                        stack.append(nb)
    return components


def reference_singular(engine, graph):
    cells = [idx for idx, h in zip(grid_indices(engine.grid), graph.h) if h is None]
    return len(cells) / len(graph.h), len(flood_fill(cells))


class TestGridPositions:
    """The 5-cell balls find grid positions by row-major strides, and a
    graph with nothing masked is not scanned for singular cells."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_balls_and_singular_cells_match_the_reference(self, name):
        engine = smp._ScenarioEngine(RECORDS[name]())
        if engine.hits:
            assert smp._coincide_check(engine) == reference_coincide(engine)
        for graph in (engine.u, engine.v):
            assert engine.singular(graph) == reference_singular(engine, graph)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           density=st.sampled_from([0.01, 0.2, 0.6, 0.95, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_verdict_is_every_point_touching_and_the_witness_the_scans(self, shape, density, seed):
        # the verdict is read off the hit count, the witness off the balls;
        # both must be what the full scan of every touching ball finds
        rng = random.Random(seed)
        grid = GridSpec([(0.0, 1.0, c) for c in shape])
        near = [rng.random() < density for _ in range(grid.npoints)]
        near[rng.randrange(grid.npoints)] = True  # run_scenario checks a nonempty touching set only
        du = [rng.uniform(-1e-6, 1e-6) if t else rng.choice([-1.0, 1.0]) * rng.uniform(2e-6, 1.0)
              for t in near]
        engine = types.SimpleNamespace(
            du=du, tol=smp.Tolerances(), grid=grid, hits=[k for k, d in enumerate(du) if abs(d) <= 1e-6])
        assert smp._coincide_check(engine) == reference_coincide(engine)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           density=st.sampled_from([0.05, 0.3, 0.6, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_clusters_are_the_flood_fill_components(self, shape, density, seed):
        rng = random.Random(seed)
        cells = list(grid_indices(GridSpec([(0.0, 1.0, n) for n in shape])))
        positions = [k for k in range(len(cells)) if rng.random() < density]
        groups = grid_clusters(positions, tuple(shape))
        components = flood_fill([cells[k] for k in positions])
        assert all(g == sorted(g) for g in groups)
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert len(groups) == len(components)
        assert {frozenset(cells[k] for k in g) for g in groups} == set(map(frozenset, components))

    @pytest.mark.parametrize("shape, positions, clusters", [
        ((3, 3), [2, 3], [[2], [3]]),  # (0, 2) and (1, 0): the end of one row, the start of the next
        ((3, 3), [0, 3, 6], [[0, 3, 6]]),  # a column, one stride apart
        ((2, 2, 2), [1, 2], [[1], [2]]),  # (0, 0, 1) and (0, 1, 0)
        ((2, 2, 2), [3, 4], [[3], [4]]),  # (0, 1, 1) and (1, 0, 0)
        ((1, 4), [0, 1, 3], [[0, 1], [3]]),  # a frozen first axis
        ((2, 2), [3, 2, 1, 0], [[0, 1, 2, 3]]),  # every cell, given in any order
    ])
    def test_a_step_along_an_axis_never_wraps_into_the_next_row(self, shape, positions, clusters):
        assert grid_clusters(positions, shape) == clusters

    def test_witness_off_the_first_row(self):
        # v - u = x1 touches along x1 = 0; the ball of (0, 0) first leaves
        # eps_touch at (1, 0), one stride of the first axis along
        engine = smp._ScenarioEngine(lo_hi_pair())
        assert smp._coincide_check(engine) == reference_coincide(engine) == (False, [1, 0])


# ---------------------------------------------------------------------------
# Touching clusters, rebuilt from the CSV
# ---------------------------------------------------------------------------


def reference_touching_clusters(d: dict, csv_text: str) -> list:
    """The report's ``touching_clusters`` without the representative's
    refinement, from the CSV's ``v_minus_u`` column and ``eps_touch`` alone:
    flood-fill components of the touching cells, each with its index bounding
    box, max |v - u| and the cell farthest in index steps from the grid faces
    along the axes with more than one point (the first in grid order among
    equals); components in the grid order of their first cell."""
    grid = GridSpec(d["grid"]["axes"])
    shape, n = grid.shape, len(grid.shape)
    rows = parsed_csv(csv_text)
    eps = d["tolerances"]["eps_touch"]
    cells = {idx: row for idx, row in zip(grid_indices(grid), rows) if abs(row[n]) <= eps}
    out = []
    for component in sorted(flood_fill(list(cells)), key=min):
        def depth(idx):
            return min([min(i, c - 1 - i) for i, c in zip(idx, shape) if c > 1], default=0)
        best = max(depth(idx) for idx in component)
        rep = min(idx for idx in component if depth(idx) == best)
        out.append({
            "cells": len(component),
            "index_lo": [min(idx[a] for idx in component) for a in range(n)],
            "index_hi": [max(idx[a] for idx in component) for a in range(n)],
            "max_abs_v_minus_u": max(abs(cells[idx][n]) for idx in component),
            "representative": {"index": list(rep), "point": list(cells[rep][:n]), "v_minus_u": cells[rep][n]},
        })
    return out


def assert_touching_clusters(sc, report):
    """The report's clusters are the reference's, and each representative's
    refinement is consistent: a refined point lies in the box with v - u
    (``calculus.evaluate``) within eps_touch there, and an unrefined one
    keeps the grid point and its swept v - u."""
    d = report.as_dict()
    want = reference_touching_clusters(d, write_scenario_csv(report, sc.operator.chart.names))
    got = d["touching_clusters"]
    assert sum(c["cells"] for c in got) == d["touching_count"]
    assert len(got) == len(want)
    lower, upper = (sc.v.expr, sc.u.expr) if d["swapped"] else (sc.u.expr, sc.v.expr)
    diff, eps = ca.sub(upper, lower), sc.tolerances.eps_touch
    for c, ref in zip(got, want):
        rep, ref_rep = c["representative"], ref.pop("representative")
        assert {k: c[k] for k in ref} == ref
        assert (rep["index"], rep["point"]) == (ref_rep["index"], ref_rep["point"])
        if rep["refined"]:
            assert all(lo <= x <= hi for x, (lo, hi) in zip(rep["refined_point"], sc.box))
            assert rep["value"] == ca.evaluate(diff, rep["refined_point"])
            assert abs(rep["value"]) <= eps
        else:
            assert (rep["refined_point"], rep["value"]) == (rep["point"], ref_rep["v_minus_u"])


FLAT_GAPS = {  # v - u >= 0 over the unit square, vanishing at grid nodes a, b, c, d
    "line": "(x1 - {a})^2",
    "two-lines": "((x1 - {a})*(x1 - {c}))^2",
    "cross": "((x1 - {a})*(x2 - {b}))^2",
    "point": "(x1 - {a})^2 + (x2 - {b})^2",
    "two-points": "((x1 - {a})^2 + (x2 - {b})^2)*((x1 - {c})^2 + (x2 - {d})^2)",
}


class TestTouchingClusters:
    """``touching_clusters`` against :func:`reference_touching_clusters`."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtins(self, name, jobs):
        sc = builtin_scenario(name)
        assert_touching_clusters(sc, run_scenario(sc, jobs=jobs))

    @settings(max_examples=60, deadline=None)
    @given(counts=st.tuples(st.sampled_from([1, 3, 5, 9]), st.sampled_from([3, 5, 9])),
           gap=st.sampled_from(sorted(FLAT_GAPS)), base=st.sampled_from(["0", "x1*x2", "x1^2 - x2"]),
           nodes=st.lists(st.integers(0, 8), min_size=4, max_size=4),
           eps_touch=st.sampled_from([1e-6, 0.02]), swap=st.booleans())
    @example(counts=(9, 9), gap="point", base="0", nodes=[4, 4, 0, 0], eps_touch=1e-6, swap=False)
    @example(counts=(9, 9), gap="two-points", base="x1*x2", nodes=[1, 2, 6, 7], eps_touch=1e-6,
             swap=True)
    @example(counts=(9, 5), gap="two-lines", base="x1^2 - x2", nodes=[1, 0, 6, 0], eps_touch=0.02,
             swap=False)
    @example(counts=(1, 9), gap="cross", base="0", nodes=[0, 3, 0, 0], eps_touch=1e-6, swap=True)
    def test_flat_scenarios(self, counts, gap, base, nodes, eps_touch, swap):
        # a node k of an axis of c points is k / (c - 1), exactly; on a frozen
        # axis (one point, at 0) every node is 0
        a, b, c, d = (f"{k % max(1, n - 1)}/{max(1, n - 1)}" if n > 1 else "0"
                      for k, n in zip(nodes, counts * 2))
        u, v = base, f"{base} + {FLAT_GAPS[gap].format(a=a, b=b, c=c, d=d)}"
        sc = flat_scenario(*((v, u) if swap else (u, v)), box=((0.0, 1.0), (0.0, 1.0)),
                           grid=counts, tolerances=smp.Tolerances(eps_touch=eps_touch), max_propagation_starts=1)
        assert_touching_clusters(sc, run_scenario(sc))

    def test_a_grid_with_no_free_axis(self, monkeypatch):
        # one frozen point on each axis: Newton has no axis to move along
        # and leaves the representative unrefined
        actives = []
        newton = core.newton_minimize
        monkeypatch.setattr(core, "newton_minimize", lambda *args: actives.append(args[3]) or newton(*args))
        sc = flat_scenario("x1*x2", "x1*x2 + x2^2", box=((0.0, 1.0), (0.0, 1.0)), grid=(1, 1))
        report = run_scenario(sc)
        d = report.as_dict()
        assert actives == [[]]
        assert d["classification"] == "coincide-near-touching"
        [cluster] = d["touching_clusters"]
        assert cluster["representative"] == {"index": [0, 0], "point": [0.0, 0.0], "refined_point": [0.0, 0.0],
                                             "value": 0.0, "refined": False}
        assert_touching_clusters(sc, report)
        assert output_bytes(sc, 2) == output_bytes(sc, 1)


def test_newton_runs_once_per_touching_cluster(monkeypatch):
    # every one of the 6,561 grid points touches, in one cluster
    calls = []
    newton = core.newton_minimize
    monkeypatch.setattr(core, "newton_minimize", lambda *args: calls.append(args) or newton(*args))
    d = run_scenario(builtin_scenario("vertical-hyperplane")).as_dict()
    assert len(calls) == 1
    assert d["touching_count"] == 6561 and len(d["touching_clusters"]) == 1


def test_no_builtin_note_claims_a_check_the_engine_does_not_run():
    # the engine measures whether a touching grid point is singular, and
    # nothing about the case split at it: no note may claim more
    for name in builtin_names():
        d = run_scenario(builtin_scenario(name)).as_dict()
        notes = d["notes"]
        assert len(notes) == d["singular_touch"]
        for note in notes:
            assert note.startswith("singular-touch: a touching grid point is singular for u or v;")
            assert "not measured" in note
            assert not re.search(r"verif|confirm|checked|annulus|\bring\b|curvature comparison", note)
