"""Comparison harness: touching, gaps, propagation, classification."""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcurv import calculus as ca
from subcurv import smp
from subcurv.cli import write_scenario_csv
from subcurv.core import ScalarField, SingularPoint, VectorFieldExpr, p_mean_curvature_expr
from subcurv.brackets import tangent_distribution_fields
from subcurv.heisenberg import cylinder_structure, graph_coords, standard_drift
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
    curvature_gap,
    integrate_field,
    propagate_max,
    run_scenario,
    touching_set,
    variation_check,
)

from conftest import assert_close

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


class TestTouchingSet:
    def test_identical_graphs_touch_everywhere(self):
        sc = flat_scenario("x1*x2", "x1*x2", grid=9)
        assert len(touching_set(sc)) == 81

    def test_separated_graphs_do_not_touch(self):
        sc = flat_scenario("x1*x2", "x1*x2 + 1", grid=9)
        assert touching_set(sc) == []

    def test_counterexample_touches_along_segment(self):
        sc = builtin_scenario("h1-counterexample")
        touching = touching_set(sc)
        assert len(touching) >= 5
        for t in touching:
            assert abs(t["point"][1]) <= 1e-12


class TestCurvatureGap:
    def test_counterexample_gap_is_zero(self):
        sc = builtin_scenario("h1-counterexample")
        gap = curvature_gap(sc)
        assert abs(gap["max"]) <= 1e-10

    def test_identical_graphs(self):
        sc = flat_scenario("x1*x2", "x1*x2", grid=9)
        assert curvature_gap(sc)["max"] == 0.0

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
        gap = curvature_gap(sc)
        expected = 2 / 5 ** 0.25 - 1 / 2 ** 0.25
        assert_close(gap["max"], expected, rel=1e-9)
        assert expected > 0  # comparison hypothesis fails in this direction
        report = run_scenario(sc)
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
        assert out.completed
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
        assert not out.completed and out.note == "stopped at step 13"
        assert seen == out.points and len(out) == 14
        assert out.points[-2][0] <= 0.1 < out.endpoint[0]
        start = integrate_field(X, (0.0, 0.0), 1.0, 1.0 / 128, stop=lambda p: True)
        assert start.points == [(0.0, 0.0)] and not start.completed


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
        with_brackets = propagate_max(
            sc, start, fields, T=0.05, step=1e-2,
            include_brackets=True,
        )
        assert len(with_brackets) > len(plain)
        assert all(r.ok for r in with_brackets)


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


class TestAmbientMaps:
    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_lift_projects_back_onto_the_graph(self, case, data):
        op, u, box, phi = ambient_case(case)
        pt = data.draw(st.tuples(*[st.floats(lo, hi) for lo, hi in box]))
        lifted = op.lift(pt, ca.evaluate(u, pt))
        assert len(lifted) == op.structure.dim
        assert all(abs(a - b) <= 1e-12 for a, b in zip(op.project(lifted), pt, strict=True))
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
    def test_tangent_fields_keep_the_lift_on_the_graph(self, case):
        op, u, box, phi = ambient_case(case)
        phi_fn = ca.compile_expr(phi, op.structure.dim)
        start = tuple(lo + 0.4 * (hi - lo) for lo, hi in box)
        lifted = op.lift(start, ca.evaluate(u, start))
        devs = []

        def leaves_box(pt):
            if not all(lo <= c <= hi for c, (lo, hi) in zip(op.project(pt), box)):
                return True
            devs.append(abs(phi_fn(pt)))
            return False

        for X in tangent_distribution_fields(op.structure, phi):
            integrate_field(X, lifted, 0.3, 1e-3, stop=leaves_box)
        assert len(devs) > 100 and max(devs) <= 1e-8


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
