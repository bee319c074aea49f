"""Core engine: raising map, norms, weighted-divergence curvature, the
generated grid sweep, Newton refinement and structure validation."""

import itertools
import marshal
import math
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcurv import calculus as ca
from subcurv.calculus import CoordSystem
from subcurv.core import (
    GridSpec,
    IndefiniteCometric,
    ScalarField,
    SingularPoint,
    SubriemannianStructure,
    conorm,
    compile_sweep,
    covector_pairing,
    newton_refiner,
    p_mean_curvature,
    p_mean_curvature_expr,
    probe_validate,
    raise_covector,
    row_major_strides,
)
from subcurv.heisenberg import (
    graph_operator_HF,
    standard_drift,
    standard_structure,
    drift_graph_structure,
)

from conftest import assert_close, random_polynomial


def indefinite_structure():
    """diag(1, -1) on (x, y), where |d(x + 2y)|*^2 = 1 - 4 = -3."""
    coords = CoordSystem(("x", "y"))
    one, zero = ca.ONE, ca.ZERO
    S = SubriemannianStructure(coords, [[one, zero], [zero, ca.const(-1)]], one)
    return S, ca.parse_expr("x + 2*y", coords)


def euclidean_structure(names=("x1", "x2")):
    coords = CoordSystem(names)
    n = len(coords)
    cometric = [
        [ca.ONE if l == k else ca.ZERO for k in range(n)] for l in range(n)
    ]
    return SubriemannianStructure(
        coords, cometric, ca.ONE, domain_box=tuple(((-1.0, 1.0),) * n)
    )


class TestRaiseCovector:
    def test_euclidean_identity(self):
        S = euclidean_structure()
        v = raise_covector(S, [ca.ONE, ca.ZERO])
        assert v == [ca.ONE, ca.ZERO]

    def test_h1_vertical_coordinate(self):
        S = standard_structure(1)
        v = raise_covector(S, [ca.ZERO, ca.ZERO, ca.ONE])
        assert v[0] == ca.var(1)                      # y1
        assert v[1] == ca.neg(ca.var(0))              # -x1
        assert v[2] == ca.parse_expr("x1^2 + y1^2", S.coords)

    def test_zero_covector(self):
        S = standard_structure(2)
        assert raise_covector(S, [ca.ZERO] * 5) == [ca.ZERO] * 5

    def test_dimension_mismatch(self):
        S = standard_structure(1)
        with pytest.raises(ValueError):
            raise_covector(S, [ca.ONE, ca.ZERO])


class TestConorm:
    def test_flat_graph_norm_is_radius(self):
        S = standard_structure(1)
        phi = ca.neg(ca.var(2))
        assert_close(conorm(S, phi, (1.0, 2.0, 0.7)), math.sqrt(5), rel=1e-15)

    def test_euclidean_unit(self):
        S = euclidean_structure()
        assert conorm(S, ca.var(0), (0.3, -0.8)) == 1.0

    def test_singular_point_returns_zero(self):
        S = standard_structure(1)
        phi = ca.neg(ca.var(2))
        assert conorm(S, phi, (0.0, 0.0, 0.4)) == 0.0

    def test_negative_square_beyond_roundoff_raises(self):
        # |d(x + 2y)|*^2 = -3; a square of -1e-12 is roundoff
        S, phi = indefinite_structure()
        coords, one, zero = S.coords, ca.ONE, ca.ZERO
        with pytest.raises(IndefiniteCometric, match=r"at \(0\.1, 0\.2\)"):
            conorm(S, phi, (0.1, 0.2))
        with pytest.raises(IndefiniteCometric):
            p_mean_curvature(S, phi, 0, (0.1, 0.2))
        tiny = SubriemannianStructure(
            coords, [[ca.const(-1e-12), zero], [zero, zero]], one
        )
        assert conorm(tiny, ca.var(0), (0.1, 0.2)) == 0.0

    def test_symmetric_under_sign_flip(self, rng):
        S = standard_structure(1)
        phi = ca.parse_expr("x1*y1^2 - z", S.coords)
        for _ in range(10):
            pt = [rng.uniform(-1, 1) for _ in range(3)]
            value = conorm(S, phi, pt)
            assert value >= 0.0
            assert conorm(S, ca.neg(phi), pt) == value


class TestPMeanCurvature:
    def test_sublaplacian_of_squared_radius(self, rng):
        S = standard_structure(1)
        phi = ca.parse_expr("x1^2 + y1^2", S.coords)
        for _ in range(10):
            pt = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)]
            if math.hypot(pt[0], pt[1]) < 1e-3:
                continue
            assert abs(p_mean_curvature(S, phi, 1, pt) - 4.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_horizontal_plane_is_minimal(self, n, rng):
        S = standard_structure(n)
        phi = ca.sub(ca.const(Fraction(1, 2)), ca.var(2 * n))
        for _ in range(5):
            pt = [rng.uniform(0.3, 1.0) for _ in range(2 * n)] + [0.5]
            assert abs(p_mean_curvature(S, phi, 0, pt)) <= 1e-12

    def test_singular_point_raises(self):
        S = standard_structure(1)
        phi = ca.neg(ca.var(2))
        with pytest.raises(SingularPoint):
            p_mean_curvature(S, phi, 0, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("eps_sing", [1e-200, 0.0, -1e-7, 1e200])
    def test_threshold_without_a_positive_float_square_is_refused(self, eps_sing):
        # at 1e-200 the square is 0.0, and the plane z's zero norm on the
        # centre line would be regular: H read 0 there
        S = standard_structure(1)
        with pytest.raises(ValueError, match="eps_sing must be > 0 and square to a positive float"):
            p_mean_curvature(S, ca.var(2), 0, (0.0, 0.0, 0.2), eps_sing=eps_sing)

    def test_sign_flip_is_exact(self, rng):
        S = standard_structure(1)
        phi = ca.parse_expr("x1*y1 + y1^2 - z", S.coords)
        neg_phi = ca.neg(phi)
        for _ in range(10):
            pt = [rng.uniform(0.4, 1.2) for _ in range(3)]
            a = p_mean_curvature(S, phi, 0, pt)
            b = p_mean_curvature(S, neg_phi, 0, pt)
            assert a == -b

    def test_level_shift_invariance_is_exact(self, rng):
        S = standard_structure(1)
        phi = ca.parse_expr("x1*y1 - z", S.coords)
        shifted = ca.sub(phi, ca.const(Fraction(7, 3)))
        assert p_mean_curvature_expr(S, phi, 0) == p_mean_curvature_expr(
            S, shifted, 0
        )
        pt = (0.8, -0.3, 0.2)
        assert p_mean_curvature(S, phi, 0, pt) == p_mean_curvature(
            S, shifted, 0, pt
        )

    def test_weighted_divergence_matches_direct_graph_operator(self, rng):
        # generic engine on the graph structure vs the direct divergence form
        m = 2
        F = standard_drift(m)
        S = drift_graph_structure(F, m)
        for _ in range(5):
            u = random_polynomial(rng, m, max_terms=4, max_degree=3)
            phi = ca.sub(u, ca.var(m))
            for _ in range(4):
                pt = [rng.uniform(0.5, 1.5) for _ in range(m)]
                if conorm(S, phi, pt + [0.0]) < 1e-4:
                    continue
                direct = graph_operator_HF(F, u, pt)
                engine = p_mean_curvature(S, phi, 0, pt + [rng.uniform(-1, 1)])
                assert_close(engine, direct, rel=1e-8, abs_tol=1e-10)


class TestPairingIdentity:
    def test_projection_difference_identity(self, rng):
        # <w - e, w/|w| - e/|e|> = (|w| + |e|)/2 * |w/|w| - e/|e||^2
        for _ in range(10):
            dim = rng.choice([2, 3, 4])
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
            for _ in range(100):
                w = [rng.uniform(-2, 2) for _ in range(dim)]
                e = [rng.uniform(-2, 2) for _ in range(dim)]
                nw = math.sqrt(covector_pairing(S, w, w, pt))
                ne = math.sqrt(covector_pairing(S, e, e, pt))
                if nw < 1e-3 or ne < 1e-3:
                    continue
                uw = [c / nw for c in w]
                ue = [c / ne for c in e]
                duv = [a - b_ for a, b_ in zip(uw, ue)]
                dwe = [a - b_ for a, b_ in zip(w, e)]
                lhs = covector_pairing(S, dwe, duv, pt)
                rhs = 0.5 * (nw + ne) * covector_pairing(S, duv, duv, pt)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestNewtonRefiner:
    def test_a_step_out_of_the_domain_is_not_converged(self):
        # Newton on x^(3/2) steps from x to -x, where the gradient raises
        refine = newton_refiner(ca.pow_(ca.var(0), Fraction(3, 2)), 1, GridSpec([(0.5, 1.5, 5)]))
        assert refine((0.5,)) == ([0.5], False)

    def test_one_pair_of_kernels_per_function_and_each_grid_its_own_axes(self, monkeypatch):
        # the gradient and Hessian kernels come from calculus.built; the frozen axes do not
        memo, compiled, real = OrderedDict(), [], ca.compile_expr
        monkeypatch.setattr(ca, "_BUILT", memo)
        monkeypatch.setattr(ca, "compile_expr", lambda e, nvars: compiled.append(e) or real(e, nvars))
        f = ca.parse_expr("(x - 1/2)^2 + (y + 1/4)^2 + x*y", XY)
        free = newton_refiner(f, 2, GridSpec([(-1.0, 1.0, 5), (-1.0, 1.0, 5)]))
        kernels = memo["newton", f, 2]
        frozen = newton_refiner(f, 2, GridSpec([(-1.0, 1.0, 5), (0.25, 0.25, 1)]))
        assert len(compiled) == 2 and memo["newton", f, 2] is kernels
        x, ok = free((0.0, 0.0))
        assert ok and x == pytest.approx([5 / 6, -2 / 3])
        x, ok = frozen((0.0, 0.25))
        assert ok and x == pytest.approx([0.375, 0.25])


class TestValidation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_builtin_structures_validate(self, n):
        assert probe_validate(standard_structure(n)) == []

    def test_cylinder_validates_off_origin(self):
        from subcurv.heisenberg import cylinder_structure

        assert probe_validate(cylinder_structure(1)) == []

    def test_indefinite_cometric_reported(self):
        # leading minors of [[0, 0], [0, -1]] are 0 and 0; the 1x1 minor
        # of the second coordinate is -1
        S = SubriemannianStructure(
            CoordSystem(("a", "b")),
            [[ca.ZERO, ca.ZERO], [ca.ZERO, ca.const(-1)]],
            ca.ONE,
            domain_box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        issues = probe_validate(S)
        assert issues and all("not PSD" in msg for msg in issues)

    def test_asymmetric_cometric_rejected(self):
        coords = CoordSystem(("a", "b"))
        with pytest.raises(ValueError, match="symmetric"):
            SubriemannianStructure(
                coords,
                [[ca.ONE, ca.var(0)], [ca.var(1), ca.ONE]],
                ca.ONE,
            )

    @pytest.mark.parametrize("box, message", [
        (((-1.0, 1.0), (1.0, -1.0)), r"empty interval \(1.0, -1.0\)"),
        (((-1.0, 1.0), (0.0, math.nan)), r"empty interval \(0.0, nan\)"),
        (((-1.0, 1.0),), "box has 1 intervals, chart needs 2"),
    ])
    def test_function_and_structure_boxes_share_one_rule(self, box, message):
        coords = CoordSystem(("a", "b"))
        with pytest.raises(ValueError, match=message):
            ScalarField(ca.var(0), coords, box)
        with pytest.raises(ValueError, match=message):
            SubriemannianStructure(coords, [[ca.ONE, ca.ZERO], [ca.ZERO, ca.ONE]], ca.ONE, domain_box=box)

    @pytest.mark.parametrize("axes", [
        [(0.0, 1.0, 2), (0.0, 1.0, 3)],
        [(-1.0, 1.0, 4), (0.5, 0.5, 1), (-0.3, 0.7, 3)],
        [(0.25, 0.25, 1)],
    ])
    def test_points_and_indices_are_aligned_and_row_major(self, axes):
        grid = GridSpec(axes)
        values = [grid.axis_values(i) for i in range(len(axes))]
        # reference: each multi-index with the point it names
        pairs = [
            (idx, tuple(values[i][k] for i, k in enumerate(idx)))
            for idx in itertools.product(*[range(len(v)) for v in values])
        ]
        # the k-th point's index along an axis is k // stride % count
        strides = row_major_strides(grid.shape)
        indexed = [(tuple(k // s % c for s, c in zip(strides, grid.shape)), pt)
                   for k, pt in enumerate(grid.points())]
        assert indexed == pairs
        assert len(pairs) == grid.npoints

    def test_grid_order_is_row_major(self):
        grid = GridSpec([(0.0, 1.0, 2), (0.0, 1.0, 3)])
        pts = list(grid.points())
        assert pts[0] == (0.0, 0.0)
        assert pts[1] == (0.0, 0.5)
        assert pts[3] == (1.0, 0.0)
        assert grid.npoints == 6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.floats(-10, 10), st.floats(1e-3, 10), st.integers(2, 7)).map(
            lambda a: (a[0], a[0] + a[1], a[2])),
        st.floats(-10, 10).map(lambda lo: (lo, lo, 1)),  # a frozen axis
    ), min_size=1, max_size=4))
    def test_grid_is_a_lazy_sequence_of_its_points(self, axes):
        grid = GridSpec(axes)
        points = tuple(grid.points())

        def bits(pts):
            return [tuple(map(float.hex, pt)) for pt in pts]

        assert len(grid) == len(points)
        assert bits(grid) == bits(points)
        assert bits(grid[k] for k in range(len(grid))) == bits(points)
        for k in (len(grid), -1):
            with pytest.raises(IndexError):
                grid[k]


XY = CoordSystem(("x", "y"))


def sweep(sq, h, points, eps_sq=1e-14):
    """``(hs, low)`` of :func:`compile_sweep` on the (x, y) chart, no graph."""
    values, hs, low = compile_sweep(ca.parse_expr(h, XY), ca.parse_expr(sq, XY), 2, eps_sq)(points)
    assert values == []
    return hs, low


class TestMaskedCurvature:
    def test_singular_failing_and_nonfinite_points_map_to_none(self):
        # H = 1/x would raise at the singular point, where it is not evaluated
        assert sweep("x^2", "x^-1", [(0.0, 0.0), (2.0, 0.0)]) == ([None, 0.5], {0: 0.0})
        big = (1e200, 1e200)
        for h, pt in [("(x - 2)^-1", (2.0, 0.0)),  # a domain error
                      ("x^400", (50.0, 0.0)),  # an overflow
                      ("x*y", big), ("-x*y", big),  # inf and -inf
                      ("x*y - (x + 1)*(y + 1)", big)]:  # inf - inf
            assert sweep("1", h, [pt, (1.0, 1.0)])[0] == [None, ca.evaluate(ca.parse_expr(h, XY),
                                                                              (1.0, 1.0))], h
        # a NaN norm is not below eps^2, so H keeps its value...
        hs, low = sweep("x*y - (x + 1)*(y + 1)", "7", [big])
        # ...but it is not >= eps^2 either, so the map keeps it
        assert hs == [7.0] and list(low) == [0] and math.isnan(low[0])

    def test_compiled_kernels(self):
        points = [(0.0, 0.0), (1e-9, 0.0), (2.0, 0.0)]
        assert sweep("x^2", "x^-1", points) == ([None, None, 0.5], {0: 0.0, 1: 1e-18})
        assert sweep("x^2", "x^-1", [(0.0, 0.0)], 0.0)[0] == [None]  # 1/0 raises
        # the norm, H and the graph share one memo: x^2 is computed once per point
        source = compile_sweep(ca.parse_expr("x^2 + 1", XY), ca.parse_expr("x^2", XY), 2, 1e-14,
                               graph=("u", ca.parse_expr("x^2", XY))).source
        assert source.count("** 2") == 1

    def test_one_sweep_per_inputs_and_another_for_another_eps_or_graph(self, monkeypatch):
        monkeypatch.setattr(ca, "_BUILT", OrderedDict())
        h, sq, u = (ca.parse_expr(t, XY) for t in ("x^-1", "x^2", "sqrt(y)"))
        kernel = compile_sweep(h, sq, 2, 0.5, graph=("u", u))
        assert compile_sweep(h, sq, 2, 0.5, graph=("u", u)) is kernel
        finer = compile_sweep(h, sq, 2, 0.1, graph=("u", u))
        named_v = compile_sweep(h, sq, 2, 0.5, graph=("v", u))
        bare = compile_sweep(h, sq, 2, 0.5)
        assert len({id(k) for k in (kernel, finer, named_v, bare)}) == 4
        points = [(0.5, 1.0), (2.0, 4.0)]
        assert kernel(points) == ([1.0, 2.0], [None, 0.5], {0: 0.25})
        assert finer(points) == ([1.0, 2.0], [2.0, 0.5], {})
        assert bare(points) == ([], [None, 0.5], {0: 0.25})
        for name, k in (("u", kernel), ("v", named_v)):
            with pytest.raises(ca.EvaluationError, match=rf"^graph {name} undefined at chart point \(0\.5, -1\.0\)"):
                k([(0.5, -1.0)])

    def test_roundoff_norm_is_singular_and_nan_norm_is_not(self):
        points = [(0.0, 1.0), (0.0, -1e-12), (0.0, math.nan)]
        assert sweep("y", "2", points)[0] == [2.0, None, 2.0]

    @pytest.mark.parametrize("u, sq, error", [
        ("x^2 + y", "x^2 + (y + 2)^(1/2)", None),
        ("x^2 + (1/2 - x)^(1/2)", "1", "graph u undefined at chart point (0.6666666666666665, -1.0)"),
        ("x^2", "(1/2 - y)^(-1/2)", "|dphi|*^2 undefined at chart point (-1.0, 0.6000000000000001)"),
        ("x^2", "1/2 - y", "not PSD at (-1.0, 0.6000000000000001)"),
    ], ids=["regular", "value-hole", "norm-hole", "indefinite"])
    def test_a_grid_sweeps_as_the_list_of_its_points(self, u, sq, error):
        # the loop unpacks each point and looks a failing one up by position
        grid = GridSpec([(-1.0, 1.0, 7), (-1.0, 1.0, 6)])
        h = ca.parse_expr("(x^2 + y^2 + 1)^(-3/2) + x^-1", XY)  # no H at x = 0
        kernel = compile_sweep(h, ca.parse_expr(sq, XY), 2, 1e-2, graph=("u", ca.parse_expr(u, XY)))

        def outcome(points):
            try:
                return marshal.dumps(kernel(points))  # floats by their bits
            except (ca.EvaluationError, IndefiniteCometric) as exc:
                return type(exc), str(exc)

        lazy, listed = outcome(grid), outcome(list(grid.points()))
        assert lazy == listed
        assert isinstance(lazy, bytes) if error is None else error in lazy[1]

        with pytest.raises(IndefiniteCometric, match=r"not PSD at \(3\.0, -3\.0\): .* is -3\.0"):
            sweep("y", "2", [(0.0, 1.0), (3.0, -3.0)])
