"""Group law, isometries, builtin structures, explicit graph operators."""

import math
from fractions import Fraction

import pytest

from subcurv import calculus as ca
from subcurv.calculus import CoordSystem
from subcurv.core import conorm, conorm_sq_expr, p_mean_curvature, raise_covector
from subcurv.heisenberg import (
    Dilation,
    HeisenbergPoint,
    LaTranslation,
    LeftTranslation,
    RotationSwap,
    apply_isometry,
    cylinder_structure,
    graph_operator_HF,
    group_inverse,
    group_mul,
    intrinsic_chart,
    intrinsic_graph_exprs,
    la_graph_exprs,
    pullback_expr,
    radial_curvature_expr,
    standard_drift,
    standard_structure,
    drift_graph_structure,
)
from subcurv.smp import RadialCylinderOperator

from conftest import assert_close, central_difference


def random_point(rng, n, lo=-1.0, hi=1.0):
    return HeisenbergPoint(n, [rng.uniform(lo, hi) for _ in range(2 * n + 1)])


def curvature_at(exprs, u, n, point):
    """H of a chart operator at one point: ``exprs(u, n)[0]`` evaluated."""
    return ca.evaluate(exprs(u, n)[0], point)


def gauge(q: HeisenbergPoint) -> float:
    r_sq = sum(c * c for c in q.coords[:-1])
    return (r_sq ** 2 + 4 * q.z ** 2) ** 0.25


class TestGroupLaw:
    def test_product_example(self):
        a = HeisenbergPoint(1, (1, 0, 0))
        b = HeisenbergPoint(1, (0, 1, 0))
        assert group_mul(a, b).coords == (1.0, 1.0, -1.0)

    def test_identity(self, rng):
        e = HeisenbergPoint(2, (0,) * 5)
        g = random_point(rng, 2)
        assert group_mul(e, g) == g
        assert group_mul(g, e) == g

    def test_inverse(self, rng):
        for _ in range(20):
            g = random_point(rng, 2)
            prod = group_mul(g, group_inverse(g))
            assert max(abs(c) for c in prod.coords) <= 1e-12

    def test_associativity(self, rng):
        for _ in range(100):
            n = rng.choice([1, 2])
            a, b, c = (random_point(rng, n) for _ in range(3))
            left = group_mul(group_mul(a, b), c)
            right = group_mul(a, group_mul(b, c))
            assert max(
                abs(x - y) for x, y in zip(left.coords, right.coords)
            ) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            group_mul(HeisenbergPoint(1, (0, 0, 0)), HeisenbergPoint(2, (0,) * 5))


class TestIsometries:
    def test_x1_translation_of_origin(self):
        q = HeisenbergPoint(2, (0,) * 5)
        out = apply_isometry(LaTranslation(1.0), q)
        assert out.coords == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_x1_translation_equals_left_translation(self, rng):
        for _ in range(10):
            q = random_point(rng, 2)
            a = rng.uniform(-1, 1)
            g = HeisenbergPoint(2, (a, 0, 0, 0, 0))
            direct = apply_isometry(LaTranslation(a), q)
            via_left = apply_isometry(LeftTranslation(g), q)
            assert direct == via_left
            # z picks up -a * y1
            assert_close(direct.z, q.z - a * q.y[0], rel=1e-15, abs_tol=1e-15)

    def test_dilation_scales_gauge(self, rng):
        for _ in range(10):
            q = random_point(rng, 1)
            lam = rng.uniform(-2, 2)
            if abs(lam) < 1e-2:
                continue
            out = apply_isometry(Dilation(lam), q)
            assert_close(gauge(out), abs(lam) * gauge(q), rel=1e-12)

    def test_rotation_swap(self):
        q = HeisenbergPoint(1, (0.3, -0.8, 0.5))
        out = apply_isometry(RotationSwap(), q)
        assert out.coords == (-0.8, -0.3, 0.5)

    def test_invalid_dilation(self):
        with pytest.raises(ValueError):
            Dilation(0.0)


class TestStandardStructure:
    def test_n1_cometric(self):
        S = standard_structure(1)
        cs = S.coords
        expected = [
            ["1", "0", "y1"],
            ["0", "1", "-x1"],
            ["y1", "-x1", "x1^2 + y1^2"],
        ]
        for l in range(3):
            for k in range(3):
                assert S.cometric[l][k] == ca.parse_expr(expected[l][k], cs)

    def test_contact_coform_is_null(self):
        for n in (1, 2):
            S = standard_structure(n)
            raised = raise_covector(S, S.null_coform)
            assert all(v == ca.ZERO for v in raised)

    def test_cometric_rank(self, rng):
        from subcurv.numerics import matrix_rank

        for n in (1, 2):
            S = standard_structure(n)
            pt = [rng.uniform(-1, 1) for _ in range(2 * n + 1)]
            rank, _ = matrix_rank([[ca.evaluate(entry, pt) for entry in row] for row in S.cometric])
            assert rank == 2 * n


class TestCylinderStructure:
    def test_conorm_is_gauge_times_standard(self, rng):
        S, C = standard_structure(1), cylinder_structure(1)
        phi = ca.parse_expr("x1*y1 - z", S.coords)
        for _ in range(10):
            pt = [rng.uniform(0.3, 1.2) for _ in range(3)]
            rho = ((pt[0] ** 2 + pt[1] ** 2) ** 2 + 4 * pt[2] ** 2) ** 0.25
            assert_close(conorm(C, phi, pt), rho * conorm(S, phi, pt), rel=1e-12)

    def test_unit_gauge_density(self):
        C = cylinder_structure(1)
        # rho = 1 at (1, 0, 0)
        assert ca.evaluate(C.volume_density, (1.0, 0.0, 0.0)) == 1.0

    def test_curvature_relation_to_standard(self, rng):
        # cylinder value = rho * standard value - (2n+1) * (normal derivative
        # of rho), with the normal built from the frame derivatives
        n = 1
        S, C = standard_structure(n), cylinder_structure(n)
        phi = ca.parse_expr("x1^2 + y1^2 - z", S.coords)
        rho = ca.pow_(
            ca.parse_expr("(x1^2 + y1^2)^2 + 4*z^2", S.coords), Fraction(1, 4)
        )
        frame_phi = [x.apply(phi) for x in S.frame_fields]
        frame_rho = [x.apply(rho) for x in S.frame_fields]
        for _ in range(10):
            pt = [rng.uniform(0.4, 1.1) for _ in range(3)]
            std = p_mean_curvature(S, phi, 0, pt)
            cyl = p_mean_curvature(C, phi, 0, pt)
            rho_v = ca.evaluate(rho, pt)
            norm = conorm(S, phi, pt)
            drift = sum(
                ca.evaluate(fp, pt) / norm * ca.evaluate(fr, pt)
                for fp, fr in zip(frame_phi, frame_rho)
            )
            assert_close(cyl, rho_v * std - (2 * n + 1) * drift, rel=1e-8)

    @pytest.mark.parametrize("n,c", [(1, 1.0), (1, 5.0), (2, 1.0), (2, 5.0)])
    def test_gauge_spheres_are_minimal(self, n, c, rng):
        C = cylinder_structure(n)
        r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
        phi = ca.sub(
            ca.add(ca.pow_(r_sq, 2), ca.mul(4, ca.pow_(ca.var(2 * n), 2))),
            ca.const(c),
        )
        for _ in range(5):
            pt = [rng.uniform(0.3, 0.8) for _ in range(2 * n)]
            rr = sum(x * x for x in pt)
            z = math.sqrt(max(c - rr * rr, 0.0)) / 2.0
            assert abs(p_mean_curvature(C, phi, 0, pt + [z])) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_sphere_curvature_under_flat_structure(self, n, rng):
        # under the unrescaled structure the gauge sphere has curvature
        # (2n+1) r / rho^2
        S = standard_structure(n)
        r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
        rho4 = ca.add(ca.pow_(r_sq, 2), ca.mul(4, ca.pow_(ca.var(2 * n), 2)))
        phi = ca.sub(rho4, ca.const(2))
        for _ in range(5):
            x = [rng.uniform(0.3, 0.8) for _ in range(2 * n)]
            rr = sum(v * v for v in x)
            z = math.sqrt(max(2.0 - rr * rr, 1e-6)) / 2.0
            pt = x + [z]
            r = math.sqrt(rr)
            rho_sq = math.sqrt(rr * rr + 4 * z * z)
            assert_close(
                p_mean_curvature(S, phi, 0, pt),
                (2 * n + 1) * r / rho_sq,
                rel=1e-10,
            )

    @pytest.mark.parametrize("n", [1, 2])
    def test_radial_graph_conorm_closed_form(self, n, rng):
        # |d(u(r) - z)| under the flat structure is sqrt(u'(r)^2 + r^2)
        S = standard_structure(n)
        r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
        c = 0.7
        phi = ca.sub(ca.mul(ca.const(c), r_sq), ca.var(2 * n))  # u(r) = c r^2
        for _ in range(5):
            pt = [rng.uniform(0.2, 1.0) for _ in range(2 * n)]
            pt.append(rng.uniform(-1.0, 1.0))
            r = math.sqrt(sum(v * v for v in pt[: 2 * n]))
            du = 2 * c * r
            assert_close(
                conorm(S, phi, pt), math.sqrt(du * du + r * r), rel=1e-12
            )

    def test_sphere_conorm_closed_form(self, rng):
        # |d(rho^4 - c)| under the flat structure is 4 r rho^2
        n = 1
        S = standard_structure(n)
        r_sq = ca.parse_expr("x1^2 + y1^2", S.coords)
        rho4 = ca.parse_expr("(x1^2 + y1^2)^2 + 4*z^2", S.coords)
        phi = ca.sub(rho4, ca.const(1))
        sq = conorm_sq_expr(S, phi)
        for _ in range(10):
            pt = [rng.uniform(0.2, 1.0) for _ in range(3)]
            r = math.sqrt(ca.evaluate(r_sq, pt))
            rho2 = math.sqrt(ca.evaluate(rho4, pt))
            assert_close(ca.evaluate(sq, pt), (4 * r * rho2) ** 2, rel=1e-12)


class TestGraphOperator:
    def test_counterexample_pair_is_minimal(self, rng):
        F = standard_drift(2)
        cs = CoordSystem(("x1", "x2"))
        u = ca.parse_expr("x1*x2 + x2^2", cs)
        v = ca.parse_expr("x1*x2", cs)
        for _ in range(10):
            x1 = rng.uniform(0.2, 1.5)
            x2 = rng.uniform(-x1 + 0.05, 1.0)
            assert abs(graph_operator_HF(F, u, (x1, x2))) <= 1e-12
            assert abs(graph_operator_HF(F, v, (x1, x2))) <= 1e-12

    def test_flat_graph_minimal_away_from_origin(self, rng):
        m = 4
        F = standard_drift(m)
        for _ in range(5):
            pt = [rng.uniform(0.2, 1.0) for _ in range(m)]
            assert abs(graph_operator_HF(F, ca.ZERO, pt)) <= 1e-12

    def test_singular_point_raises(self):
        F = standard_drift(2)
        from subcurv.core import SingularPoint

        with pytest.raises(SingularPoint):
            graph_operator_HF(F, ca.ZERO, (0.0, 0.0))


class TestFlatGroupGraphEquivalence:
    def test_engine_equals_block_drift_divergence(self, rng):
        # graphs over the horizontal hyperplane of the flat group: the
        # generic engine with phi = u - z reproduces the divergence form
        # with the block drift (-y_1..-y_n, x_1..x_n)
        n = 2
        S = standard_structure(n)
        chart = CoordSystem(S.coords.names[: 2 * n])
        u = ca.parse_expr("x1*y1 + x2^2*y2 - x1^3", chart)
        F = [ca.neg(ca.var(n + j)) for j in range(n)] + [
            ca.var(j) for j in range(n)
        ]
        phi = ca.sub(u, ca.var(2 * n))
        for _ in range(5):
            x = [rng.uniform(0.4, 1.2) for _ in range(2 * n)]
            hf = graph_operator_HF(F, u, x)
            eng = p_mean_curvature(S, phi, 0, x + [rng.uniform(-1, 1)])
            assert_close(eng, hf, rel=1e-12, abs_tol=1e-12)


class TestDriftGraphStructure:
    def test_null_coform(self):
        F = standard_drift(4)
        S = drift_graph_structure(F, 4)
        assert all(v == ca.ZERO for v in raise_covector(S, S.null_coform))

    def test_conorm_equals_drifted_gradient_norm(self, rng):
        F = standard_drift(2)
        S = drift_graph_structure(F, 2)
        cs = CoordSystem(("x1", "x2"))
        u = ca.parse_expr("x1*x2 + x2^2", cs)
        phi = ca.sub(u, ca.var(2))
        for _ in range(10):
            x = [rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)]
            expected = abs(2 * x[0] + 2 * x[1])
            assert_close(conorm(S, phi, x + [rng.uniform(-1, 1)]), expected,
                         rel=1e-12)

    def test_engine_matches_direct_divergence(self, rng):
        F = standard_drift(2)
        S = drift_graph_structure(F, 2)
        cs = CoordSystem(("x1", "x2"))
        u = ca.parse_expr("x1^2*x2 - x2^3 + x1", cs)
        phi = ca.sub(u, ca.var(2))
        for _ in range(10):
            x = [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]
            direct = graph_operator_HF(F, u, x)
            engine = p_mean_curvature(S, phi, 0, x + [rng.uniform(-1, 1)])
            assert_close(engine, direct, rel=1e-8)


def fd_divergence_oracle(n, u_fn, point, quasilinear_coeff, h=1e-4):
    """Independent divergence computation for the chart operators.

    Fields are given by hand-coded coefficient callables; every
    derivative (of u and of the quotient components) is a central
    difference, so nothing here touches the symbolic engine.
    """
    dim = 2 * n
    tau = dim - 1

    def coeffs(k, pt):
        # chart fields: d_{eta^j} +- eta^{..} d_tau, middle field gets the
        # operator-dependent tau coefficient
        c = [0.0] * dim
        if k < n - 1:  # eta^j, 2 <= j <= n
            c[k] = 1.0
            c[tau] = pt[n + k]  # eta^{n+j} sits at chart index n+j-2 = n+k
        elif k == n - 1:  # middle field
            c[n - 1] = 1.0
            c[tau] = quasilinear_coeff(pt)
        else:  # eta^{n+j}, 2 <= j <= n
            c[k] = 1.0
            c[tau] = -pt[k - n]
        return c

    def apply_field(f, k, pt):
        c = coeffs(k, pt)
        total = 0.0
        for i, ci in enumerate(c):
            if ci == 0.0:
                continue
            total += ci * central_difference(f, pt, i, h)
        return total

    nfields = dim - 1

    def quotient(k, pt):
        w = [apply_field(u_fn, kk, pt) for kk in range(nfields)]
        denom = math.sqrt(1.0 + sum(q * q for q in w))
        return w[k] / denom

    return sum(
        apply_field(lambda p, kk=k: quotient(kk, p), k, point)
        for k in range(nfields)
    )


class TestIntrinsicGraph:
    def test_zero_graph(self):
        assert curvature_at(intrinsic_graph_exprs, ca.ZERO, 2, (0.1, 0.2, 0.3, 0.4)) == 0.0

    def test_linear_middle_coordinate_graph(self, rng):
        # u = a * eta^(n+1): the applied quotient is constant, so every
        # divergence term vanishes
        n = 2
        u = ca.mul(ca.const(0.7), ca.var(n - 1))
        for _ in range(5):
            pt = [rng.uniform(-1, 1) for _ in range(2 * n)]
            assert abs(curvature_at(intrinsic_graph_exprs, u, n, pt)) <= 1e-14

    def test_against_finite_difference_oracle(self, rng):
        n = 2
        chart = intrinsic_chart(n)
        u = ca.parse_expr("tau", chart)
        u_fn = ca.compile_expr(u, 2 * n)
        for _ in range(3):
            pt = [rng.uniform(-0.6, 0.6) for _ in range(2 * n)]
            sym = curvature_at(intrinsic_graph_exprs, u, n, pt)
            fd = fd_divergence_oracle(n, u_fn, pt, lambda p: -2.0 * u_fn(p))
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))

    def test_matches_generic_engine_via_chart_map(self, rng):
        # level set x1 = u(y1, z - x1*y1) in the flat group chart
        n = 1
        chart = intrinsic_chart(n)
        u = ca.parse_expr("eta2^2*tau - 2*tau + eta2", chart)
        S = standard_structure(1)
        lift = {0: ca.var(1), 1: ca.sub(ca.var(2), ca.mul(ca.var(0), ca.var(1)))}
        phi = ca.sub(ca.substitute(u, lift), ca.var(0))
        for _ in range(5):
            eta2, tau = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            x1 = ca.evaluate(u, (eta2, tau))
            z = tau + x1 * eta2
            generic = p_mean_curvature(S, phi, 0, (x1, eta2, z))
            direct = curvature_at(intrinsic_graph_exprs, u, n, (eta2, tau))
            assert_close(direct, generic, rel=1e-8, abs_tol=1e-10)


class TestLaGraph:
    def test_constant_graph(self, rng):
        for n in (1, 2):
            for _ in range(5):
                pt = [rng.uniform(-1, 1) for _ in range(2 * n)]
                assert curvature_at(la_graph_exprs, ca.const(0.4), n, pt) == 0.0
                assert curvature_at(la_graph_exprs, ca.ZERO, n, pt) == 0.0

    def test_against_finite_difference_oracle(self, rng):
        n = 2
        chart = intrinsic_chart(n)
        u = ca.parse_expr("eta2", chart)
        u_fn = ca.compile_expr(u, 2 * n)
        h_expr, d_sq = la_graph_exprs(u, n)
        tau = 2 * n - 1

        # independent quotient set: first component (-1 + 2 eta^(n+1) u_tau)
        # flows along 2 eta^(n+1) d_tau, the rest along the plain fields
        def first_quotient(pt):
            ut = central_difference(u_fn, pt, tau)
            w = [0.0] * (2 * n - 1)
            q0 = -1.0 + 2.0 * pt[n - 1] * ut
            for k in range(2 * n - 1):
                c_tau = 0.0
                if k < n - 1:
                    grad = central_difference(u_fn, pt, k) + pt[n + k] * ut
                elif k == n - 1:
                    grad = central_difference(u_fn, pt, n - 1)
                else:
                    grad = central_difference(u_fn, pt, k) - pt[k - n] * ut
                w[k] = grad
            denom = math.sqrt(q0 * q0 + sum(q * q for q in w))
            return q0, w, denom

        def oracle(pt):
            def q0_fn(p):
                a, _, d = first_quotient(p)
                return a / d

            total = 2.0 * pt[n - 1] * central_difference(q0_fn, pt, tau)
            for k in range(2 * n - 1):
                def qk_fn(p, kk=k):
                    _, w, d = first_quotient(p)
                    return w[kk] / d

                if k < n - 1:
                    total += central_difference(qk_fn, pt, k) + pt[
                        n + k
                    ] * central_difference(qk_fn, pt, tau)
                elif k == n - 1:
                    total += central_difference(qk_fn, pt, n - 1)
                else:
                    total += central_difference(qk_fn, pt, k) - pt[
                        k - n
                    ] * central_difference(qk_fn, pt, tau)
            return total

        for _ in range(3):
            pt = [rng.uniform(-0.5, 0.5) for _ in range(2 * n)]
            sym = curvature_at(la_graph_exprs, u, n, pt)
            assert abs(sym - oracle(pt)) <= 1e-6 * max(1.0, abs(sym))

    def test_matches_generic_engine_via_chart_map(self, rng):
        # level set x1 = u(y1, z + x1*y1) in the flat group chart
        n = 1
        chart = intrinsic_chart(n)
        u = ca.parse_expr("eta2^2*tau - 2*tau + eta2", chart)
        S = standard_structure(1)
        lift = {0: ca.var(1), 1: ca.add(ca.var(2), ca.mul(ca.var(0), ca.var(1)))}
        phi = ca.sub(ca.substitute(u, lift), ca.var(0))
        for _ in range(5):
            eta2, tau = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            x1 = ca.evaluate(u, (eta2, tau))
            z = tau - x1 * eta2
            generic = p_mean_curvature(S, phi, 0, (x1, eta2, z))
            direct = curvature_at(la_graph_exprs, u, n, (eta2, tau))
            assert_close(direct, generic, rel=1e-8, abs_tol=1e-10)


class TestRadialGraphs:
    def test_paraboloid_closed_form(self, rng):
        r = ca.var(0)
        cases = [(1, 1.0), (2, 0.5), (2, 1.0), (3, 0.25)]
        for n, c in cases:
            u = ca.mul(ca.const(c), ca.pow_(r, 2))
            expected = 2 * (2 * n - 1) * c / (1 + 4 * c * c) ** 0.25
            for _ in range(5):
                r0 = rng.uniform(0.2, 2.0)
                assert_close(
                    curvature_at(radial_curvature_expr, u, n, (r0,)), expected, rel=1e-10
                )

    def test_flat_graph(self, rng):
        for n in (1, 2, 3):
            r0 = rng.uniform(0.1, 2)
            assert curvature_at(radial_curvature_expr, ca.ZERO, n, (r0,)) == 0.0

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError, match="r > 0"):
            RadialCylinderOperator(1).lift((0.0,), 0.0)


class TestIsometryInvariance:
    @pytest.mark.parametrize("p", [0, 1, Fraction(1, 2)])
    def test_vertical_translation_invariance(self, p, rng):
        # phi = u(x, y) - z shifts by constants under z-translation
        S = standard_structure(1)
        phi = ca.parse_expr("x1^2 + x1*y1 - z", S.coords)
        for _ in range(20):
            a = rng.uniform(-1, 1)
            g = LeftTranslation(HeisenbergPoint(1, (0.0, 0.0, a)))
            pulled = pullback_expr(phi, g, 1)
            pt = [rng.uniform(0.4, 1.2) for _ in range(3)]
            moved = apply_isometry(g, HeisenbergPoint(1, pt)).coords
            assert_close(
                p_mean_curvature(S, phi, p, moved),
                p_mean_curvature(S, phi, p, pt),
                rel=1e-8,
            )
            # compatibility: phi(Psi_a(x)) = phi(x) - a
            assert_close(
                ca.evaluate(pulled, pt), ca.evaluate(phi, pt) - a, rel=1e-12
            )

    def test_x1_translation_invariance(self, rng):
        # graphs transversal to x1-translations: phi = u(y1, z + x1*y1) - x1
        S = standard_structure(1)
        inv = ca.add(ca.var(2), ca.mul(ca.var(0), ca.var(1)))
        u = ca.add(
            ca.mul(ca.var(1), inv), ca.pow_(ca.var(1), 2), ca.mul(ca.const(2), inv)
        )
        phi = ca.sub(u, ca.var(0))
        for _ in range(20):
            a = rng.uniform(-1, 1)
            iso = LaTranslation(a)
            pt = [rng.uniform(0.3, 1.0) for _ in range(3)]
            moved = apply_isometry(iso, HeisenbergPoint(1, pt)).coords
            pulled = pullback_expr(phi, iso, 1)
            assert_close(
                ca.evaluate(pulled, pt), ca.evaluate(phi, pt) - a, rel=1e-12,
                abs_tol=1e-12,
            )
            assert_close(
                p_mean_curvature(S, phi, 0, moved),
                p_mean_curvature(S, phi, 0, pt),
                rel=1e-8,
            )

    @pytest.mark.parametrize("p", [0, 1])
    def test_cylinder_dilation_invariance(self, p, rng):
        C = cylinder_structure(1)
        phi = ca.parse_expr("z - (x1^2 + y1^2) - (x1^2 + y1^2)^2", C.coords)
        for _ in range(20):
            lam = rng.uniform(0.5, 1.8)
            iso = Dilation(lam)
            inv = Dilation(1.0 / lam)
            pulled = pullback_expr(phi, inv, 1)  # phi o tau_lambda^(-1)
            pt = [rng.uniform(0.4, 1.0) for _ in range(3)]
            moved = apply_isometry(iso, HeisenbergPoint(1, pt)).coords
            assert_close(
                p_mean_curvature(C, pulled, p, moved),
                p_mean_curvature(C, phi, p, pt),
                rel=1e-8,
            )

    def test_paraboloid_consistency_all_three_routes(self, rng):
        # generic cylinder engine == radial operator == closed form
        n, c = 1, 1.0
        C = cylinder_structure(n)
        r_sq = ca.parse_expr("x1^2 + y1^2", C.coords)
        phi = ca.sub(ca.mul(ca.const(c), r_sq), ca.var(2))
        u = ca.mul(ca.const(c), ca.pow_(ca.var(0), 2))
        closed = 2 * (2 * n - 1) * c / (1 + 4 * c * c) ** 0.25
        for _ in range(5):
            pt = [rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)]
            rr = pt[0] ** 2 + pt[1] ** 2
            engine = p_mean_curvature(C, phi, 0, pt + [c * rr])
            radial = curvature_at(radial_curvature_expr, u, n, (math.sqrt(rr),))
            assert_close(engine, closed, rel=1e-8)
            assert_close(radial, closed, rel=1e-8)
