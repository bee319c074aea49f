"""Lie brackets, bracket-closure rank, tangent distributions, two-forms."""

import pytest

from subcurv import brackets
from subcurv import calculus as ca
from subcurv.calculus import CoordSystem
from subcurv.core import MissingFrames, VectorFieldExpr
from subcurv.brackets import (
    bracket_generate_rank,
    lie_bracket,
    tangent_distribution_fields,
    two_form_rank,
    w_tensor_independence,
)
from subcurv.heisenberg import standard_drift, standard_structure, drift_graph_structure

from conftest import random_polynomial, random_rational_power_expr

XY = CoordSystem(("x", "y"))


def field(coords, *exprs):
    return VectorFieldExpr(coords, [ca.parse_expr(e, coords) for e in exprs])


class TestLieBracket:
    def test_frame_pair_drops_to_vertical(self):
        S = standard_structure(1)
        b = lie_bracket(S.frame_fields[0], S.frame_fields[1])
        assert b.components == (ca.ZERO, ca.ZERO, ca.const(-2))

    def test_self_bracket_vanishes(self):
        x = field(XY, "x*y", "x^2 - y")
        assert lie_bracket(x, x).components == (ca.ZERO, ca.ZERO)

    def test_scaled_coordinate_fields_commute(self):
        x = field(XY, "1", "0")
        y = field(XY, "y", "0")
        assert lie_bracket(x, y).components == (ca.ZERO, ca.ZERO)

    def test_antisymmetry(self, rng):
        for _ in range(10):
            x = VectorFieldExpr(
                XY, [random_polynomial(rng, 2, 3, 2) for _ in range(2)]
            )
            y = VectorFieldExpr(
                XY, [random_polynomial(rng, 2, 3, 2) for _ in range(2)]
            )
            xy = lie_bracket(x, y)
            yx = lie_bracket(y, x)
            pt = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            for a, b in zip(xy.at(pt), yx.at(pt)):
                assert abs(a + b) <= 1e-10

    def test_jacobi_identity(self, rng):
        cs = CoordSystem(("x", "y", "z"))
        for _ in range(5):
            fields = [
                VectorFieldExpr(
                    cs, [random_polynomial(rng, 3, 2, 2) for _ in range(3)]
                )
                for _ in range(3)
            ]
            x, y, z = fields
            cyc = [
                lie_bracket(x, lie_bracket(y, z)),
                lie_bracket(y, lie_bracket(z, x)),
                lie_bracket(z, lie_bracket(x, y)),
            ]
            pt = [rng.uniform(-0.8, 0.8) for _ in range(3)]
            total = [sum(f.at(pt)[i] for f in cyc) for i in range(3)]
            assert max(abs(t) for t in total) <= 1e-10

    def test_leibniz_rule(self, rng):
        for _ in range(5):
            x = VectorFieldExpr(XY, [random_polynomial(rng, 2, 2, 2) for _ in range(2)])
            y = VectorFieldExpr(XY, [random_polynomial(rng, 2, 2, 2) for _ in range(2)])
            f = random_polynomial(rng, 2, 3, 2)
            lhs = lie_bracket(x, y.scale(f))
            rhs = lie_bracket(x, y).scale(f) + y.scale(x.apply(f))
            pt = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)]
            for a, b in zip(lhs.at(pt), rhs.at(pt)):
                assert abs(a - b) <= 1e-10

    def test_chart_mismatch(self):
        with pytest.raises(ValueError):
            lie_bracket(field(XY, "1", "0"), field(CoordSystem(("a", "b")), "1", "0"))

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_cached_jacobian_gives_the_per_component_formula(self, rng, nvars):
        # [X,Y]^l = sum_k (X^k d_k Y^l - Y^k d_k X^l), one differentiate per entry
        cs = CoordSystem(tuple(f"c{i}" for i in range(nvars)))
        make = [random_polynomial, random_rational_power_expr]
        for trial in range(6):
            x, y = (VectorFieldExpr(cs, [make[(trial + i) % 2](rng, nvars)
                                         for i in range(nvars)]) for _ in range(2))
            expected = [
                ca.add(*[t for k in range(nvars) for t in (
                    ca.mul(x.components[k], ca.differentiate(y.components[l], k)),
                    ca.neg(ca.mul(y.components[k], ca.differentiate(x.components[l], k))),
                )])
                for l in range(nvars)
            ]
            got = lie_bracket(x, y).components
            assert all(a is b for a, b in zip(got, expected, strict=True))
            assert x.jacobian() is x.jacobian()
            assert x.jacobian() == [[ca.differentiate(c, k) for c in x.components]
                                    for k in range(nvars)]


class TestBracketGenerateRank:
    def test_rank_drops_where_a_field_degenerates(self):
        x = field(XY, "x", "0")  # degenerate at x = 0
        y = field(XY, "0", "1")
        pts = [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        assert [bracket_generate_rank([x, y], p, max_depth=2).rank for p in pts] == [2, 1, 2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_frames_reach_full_rank_at_depth_two(self, n, rng):
        S = standard_structure(n)
        pt = [rng.uniform(-1, 1) for _ in range(2 * n + 1)]
        rep = bracket_generate_rank(S.frame_fields, pt, max_depth=4)
        assert rep.rank == 2 * n + 1
        assert rep.depth == 2

    def test_words_past_the_bound_are_an_evaluation_error(self):
        # two commuting fields never reach rank 2 of 2; depth 22 would be 2^23 - 2 words
        x, y = field(XY, "1", "0"), field(XY, "2", "0")
        with pytest.raises(ca.EvaluationError) as err:
            bracket_generate_rank([x, y], (0.5, 0.25), max_depth=22)
        assert str(err.value) == (
            f"rank 1 of 2 at point (0.5, 0.25) not reached within "
            f"MAX_BRACKET_WORDS = {brackets.MAX_BRACKET_WORDS} bracket words"
        )

    def test_a_rank_reached_on_the_last_allowed_word_never_meets_the_bound(self, monkeypatch):
        # X, Y, [X, X], [X, Y]: the fourth word brings heisenberg(1) to rank 3
        S = standard_structure(1)
        monkeypatch.setattr(brackets, "MAX_BRACKET_WORDS", 4)
        rep = bracket_generate_rank(S.frame_fields, (0.1, 0.2, 0.3), max_depth=30)
        assert (rep.rank, rep.depth, rep.words_generated) == (3, 2, 4)
        monkeypatch.setattr(brackets, "MAX_BRACKET_WORDS", 3)
        with pytest.raises(ca.EvaluationError, match="rank 2 of 3 at point"):
            bracket_generate_rank(S.frame_fields, (0.1, 0.2, 0.3), max_depth=30)

    def test_single_coordinate_field(self):
        rep = bracket_generate_rank([field(XY, "1", "0")], (0.3, 0.4), max_depth=4)
        assert rep.rank == 1

    def test_constant_normal_complement_stays_rank_one(self):
        # the m = 2 failure: one constant tangent direction generates nothing
        rep = bracket_generate_rank([field(XY, "1", "0")], (1.0, 0.0), max_depth=4)
        assert rep.rank == 1 < 2

    def test_monotone_in_depth_and_fields(self, rng):
        S = standard_structure(1)
        pt = [0.2, -0.4, 0.6]
        ranks = [
            bracket_generate_rank(S.frame_fields, pt, max_depth=d).rank
            for d in (1, 2, 3)
        ]
        assert ranks == sorted(ranks)
        sub = bracket_generate_rank(S.frame_fields[:1], pt, max_depth=2).rank
        assert sub <= ranks[1]

    def test_early_stop_records_words(self):
        S = standard_structure(1)
        rep = bracket_generate_rank(S.frame_fields, (0.1, 0.2, 0.3), max_depth=4)
        assert rep.words_generated <= 2 + 4  # stops inside depth 2
        assert rep.pivot_tol > 0


    @pytest.mark.parametrize(
        "fields, target, depth_two_words",
        [
            # rank 5 after the four frames and 3 of their 16 brackets
            (standard_structure(2).frame_fields, 5, 3),
            # rank-deficient: every word of depth 2 is needed
            ([field(XY, "1", "0"), field(XY, "2", "0")], 2, 4),
        ],
    )
    def test_brackets_built_only_when_consumed(self, monkeypatch, fields, target, depth_two_words):
        built = []
        real = brackets.lie_bracket
        monkeypatch.setattr(
            brackets, "lie_bracket", lambda x, y: built.append(1) or real(x, y)
        )
        rep = bracket_generate_rank(fields, (0.3, -0.2, 0.1, 0.4, 0.5)[: len(fields[0].coords)],
                                    max_depth=2, target_rank=target)
        assert rep.depth == 2 or rep.rank < target
        assert len(built) == rep.words_generated - len(fields) == depth_two_words


class TestTangentDistribution:
    def test_flat_graph_distribution(self):
        S = standard_structure(1)
        phi = ca.neg(ca.var(2))
        fields = tangent_distribution_fields(S, phi)
        assert len(fields) == 1
        # (E_2 phi) E_1 - (E_1 phi) E_2 = x*e1 + y*e1'
        assert fields[0].at((1.0, 2.0, 0.0)) == [1.0, 2.0, 0.0]

    def test_annihilates_defining_function(self, rng):
        # symbolic zero for affine data; numeric zero (100 points) otherwise
        S = standard_structure(2)
        affine = ca.sub(ca.var(0), ca.const(1))
        for x in tangent_distribution_fields(S, affine):
            assert ca.simplify(x.apply(affine)) == ca.ZERO
        phi = ca.parse_expr("x1*y2 + x2^2 - z", S.coords)
        for x in tangent_distribution_fields(S, phi):
            applied = x.apply(phi)
            if ca.simplify(applied) == ca.ZERO:
                continue
            for _ in range(100):
                pt = [rng.uniform(-1, 1) for _ in range(5)]
                assert abs(ca.evaluate(applied, pt)) <= 1e-12

    def test_annihilation_numeric(self, rng):
        S = standard_structure(1)
        phi = ca.parse_expr("x1^3 - y1*z", S.coords)
        fields = tangent_distribution_fields(S, phi)
        for _ in range(100):
            pt = [rng.uniform(-1, 1) for _ in range(3)]
            for x in fields:
                assert abs(ca.evaluate(x.apply(phi), pt)) <= 1e-12

    def test_vertical_hyperplane_reaches_chart_rank(self, rng):
        n = 2
        S = standard_structure(n)
        phi = ca.sub(ca.var(0), ca.const(0.3))
        fields = tangent_distribution_fields(S, phi)
        assert len(fields) == 2 * n * (2 * n - 1) // 2
        pt = [0.3] + [rng.uniform(-1, 1) for _ in range(2 * n)]
        rep = bracket_generate_rank(fields, pt, max_depth=4, target_rank=2 * n)
        assert rep.rank == 2 * n
        assert rep.depth == 2

    def test_missing_frames(self):
        from subcurv.core import SubriemannianStructure

        coords = CoordSystem(("a", "b"))
        S = SubriemannianStructure(
            coords, [[ca.ONE, ca.ZERO], [ca.ZERO, ca.ONE]], ca.ONE
        )
        with pytest.raises(MissingFrames):
            tangent_distribution_fields(S, ca.var(0))


def drift_two_form(m):
    F = standard_drift(m)
    cs = CoordSystem(tuple(f"x{j+1}" for j in range(m)))
    return [
        [
            ca.simplify(ca.sub(ca.differentiate(F[j], k), ca.differentiate(F[k], j)))
            for j in range(m)
        ]
        for k in range(m)
    ]


class TestTwoFormRank:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_drift_rank(self, n):
        M = drift_two_form(2 * n)
        pt = [0.1 * (i + 1) for i in range(2 * n)]
        assert two_form_rank(M, pt) == 2 * n

    def test_zero_drift(self):
        M = [[ca.ZERO, ca.ZERO], [ca.ZERO, ca.ZERO]]
        assert two_form_rank(M, (0.2, 0.4)) == 0

    def test_rank_two_fails_generation_threshold(self):
        assert two_form_rank(drift_two_form(2), (1.0, 1.0)) == 2 < 3

    def test_non_skew_rejected(self):
        M = [[ca.ONE, ca.ZERO], [ca.ZERO, ca.ZERO]]
        with pytest.raises(ValueError, match="skew"):
            two_form_rank(M, (0.0, 0.0))

    def test_restriction_basis(self):
        S = standard_structure(1)
        theta = S.null_coform
        M = [
            [
                ca.simplify(
                    ca.sub(
                        ca.differentiate(theta[j], k), ca.differentiate(theta[k], j)
                    )
                )
                for j in range(3)
            ]
            for k in range(3)
        ]
        pt = (0.3, -0.2, 0.5)
        assert two_form_rank(M, pt, restriction_basis=S.frame_fields) == 2


class TestWTensor:
    def test_contact_pair(self):
        S = standard_structure(1)
        T = VectorFieldExpr(S.coords, [ca.ZERO, ca.ZERO, ca.ONE])
        ok, details = w_tensor_independence(
            list(S.frame_fields), [S.null_coform], [T], (0.5, -0.3, 0.2)
        )
        assert ok
        assert details["w_matrix"] == [[-2.0]]
        assert details["dual_pairing_ok"]

    def test_vacuous_without_null_coforms(self):
        S = standard_structure(1)
        ok, details = w_tensor_independence(
            list(S.frame_fields), [], [], (0.1, 0.1, 0.1)
        )
        assert ok and details["rank"] == 0

    def test_duplicated_coforms_are_dependent(self):
        S = standard_structure(1)
        T = VectorFieldExpr(S.coords, [ca.ZERO, ca.ZERO, ca.ONE])
        ok, details = w_tensor_independence(
            list(S.frame_fields),
            [S.null_coform, S.null_coform],
            [T, T],
            (0.5, -0.3, 0.2),
        )
        assert not ok
        assert details["rank"] == 1
        assert not details["dual_pairing_ok"]


class TestGenerationCriterion:
    """Two-form rank >= 3 forces bracket generation on concrete charts."""

    def test_vertical_hyperplane_case(self, rng):
        n = 2
        S = standard_structure(n)
        theta = S.null_coform
        dim = S.dim
        M = [
            [
                ca.simplify(
                    ca.sub(
                        ca.differentiate(theta[j], k), ca.differentiate(theta[k], j)
                    )
                )
                for j in range(dim)
            ]
            for k in range(dim)
        ]
        phi = ca.sub(ca.var(0), ca.const(0.3))
        fields = tangent_distribution_fields(S, phi)
        for _ in range(3):
            pt = [0.3] + [rng.uniform(-0.8, 0.8) for _ in range(dim - 1)]
            tf = two_form_rank(M, pt, restriction_basis=S.frame_fields)
            assert tf >= 3
            rep = bracket_generate_rank(fields, pt, 2, target_rank=dim - 1)
            assert rep.rank == dim - 1

    def test_pairwise_condition_on_tangent_basis(self, rng):
        # some pair of tangent fields pairs nontrivially under the drift
        # two-form: the restricted matrix has rank >= 2 at generic points
        m = 4
        F = standard_drift(m)
        S = drift_graph_structure(F, m)
        M_chart = drift_two_form(m)
        M = [
            [
                M_chart[k][j] if k < m and j < m else ca.ZERO
                for j in range(m + 1)
            ]
            for k in range(m + 1)
        ]
        u = random_polynomial(rng, m, 3, 2)
        phi = ca.sub(u, ca.var(m))
        fields = tangent_distribution_fields(S, phi)
        hits = 0
        for _ in range(6):
            x = [rng.uniform(0.5, 1.5) for _ in range(m)]
            pt = x + [ca.evaluate(u, x)]
            from subcurv.core import conorm

            if conorm(S, phi, pt) < 1e-3:
                continue
            restricted = two_form_rank(M, pt, restriction_basis=fields)
            assert restricted >= 2
            hits += 1
        assert hits >= 3

    def test_cylinder_case(self, rng):
        # the rescaled contact coform: its exterior derivative restricted to
        # the horizontal frames keeps rank 2n >= 3 for n = 2, and the
        # tangent closure of a graph reaches the hypersurface dimension
        from subcurv.heisenberg import cylinder_structure

        n = 2
        C = cylinder_structure(n)
        theta = C.null_coform
        dim = C.dim
        M = [
            [
                ca.simplify(
                    ca.sub(
                        ca.differentiate(theta[j], k), ca.differentiate(theta[k], j)
                    )
                )
                for j in range(dim)
            ]
            for k in range(dim)
        ]
        r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
        phi = ca.sub(ca.mul(ca.const(0.5), r_sq), ca.var(2 * n))
        fields = tangent_distribution_fields(C, phi)
        for _ in range(2):
            x = [rng.uniform(0.4, 0.8) for _ in range(2 * n)]
            rr = sum(v * v for v in x)
            pt = x + [0.5 * rr]
            tf = two_form_rank(M, pt, restriction_basis=C.frame_fields)
            assert tf == 2 * n >= 3
            rep = bracket_generate_rank(fields, pt, 2, target_rank=2 * n)
            assert rep.rank == 2 * n

    def test_graph_chart_case(self, rng):
        m = 4
        F = standard_drift(m)
        S = drift_graph_structure(F, m)
        theta = S.null_coform
        dim = S.dim
        M = [
            [
                ca.simplify(
                    ca.sub(
                        ca.differentiate(theta[j], k), ca.differentiate(theta[k], j)
                    )
                )
                for j in range(dim)
            ]
            for k in range(dim)
        ]
        u = random_polynomial(rng, m, 3, 2)
        phi = ca.sub(u, ca.var(m))
        fields = tangent_distribution_fields(S, phi)
        found = 0
        for _ in range(6):
            x = [rng.uniform(0.5, 1.5) for _ in range(m)]
            pt = x + [ca.evaluate(u, x)]
            from subcurv.core import conorm

            if conorm(S, phi, pt) < 1e-3:
                continue
            tf = two_form_rank(M, pt, restriction_basis=S.frame_fields)
            assert tf >= 3
            rep = bracket_generate_rank(fields, pt, 2, target_rank=m)
            assert rep.rank == m
            found += 1
        assert found >= 3
