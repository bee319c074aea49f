"""Expression engine: grammar, differentiation, evaluation, compilation."""

import gc
import hashlib
import math
import random
import re
import struct
import uuid
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcurv import calculus as ca
from subcurv import smp
from subcurv.calculus import (
    CoordSystem,
    DivisionByZero,
    EvaluationError,
    NonSmoothPoint,
    ParseError,
    compile_expr,
    differentiate,
    evaluate,
    free_vars,
    parse_expr,
    simplify,
    substitute,
    unparse,
)
from subcurv.cli import _Value, dumps_report, write_scenario_csv
from subcurv.core import compile_sweep

from conftest import (
    assert_close,
    central_difference,
    random_polynomial,
    random_rational_power_expr,
)
from test_cli import GOLDEN

XZ = CoordSystem(("x1", "z"))
HEIS = CoordSystem(("x1", "y1", "z"))


class TestParser:
    def test_sum_of_squares(self):
        e = parse_expr("x1^2 + 4*z^2", XZ)
        expected = ca.add(ca.pow_(ca.var(0), 2), ca.mul(4, ca.pow_(ca.var(1), 2)))
        assert e == expected

    def test_zero(self):
        assert parse_expr("0", XZ) == ca.ZERO

    def test_distance_gauge_structure(self):
        e = parse_expr("((x1^2+y1^2)^2 + 4*z^2)^(1/4)", HEIS)
        assert isinstance(e, ca.Pow)
        assert e.exponent == Fraction(1, 4)

    def test_rational_literal_folds(self):
        e = parse_expr("3/4", XZ)
        assert e == ca.const(Fraction(3, 4))

    def test_decimal_is_exact(self):
        e = parse_expr("0.125", XZ)
        assert e == ca.const(Fraction(1, 8))

    def test_precedence_power_beats_unary_minus(self):
        e = parse_expr("-x1^2", XZ)
        assert evaluate(e, (3.0, 0.0)) == -9.0

    def test_power_right_associative(self):
        assert evaluate(parse_expr("2^3^2", XZ), (0.0, 0.0)) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse_expr("x1^-2", XZ), (2.0, 0.0)) == 0.25

    def test_sqrt_sugar(self):
        e = parse_expr("sqrt(x1^2+1)", XZ)
        assert e == ca.pow_(parse_expr("x1^2+1", XZ), Fraction(1, 2))

    def test_exponent_folding(self):
        e = parse_expr("x1^(1/2 + 1/2)", XZ)
        assert e == ca.var(0)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + * 2", XZ)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("x1 + q", XZ)

    def test_non_rational_exponent(self):
        with pytest.raises(ParseError, match="rational"):
            parse_expr("x1^z", XZ)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x1 )", XZ)

    @pytest.mark.parametrize(
        "src",
        [
            "(" * 300 + "x1" + ")" * 300,
            "sqrt(" * 300 + "x1" + ")" * 300,
            "-" * 1200 + "x1",
            "x1" + "^1" * 300,
        ],
        ids=["parentheses", "sqrt", "unary-minus", "exponents"],
    )
    def test_nesting_bound(self, src):
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_expr(src, XZ)
        assert 0 < info.value.offset < len(src)

    def test_nesting_bound_offset_and_limit(self):
        with pytest.raises(ParseError) as info:
            parse_expr("(" * 300 + "x1" + ")" * 300, XZ)
        assert info.value.offset == 100  # the 101st parenthesis
        assert parse_expr("(" * 100 + "x1" + ")" * 100, XZ) == ca.var(0)

    def test_literal_bounds(self):
        # an exact 1e5000000 took seconds to build before overflowing
        with pytest.raises(ParseError, match="exponent beyond") as info:
            parse_expr("x1 + 1e5000000", XZ)
        assert info.value.offset == 5
        with pytest.raises(ParseError, match="longer than") as info:
            parse_expr("2*" + "7" * 500, XZ)
        assert info.value.offset == 2
        assert parse_expr("1e-400", XZ) == ca.const(Fraction(1, 10 ** 400))

    # the last two: a quotient that fits, of a divisor whose reciprocal does not
    @pytest.mark.parametrize("src", ["2^100000", "1e300*1e300", "10^1000000", "9^9^9",
                                     "1e-300/1e-400", "2/(0.5^4096)"])
    def test_constant_overflow_is_parse_error(self, src):
        with pytest.raises(ParseError, match="outside the float range"):
            parse_expr(src, XZ)

    def test_scientific_notation(self):
        assert evaluate(parse_expr("1e-3 + x1", XZ), (0.0, 0.0)) == 1e-3


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(parse_expr("x1^2", XZ), 0) == parse_expr("2*x1", XZ)

    def test_independent_variable(self):
        assert differentiate(parse_expr("x1^2", XZ), 1) == ca.ZERO

    def test_distance_gauge_derivative(self, rng):
        rho = parse_expr("((x1^2+y1^2)^2 + 4*z^2)^(1/4)", HEIS)
        d = differentiate(rho, 0)
        hand = parse_expr("x1*(x1^2+y1^2)*((x1^2+y1^2)^2+4*z^2)^(-3/4)", HEIS)
        fn = compile_expr(rho, 3)
        for _ in range(5):
            pt = [rng.uniform(0.3, 1.2) for _ in range(3)]
            sym = evaluate(d, pt)
            assert_close(sym, evaluate(hand, pt), rel=1e-12)
            assert_close(sym, central_difference(fn, pt, 0), rel=1e-6)

    def test_linearity(self, rng):
        for _ in range(20):
            e1 = random_polynomial(rng, 3)
            e2 = random_polynomial(rng, 3)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            combo = ca.add(ca.mul(ca.const(a), e1), e2)
            d_combo = differentiate(combo, 0)
            d_split = ca.add(
                ca.mul(ca.const(a), differentiate(e1, 0)), differentiate(e2, 0)
            )
            pt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            assert_close(evaluate(d_combo, pt), evaluate(d_split, pt), rel=1e-12,
                         abs_tol=1e-12)

    def test_fractional_power_formed_symbolically(self):
        # no error at differentiation time, only at evaluation
        e = parse_expr("x1^(1/2)", XZ)
        d = differentiate(e, 0)
        with pytest.raises(NonSmoothPoint):
            evaluate(d, (-1.0, 0.0))


class TestEvaluate:
    def test_gauge_at_unit_points(self):
        rho = parse_expr("((x1^2+y1^2)^2 + 4*z^2)^(1/4)", HEIS)
        assert_close(evaluate(rho, (1.0, 0.0, 1.0)), 5 ** 0.25, rel=1e-15)
        assert evaluate(rho, (1.0, 0.0, 0.0)) == 1.0

    def test_non_smooth_point(self):
        with pytest.raises(NonSmoothPoint):
            evaluate(parse_expr("x1^(1/2)", XZ), (-1.0, 0.0))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse_expr("x1^(-2)", XZ), (0.0, 0.0))

    def test_compiled_matches_tree_eval(self, rng):
        for _ in range(25):
            e = random_rational_power_expr(rng, 3)
            fn = compile_expr(e, 3)
            pt = [rng.uniform(0.2, 1.4) for _ in range(3)]
            assert fn(pt) == evaluate(e, pt)

    def test_compiled_negative_constant_base(self):
        # a hand-built power of a negative constant: -2.0 ** 2 would be -4
        e = ca.Pow(ca.const(-2), Fraction(2))
        assert compile_expr(e, 1)((0.0,)) == evaluate(e, (0.0,)) == 4.0

    def test_compiled_error_behaviour(self):
        fn = compile_expr(parse_expr("x1^(-2)", XZ), 2)
        with pytest.raises(DivisionByZero):
            fn((0.0, 0.0))
        fn2 = compile_expr(parse_expr("x1^(1/2)", XZ), 2)
        with pytest.raises(NonSmoothPoint):
            fn2((-3.0, 0.0))


class TestRoundTrip:
    def test_fixed_point_on_corpus(self):
        corpus = [
            "x1^2 + 4*z^2",
            "0",
            "((x1^2+y1^2)^2 + 4*z^2)^(1/4)",
            "-x1^2 + 3/4*z",
            "x1*z - z^2 + 1/3",
            "sqrt(1 + x1^2)",
            "x1^(-3/4)",
        ]
        coords = HEIS
        for src in corpus:
            e1 = parse_expr(src, coords)
            s1 = unparse(e1, coords)
            e2 = parse_expr(s1, coords)
            assert e1 == e2, f"round-trip changed {src!r} -> {s1!r}"
            assert unparse(e2, coords) == s1

    def test_random_round_trip(self, rng):
        for _ in range(50):
            e = random_rational_power_expr(rng, 3)
            s = unparse(e, HEIS)
            assert parse_expr(s, HEIS) == e

    def test_float_constants_round_trip_exactly(self):
        e = ca.mul(ca.const(0.1), ca.var(0))
        s = unparse(e, XZ)
        e2 = parse_expr(s, XZ)
        assert e2 == e
        assert evaluate(e2, (1.0, 0.0)) == 0.1


class TestFiniteDifferenceOracle:
    def test_random_polynomials(self, rng):
        for _ in range(40):
            e = random_polynomial(rng, 3)
            fn = compile_expr(e, 3)
            i = rng.randrange(3)
            d = compile_expr(differentiate(e, i), 3)
            pt = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            sym = d(pt)
            fd = central_difference(fn, pt, i)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


@st.composite
def poly_exprs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_polynomial(rng, 2, max_terms=4, max_degree=3)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(poly_exprs())
    def test_parse_unparse_fixed_point(self, e):
        s = unparse(e, XZ)
        assert parse_expr(s, XZ) == e

    @settings(max_examples=60, deadline=None)
    @given(poly_exprs(), st.integers(0, 1),
           st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    def test_derivative_matches_finite_differences(self, e, i, x, z):
        fn = compile_expr(e, 2)
        sym = compile_expr(differentiate(e, i), 2)((x, z))
        fd = central_difference(fn, (x, z), i)
        assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym), abs(fd))

    def test_simplify_idempotent(self, rng):
        for _ in range(30):
            e = random_rational_power_expr(rng, 2)
            s = simplify(e)
            assert simplify(s) == s

    def test_cancellation_to_zero(self):
        e = parse_expr("x1*z - z*x1", XZ)
        assert e == ca.ZERO
        f = parse_expr("(x1+z)^2 - (x1+z)^2", XZ)
        assert f == ca.ZERO

    @pytest.mark.parametrize("src, canonical", [
        ("x1 * sqrt(x1*z) * sqrt(x1*z)", "x1^2*z"),
        ("3 * x1 * (2*x1*z)^(1/3) * (2*x1*z)^(2/3)", "6*x1^2*z"),
        ("z^(-1) * sqrt(x1*z) * sqrt(x1*z)", "x1"),
    ])
    def test_product_base_raised_to_one_merges_with_the_other_factors(self, src, canonical):
        # the product comes back from the merged power; its factors must merge too
        e = parse_expr(src, XZ)
        assert e is parse_expr(canonical, XZ)
        assert simplify(e) is e
        assert ca.sub(e, parse_expr(canonical, XZ)) is ca.ZERO


class TestSubstitute:
    def test_variable_remap(self):
        e = parse_expr("x1^2 + z", XZ)
        swapped = substitute(e, {0: ca.var(1), 1: ca.var(0)})
        assert swapped == parse_expr("z^2 + x1", XZ)

    def test_composition(self):
        e = parse_expr("x1^2", XZ)
        composed = substitute(e, {0: parse_expr("x1 + z", XZ)})
        assert evaluate(composed, (2.0, 3.0)) == 25.0

    def test_sequence_gives_each_result_and_rebuilds_a_shared_subtree_once(self, monkeypatch):
        shared = parse_expr("x1^2 + z", XZ)
        exprs = [ca.pow_(shared, Fraction(1, 2)), ca.mul(ca.var(1), shared), ca.ONE]
        mapping = {0: parse_expr("x1 + z", XZ)}
        rebuilt = substitute(shared, mapping)
        built = []

        def counting_add(*terms):
            built.append(add(*terms))
            return built[-1]

        add = ca.add
        monkeypatch.setattr(ca, "add", counting_add)
        together = substitute(exprs, mapping)
        assert sum(e is rebuilt for e in built) == 1
        built.clear()
        apart = [substitute(e, mapping) for e in exprs]
        assert sum(e is rebuilt for e in built) == 2
        assert len(together) == 3 and all(a is b for a, b in zip(together, apart))


# Random trees from the smart constructors, over two coordinates.
_EXPONENTS = [Fraction(q) for q in ("-2", "-1", "2", "3", "1/2", "-3/2", "1/3")]

expr_trees = st.recursive(
    st.one_of(
        st.integers(0, 1).map(ca.var),
        st.fractions(-4, 4, max_denominator=6).map(ca.const),
    ),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: ca.add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: ca.mul(*xs)),
        st.tuples(kids, st.sampled_from(_EXPONENTS)).map(lambda t: ca.pow_(*t)),
        kids.map(ca.neg),
    ),
    max_leaves=12,
)


def _outcome(fn, *args):
    """Bit pattern of the float result, or the type and message of the
    error raised."""
    try:
        return struct.pack("<d", fn(*args))
    except (EvaluationError, OverflowError) as exc:
        return type(exc), str(exc)


def _distinct_operators(e) -> set:
    """Structurally distinct non-leaf nodes (a recursive reference walk)."""
    out = set()

    def walk(node):
        if isinstance(node, (ca.Add, ca.Mul)):
            out.add(node)
            for c in node.children:
                walk(c)
        elif isinstance(node, ca.Pow):
            out.add(node)
            walk(node.base)

    walk(e)
    return out


@st.composite
def canonical_exprs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    make = draw(st.sampled_from((random_polynomial, random_rational_power_expr)))
    return make(rng, 3)


# Reference smart constructors, written the long way: an `order` list beside
# each dict and a `take` closure per operand.  The property below checks
# that `add` and `mul` build the same trees.


def _reference_split_coeff(t):
    if isinstance(t, ca.Mul):
        first = t.children[0]
        if isinstance(first, ca.Const):
            rest = t.children[1:]
            core = rest[0] if len(rest) == 1 else ca.Mul(rest)
            return first.value, core
    return Fraction(1), t


def reference_add(*terms):
    acc = Fraction(0)
    coeffs: dict = {}
    order: list = []

    def take(t):
        nonlocal acc
        if isinstance(t, ca.Const):
            acc += t.value
            return
        c, core = _reference_split_coeff(t)
        if core in coeffs:
            coeffs[core] += c
        else:
            coeffs[core] = c
            order.append(core)

    for t in terms:
        t = ca._coerce(t)
        if isinstance(t, ca.Add):
            for c in t.children:
                take(c)
        else:
            take(t)

    flat = []
    for core in order:
        c = coeffs[core]
        if c == 0:
            continue
        if c == 1:
            flat.append(core)
        elif isinstance(core, ca.Mul):
            flat.append(ca.Mul(ca._sorted_children(core.children + (ca.Const(c),))))
        else:
            flat.append(ca.Mul(ca._sorted_children((ca.Const(c), core))))
    if acc != 0:
        flat.append(ca.Const(acc))
    if not flat:
        return ca.ZERO
    if len(flat) == 1:
        return flat[0]
    return ca.Add(ca._sorted_children(flat))


def reference_mul(*factors):
    acc = Fraction(1)
    powers: dict = {}
    order: list = []

    def take(f):
        nonlocal acc
        if isinstance(f, ca.Const):
            acc *= f.value
            return
        if isinstance(f, ca.Pow):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, Fraction(1)
        if base in powers:
            powers[base] += exp
        else:
            powers[base] = exp
            order.append(base)

    for f in factors:
        f = ca._coerce(f)
        if isinstance(f, ca.Mul):
            for c in f.children:
                take(c)
        else:
            take(f)

    if acc == 0:
        return ca.ZERO
    flat, products = [], []
    for base in order:
        rebuilt = ca.pow_(base, powers[base])
        if isinstance(rebuilt, ca.Const):
            acc *= rebuilt.value
        elif isinstance(rebuilt, ca.Mul):
            products.append(rebuilt)
        else:
            flat.append(rebuilt)
    if products:
        return reference_mul(ca.Const(acc), *flat, *products)
    if acc == 0:
        return ca.ZERO
    if len(flat) == 1 and isinstance(flat[0], ca.Add) and acc != 1:
        return reference_add(*[reference_mul(ca.Const(acc), t) for t in flat[0].children])
    if acc != 1:
        flat.append(ca.Const(acc))
    if not flat:
        return ca.ONE
    if len(flat) == 1:
        return flat[0]
    return ca.Mul(ca._sorted_children(flat))


def reference_const(value):
    """(value, float) of the constant ``value``, computed through one Fraction
    of its integer ratio and ``float()`` of that Fraction."""
    if isinstance(value, float):
        n, d = value.as_integer_ratio()
    elif isinstance(value, int):
        n, d = value, 1
    else:
        n, d = value.numerator, value.denominator
    q = Fraction(n, d)
    return q, float(q)


def reference_pow(base, exponent):
    base = ca._coerce(base)
    if isinstance(exponent, (int, float)):
        exponent = Fraction(exponent)
    if exponent == 0:
        return ca.ONE
    if exponent == 1:
        return base
    if isinstance(base, ca.Const):
        if exponent.denominator == 1 and (base.value != 0 or exponent > 0):
            b = base.value
            log2 = (max(abs(b.numerator), b.denominator) - 1).bit_length()
            if log2 * abs(exponent.numerator) > ca._MAX_CONST_BITS:
                raise OverflowError(f"constant power {b}^{exponent} too large")
            return ca.Const(b ** exponent.numerator)
        if base.value == 1:
            return ca.ONE
    return ca.Pow(base, exponent)


def _reference_literal(text):
    """A number token, or a quotient of two, built the long way: one
    ``Const(Fraction(token))`` per number."""
    num, _, den = text.partition("/")
    node = ca.Const(Fraction(num))
    return reference_mul(node, reference_pow(ca.Const(Fraction(den)), -1)) if den else node


# Operands: int, Fraction and float numbers and zero, variables, powers with
# rational exponents (of constant bases too: 0^(1/2), 2^(1/2), and of a
# product, which comes back as that product when its exponents sum to 1),
# and sums and products of those.
_ROOT_2XY = ca.sqrt_(ca.mul(2, ca.var(0), ca.var(1)))
_OPERAND_LEAVES = st.sampled_from([
    0, 1, -2, Fraction(3, 4), Fraction(-1, 3), 0.5, -0.0, 2.25,
    ca.ZERO, ca.var(0), ca.var(1), ca.sqrt_(0), ca.sqrt_(2), ca.pow_(2, Fraction(-1, 3)),
    ca.pow_(ca.var(1), Fraction(1, 2)), _ROOT_2XY,
])
operands = st.recursive(
    _OPERAND_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: ca.add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: ca.mul(*xs)),
        st.tuples(kids, st.sampled_from(_EXPONENTS)).map(lambda t: ca.pow_(*t)),
    ),
    max_leaves=6,
)


@st.composite
def operand_lists(draw):
    """Operands drawn from a small pool, so that cores and bases repeat,
    each as it is, scaled (by -1 it cancels), negated or raised to a power."""
    pool = draw(st.lists(st.one_of(_OPERAND_LEAVES, operands), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(["as-is", "as-is", "scaled", "negated", "power"]))
        if how == "scaled":
            t = ca.mul(draw(st.sampled_from([-1, 2, Fraction(1, 2), -0.5])), t)
        elif how == "negated":
            t = ca.neg(t)
        elif how == "power":
            t = ca.pow_(t, draw(st.sampled_from(_EXPONENTS)))
        out.append(t)
    return out


class TestSmartConstructors:
    @settings(max_examples=150, deadline=None)
    @given(operand_lists())
    @example([_ROOT_2XY, ca.var(0), 3, _ROOT_2XY])  # 2*x*y comes back and merges with x
    @example([ca.var(0), ca.sqrt_(0), ca.sqrt_(0)])  # merged powers of zero
    @example([ca.var(1), ca.mul(-1, ca.var(1)), Fraction(1, 2), 0.5, -1])  # all cancels
    @example([])
    def test_add_and_mul_build_the_reference_trees(self, ts):
        assert ca.add(*ts) is reference_add(*ts)
        assert ca.mul(*ts) is reference_mul(*ts)

    def test_merged_zero_powers_make_the_product_zero(self):
        # past the first zero check, the merged powers 0^(1/2) * 0^(1/2)
        # fold to the constant 0 and must still give the canonical zero
        x = ca.var(0)
        assert ca.mul(x, ca.sqrt_(ca.ZERO), ca.sqrt_(ca.ZERO)) is ca.ZERO
        third = ca.pow_(ca.ZERO, Fraction(1, 3))
        assert ca.mul(x, third, third, third) is ca.ZERO


def _built(fn, *args):
    """The node built, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestConstantsAgainstFractions:
    # the constructors keep integers as integers; these check that the
    # nodes, their Fraction values and their float bits are the ones the
    # Fraction-only references give
    @pytest.mark.parametrize(
        "value",
        [7, -3, 0, True, 2 ** 80 + 1, -(10 ** 300), Fraction(-5, 12), Fraction(10 ** 30, 7),
         Fraction(4, 2), 0.1, -2.5e-300, 1e300, 5e-324, -0.0],
        ids=["int", "negative-int", "zero", "bool", "huge-int", "huge-negative-int",
             "fraction", "huge-fraction", "integral-fraction", "float", "tiny-float",
             "huge-float", "subnormal", "negative-zero"],
    )
    def test_const_is_the_reference_node(self, value):
        node = ca.Const(value)
        q, f = reference_const(value)
        assert type(node.value) is Fraction and node.value == q
        assert node is ca.Const(q)
        assert struct.pack("<d", node._float) == struct.pack("<d", f)

    def test_const_outside_the_float_range_raises_as_the_reference(self):
        expected = _built(reference_const, 10 ** 400)
        assert expected[0] is OverflowError
        assert _built(ca.Const, 10 ** 400) == expected
        assert _built(ca.Const, Fraction(10 ** 400, 3)) == _built(reference_const, Fraction(10 ** 400, 3))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_OPERAND_LEAVES, operands),
           st.sampled_from(_EXPONENTS + [Fraction(0), Fraction(1), Fraction(4, 2), 0, 1, -3, 0.5]))
    @example(3, Fraction(5000))  # folds past the bit bound: the same OverflowError
    @example(Fraction(1, 3), -2)
    @example(ca.ONE, Fraction(1, 2))
    @example(ca.ZERO, -1)
    def test_pow_builds_the_reference_node(self, base, exponent):
        assert _built(ca.pow_, base, exponent) == _built(reference_pow, base, exponent)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_OPERAND_LEAVES, operands), st.one_of(_OPERAND_LEAVES, operands))
    @example(ca.Const(Fraction(-3, 4)), ca.Const(Fraction(9, 2)))  # a constant quotient
    @example(ca.ZERO, ca.Const(7))
    @example(ca.ONE, ca.ZERO)  # 1/0 stays a power for evaluation to refuse
    # past the bit bound: the divisor's exact reciprocal is refused
    @example(ca.ONE, ca.Const(Fraction(2 ** 5000 + 1, 2 ** 5000)))
    # the quotient 1e100 fits a float, but the reciprocal 1e400 does not
    @example(ca.Const(Fraction(1, 10 ** 300)), ca.Const(Fraction(1, 10 ** 400)))
    def test_div_builds_the_reference_node(self, a, b):
        expected = _built(lambda a, b: reference_mul(a, reference_pow(b, -1)), a, b)
        assert _built(ca.div, a, b) == expected

    @pytest.mark.parametrize(
        "text", ["7", "007", "123456789012345678901234567890", "0.5", ".5e-3", "3/7", "1/0",
                 "1e-400", "2.50E+2", "0/5"])
    def test_every_literal_form_parses_to_the_reference_node(self, text):
        assert parse_expr(text, XZ) is _reference_literal(text)


class TestInterning:
    @settings(max_examples=100, deadline=None)
    @given(canonical_exprs())
    def test_rebuilding_a_canonical_tree_returns_the_same_node(self, e):
        assert parse_expr(unparse(e, HEIS), HEIS) is e
        assert simplify(e) is e
        assert substitute(e, {}) is e

    def test_equal_payloads_are_one_node(self):
        assert ca.const(0.5) is ca.const(Fraction(1, 2)) is parse_expr("1/2", XZ)
        assert ca.const(2) is ca.const(2.0) and ca.const(-0.0) is ca.ZERO
        assert ca.Add((ca.ONE, ca.var(0))) is ca.add(ca.var(0), 1)

    def test_dead_nodes_leave_the_table(self):
        # long-lived workers build many trees; the table must not keep them
        gc.collect()
        before = len(ca._NODES)
        e = ca.add(*[ca.pow_(ca.add(ca.var(0), k), k) for k in range(2, 5002)])
        assert len(ca._NODES) >= before + 10_000
        del e
        assert len(ca._NODES) <= before + 3


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(expr_trees, st.floats(-3, 3), st.floats(-3, 3))
    @example(ca.pow_(ca.var(0), -3), -0.0, 1.0)  # both raise DivisionByZero
    @example(ca.sqrt_(ca.var(1)), 1.0, -2.0)  # both raise NonSmoothPoint
    def test_compiled_kernel_is_bitwise_evaluate(self, e, x, z):
        # a value matches bit for bit, an error by type and message
        pt = (x, z)
        assert _outcome(compile_expr(e, 2), pt) == _outcome(evaluate, e, pt)

    @settings(max_examples=300, deadline=None)
    @given(expr_trees)
    def test_simplify_idempotent_and_empty_substitute(self, e):
        s = simplify(e)
        assert simplify(s) == s
        assert substitute(e, {}) == s

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                                   Fraction(-3, 2), Fraction(1, 3), Fraction(7, 2)])
    def test_fractional_powers_of_every_base_are_evaluate(self, q):
        # inline for a positive base, _frac_pow for every other one (NaN too)
        e = ca.pow_(ca.var(0), q)
        kernel = compile_expr(e, 1)
        hs = compile_sweep(e, ca.ONE, 1, 0.0)  # H, or None where it has no finite value
        for base in (-1.0, -0.0, 0.0, 5e-324, math.nan, math.inf, 1e308):
            expected = _outcome(evaluate, e, (base,))
            assert _outcome(kernel, (base,)) == expected, base
            h = hs([(base,)])[1][0]
            finite = isinstance(expected, bytes) and math.isfinite(struct.unpack("<d", expected)[0])
            assert (struct.pack("<d", h) if finite else h) == (expected if finite else None), base

    def test_kernel_is_the_generated_function(self):
        # no wrapper frame between the caller and the generated code
        e = ca.add(ca.pow_(ca.var(0), -2), ca.sqrt_(ca.var(1)))
        f = compile_expr(e, 2)
        assert re.fullmatch(r"<kernel-\d+>", f.__code__.co_filename)
        assert "_zero_pow(-2)" in f.source and "_frac_pow(" in f.source

    def test_kernel_emits_each_distinct_subtree_once(self):
        def branch():
            return ca.sqrt_(ca.add(ca.mul(ca.var(0), ca.var(1)), ca.ONE))

        a, b = branch(), branch()
        assert a is b
        e = ca.add(ca.mul(a, ca.var(0)), ca.mul(b, ca.var(1)))
        src = compile_expr(e, 2).source
        assigned = re.findall(r"^    t\d+ = ", src, flags=re.M)
        assert len(assigned) == len(_distinct_operators(e)) == 6

    def test_deep_tree_every_walker(self):
        # 3000 nested powers: far past the interpreter's recursion limit
        e = ca.var(0)
        for _ in range(3000):
            e = ca.pow_(ca.add(e, ca.ONE), -1)
        pt = (1.0, 2.0)
        assert compile_expr(e, 2)(pt) == evaluate(e, pt)
        assert compile_expr([e, e], 2)(pt) == [evaluate(e, pt)] * 2
        assert free_vars(e) == {0}
        assert differentiate(e, 1) == ca.ZERO
        assert simplify(e) == e
        moved = substitute(e, {0: ca.var(1)})
        assert free_vars(moved) == {1}
        assert evaluate(moved, (2.0, 1.0)) == evaluate(e, pt)
        # ordering two deep trees that differ only at the bottom
        assert moved != e and ca.add(moved, e) == ca.add(e, moved)
        text = unparse(e, XZ)
        assert text == "(1 + " * 3000 + "x1" + ")^(-1)" * 3000

    @settings(max_examples=300, deadline=None)
    @given(expr_trees)
    def test_smart_constructor_trees_are_fixed_points(self, e):
        # VectorFieldExpr stores components without simplifying them
        assert simplify(e) == e

    @settings(max_examples=300, deadline=None)
    @given(st.lists(expr_trees, min_size=1, max_size=4), st.floats(-3, 3), st.floats(-3, 3))
    def test_vector_kernel_is_bitwise_per_component(self, exprs, x, z):
        pt = (x, z)
        singles = [compile_expr(e, 2) for e in exprs]
        vector = compile_expr(exprs, 2)
        expected = [_outcome(f, pt) for f in singles]
        errors = [o for o in expected if isinstance(o, tuple)]
        if errors:
            # the first failing component raises first
            assert _outcome(lambda p: vector(p)[0], pt) == errors[0]
        else:
            assert [struct.pack("<d", v) for v in vector(pt)] == expected
        if len(exprs) == 1:
            # one expression: the same emitter, the same body
            body = vector.source.rsplit("    return ", 1)[0]
            assert singles[0].source.rsplit("    return ", 1)[0] == body


class TestCompileMemo:
    """``compile_source`` compiles each distinct text once, but every call
    gets a function of its own: a fresh ``<kind-N>`` filename and scope."""

    @staticmethod
    def counting(monkeypatch) -> list:
        """The texts ``compile`` is called on inside ``calculus`` from now on."""
        calls = []

        def counter(src, *args, **kwargs):
            calls.append(src)
            return compile(src, *args, **kwargs)

        monkeypatch.setattr(ca, "compile", counter, raising=False)
        return calls

    @staticmethod
    def fresh_source() -> str:
        """A text no earlier call in this process has compiled."""
        return f"def g():\n    return c, {uuid.uuid4().hex!r}\n"

    def test_one_text_compiled_twice_gives_two_functions(self, monkeypatch):
        calls = self.counting(monkeypatch)
        src = self.fresh_source()
        f, g = ca.compile_source(src, "g", "kernel", c=1), ca.compile_source(src, "g", "kernel", c=2)
        assert calls == [src] and f is not g and f.source == g.source == src
        assert f()[0] == 1 and g()[0] == 2  # each has its own scope
        names = {f.__code__.co_filename, g.__code__.co_filename}
        assert len(names) == 2 and all(re.fullmatch(r"<kernel-\d+>", n) for n in names)

    def test_two_stops_of_one_config_record_into_their_own_devs(self):
        sc = smp.builtin_scenario("h1-counterexample")
        (stop1, devs1), (stop2, devs2) = (smp._ScenarioEngine(sc).box_stop for _ in range(2))
        assert stop1.source == stop2.source and stop1 is not stop2
        inside = [(lo + hi) / 2 for lo, hi in sc.box]
        lifted = sc.operator.lift(inside, ca.evaluate(sc.u.expr, inside))
        assert stop1(lifted) is False and stop1(lifted) is False and stop2(lifted) is False
        assert len(devs1) == 2 and len(devs2) == 1

    def test_second_run_of_each_builtin_compiles_nothing(self, monkeypatch):
        for name in GOLDEN:
            smp.run_scenario(smp.builtin_scenario(name))
        calls = self.counting(monkeypatch)
        for name in GOLDEN:
            sc = smp.builtin_scenario(name)
            report = smp.run_scenario(sc)
            texts = (dumps_report(report.as_dict()) + "\n",
                     write_scenario_csv(report, sc.operator.chart.names))
            assert tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts) == GOLDEN[name]
        assert calls == []

    def test_the_least_recent_text_leaves_at_the_bound(self, monkeypatch):
        calls = self.counting(monkeypatch)
        first = self.fresh_source()
        ca.compile_source(first, "g")
        for _ in range(ca._CODE_MEMO_SIZE - 1):
            ca.compile_source(self.fresh_source(), "g")
        ca.compile_source(first, "g")  # bound texts so far: still kept
        assert len(calls) == ca._CODE_MEMO_SIZE
        for _ in range(ca._CODE_MEMO_SIZE):
            ca.compile_source(self.fresh_source(), "g")
        ca.compile_source(first, "g")  # bound + 1 texts since its last use: compiled again
        assert len(calls) == 2 * ca._CODE_MEMO_SIZE + 1 and calls[-1] == first

    def test_a_text_that_fails_to_compile_raises_on_each_call(self, monkeypatch):
        calls = self.counting(monkeypatch)
        bad = "def g(:\n" + self.fresh_source()
        for _ in range(2):
            with pytest.raises(SyntaxError):
                ca.compile_source(bad, "g")
        assert calls == [bad, bad]


class TestBuildMemo:
    """``built`` keeps what the last ``_BUILD_MEMO_SIZE`` keys built: a
    parsed text, an operator's H, tangent fields and bracket words come back
    as the same objects, and a parse or build that raises keeps nothing."""

    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty memo for this test; the process memo comes back after it."""
        memo = OrderedDict()
        monkeypatch.setattr(ca, "_BUILT", memo)
        return memo

    def test_each_builtin_builds_once_and_keeps_the_golden_bytes(self, memo):
        for name in GOLDEN:
            first, again = ([sc.operator.build(g.expr) for g in (sc.u, sc.v)]
                            for sc in (smp.builtin_scenario(name), smp.builtin_scenario(name)))
            assert all(a is b for a, b in zip(first, again)), name
            sc = smp.builtin_scenario(name)
            for jobs in (1, 2):
                report = smp.run_scenario(sc, jobs)
                texts = (dumps_report(report.as_dict()) + "\n",
                         write_scenario_csv(report, sc.operator.chart.names))
                assert tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts) == GOLDEN[name]

    def test_an_overflow_while_building_h_raises_again_and_keeps_nothing(self, memo):
        op = smp.GraphHFOperator([ca.neg(ca.var(1)), ca.var(0)], 2)
        u, v = (parse_expr(t, op.chart) for t in ("x1^2 + 1e154*x2^2", "x1*x2"))
        sc = smp.ComparisonScenario("big", op, u, v, box=((-0.5, 0.5),) * 2, grid_counts=3)
        errors = []
        for _ in range(2):
            with pytest.raises(EvaluationError, match="graph u: outside the float range while building H") as info:
                smp.run_scenario(sc)
            errors.append(str(info.value))
        # the drift structure and the two parsed texts stay; the build that raised keeps nothing
        assert errors[0] == errors[1]
        assert list(memo) == [("graph_F", 2, (ca.neg(ca.var(1)), ca.var(0))),
                              *[("parse", t, op.chart) for t in ("x1^2 + 1e154*x2^2", "x1*x2")]]

    @staticmethod
    def tokenized(monkeypatch) -> list:
        """The texts the parser tokenizes from now on."""
        texts = []
        real = ca._tokenize
        monkeypatch.setattr(ca, "_tokenize", lambda source: texts.append(source) or real(source))
        return texts

    def test_a_repeated_text_is_parsed_once(self, memo, monkeypatch):
        texts = self.tokenized(monkeypatch)
        tagged = _Value("x1^2 + 4*z^2")
        tagged.lineno = 7
        first = parse_expr(tagged, XZ)
        assert parse_expr("x1^2 + 4*z^2", CoordSystem(("x1", "z"))) is first
        assert texts == ["x1^2 + 4*z^2"]
        # the key is the plain text, so the memo keeps no config line
        assert list(memo) == [("parse", "x1^2 + 4*z^2", XZ)]
        assert type(next(iter(memo))[1]) is str

    def test_one_text_over_another_chart_is_another_key(self, memo, monkeypatch):
        texts = self.tokenized(monkeypatch)
        zx = CoordSystem(("z", "x1"))
        over_xz, over_zx = parse_expr("x1^2 + z", XZ), parse_expr("x1^2 + z", zx)
        assert over_xz is not over_zx and over_zx is ca.add(ca.pow_(ca.var(1), 2), ca.var(0))
        assert texts == ["x1^2 + z"] * 2
        assert list(memo) == [("parse", "x1^2 + z", XZ), ("parse", "x1^2 + z", zx)]

    @pytest.mark.parametrize("text, message, offset", [
        ("x1 + * z", "unexpected token '*'", 5),
        ("x1 + w", "unknown identifier 'w'", 5),
        ("1e-300/1e-400", "constant outside the float range", 7),
    ], ids=["token", "identifier", "overflow"])
    def test_a_refused_text_raises_again_and_keeps_nothing(self, memo, monkeypatch,
                                                           text, message, offset):
        texts = self.tokenized(monkeypatch)
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_expr(text, XZ)
            errors.append((str(info.value), info.value.offset))
        assert errors == [(f"{message} (at offset {offset})", offset)] * 2
        assert texts == [text, text] and not memo

    def test_the_least_recent_key_is_built_again_at_the_bound(self, memo):
        made = []

        def build(key):
            return ca.built(key, lambda: made.append(key) or [key])

        first, bound = ("first",), ca._BUILD_MEMO_SIZE
        kept = build(first)
        for i in range(bound - 1):
            build(("early", i))
        assert build(first) is kept  # bound keys so far: all kept, and first is the most recent
        for i in range(bound):
            build(("late", i))
            assert len(memo) <= bound
            assert (first in memo) == (i < bound - 1)  # it leaves with the bound-th newer key
        assert build(first) is not kept  # built again, once
        assert len(made) == 2 * bound + 1 and made[-1] == first

    def test_a_second_run_generates_no_rk4_loop(self, memo, monkeypatch):
        kinds, loops = [], []
        real = ca.compile_source

        def counting(src, name, kind="generated", **names):
            kinds.append(kind)
            return real(src, name, kind, **names)

        monkeypatch.setattr(ca, "compile_source", counting)
        for _ in range(2):
            smp.run_scenario(smp.builtin_scenario("vertical-hyperplane"))
            loops.append(kinds.count("rk4"))
        assert loops[0] == loops[1] > 0
