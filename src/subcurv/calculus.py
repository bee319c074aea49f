"""Symbolic expression engine over named coordinates.

Expressions are immutable trees built from rational/float constants,
coordinate variables, n-ary sums and products, and powers with exact
rational exponents.  The engine supports exact symbolic differentiation,
pointwise IEEE-double evaluation, substitution, parsing/unparsing of a
small text grammar, and compilation to fast Python callables for grid
sweeps.

Nodes are interned (hash-consed): there is one live node per structure,
so equality is identity.  The intern table is not locked, so trees are
built from one thread at a time.  Every bottom-up walk (simplification,
differentiation, evaluation, substitution, free variables, compilation)
is one iterative post-order fold over the expression DAG with a handler
per node kind.  The fold's memo keys on node identity, so equal subtrees
are rebuilt, evaluated and emitted once, and deep trees do not exhaust
the interpreter stack.  Negation is not a node kind: ``neg(e)`` is
the product of ``-1`` and ``e``.

Simplification is deliberately shallow: constant folding, neutral-element
elimination and flattening of nested sums/products.  There is no
polynomial canonical form; trees that differ structurally are compared
numerically by callers where needed.
"""

from __future__ import annotations

import itertools
import operator
import types
import weakref
from collections import OrderedDict
from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from typing import Callable, Iterable, Mapping, Sequence, Union

Number = Union[int, float, Fraction]

__all__ = [
    "CalculusError",
    "ParseError",
    "EvaluationError",
    "NonSmoothPoint",
    "DivisionByZero",
    "CoordSystem",
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Pow",
    "const",
    "var",
    "add",
    "mul",
    "neg",
    "sub",
    "div",
    "pow_",
    "sqrt_",
    "simplify",
    "differentiate",
    "gradient",
    "evaluate",
    "substitute",
    "free_vars",
    "emitter",
    "FAULTS",
    "KERNEL_NAMES",
    "compile_expr",
    "compile_source",
    "built",
    "parse_expr",
    "unparse",
    "ZERO",
    "ONE",
]


class CalculusError(Exception):
    """Base class for expression-engine errors."""


class ParseError(CalculusError):
    """Source text does not conform to the expression grammar.

    ``offset`` is the byte offset of the offending token in the source.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(CalculusError):
    """Base class for pointwise-evaluation domain errors."""


class NonSmoothPoint(EvaluationError):
    """Non-integer power of a non-positive base."""


class DivisionByZero(EvaluationError):
    """Negative integer power of zero."""


class CoordSystem:
    """An ordered tuple of distinct coordinate names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("coordinate system needs at least one name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        return self._index[name]

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, CoordSystem) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"CoordSystem({', '.join(self.names)})"


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

# Node-kind ranks fix the canonical child ordering of sums and products.
_RANK_CONST = 0
_RANK_VAR = 1
_RANK_POW = 2
_RANK_MUL = 3
_RANK_ADD = 4


_NODES: dict = {}  # interning key -> KeyedRef to the one live node with that key


def _drop(ref, nodes=_NODES):
    """KeyedRef callback: a dead node's entry leaves the table."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _lookup(key):
    ref = _NODES.get(key)
    return None if ref is None else ref()


def _register(cls, key, *values):
    """A new ``cls`` node with its slots set to ``values``, interned under ``key``."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(node, name, value)
    _NODES[key] = weakref.KeyedRef(node, _drop, key)
    return node


class Expr:
    """Base class of all expression nodes.  Instances are immutable and
    hash-consed: each node kind's constructor returns the one live node
    with its payload and operands, so structural equality is identity and
    ``==``, ``hash`` and dict keys use the object defaults."""

    __slots__ = ("__weakref__",)

    rank: int = -1

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"<expr {_repr_tree(self)}>"


class Const(Expr):
    """Exact rational constant.

    Every finite IEEE double is an exact rational, so the stored value is
    always a ``Fraction``; evaluation rounds back to float.
    """

    __slots__ = ("value", "_float")
    rank = _RANK_CONST

    def __new__(cls, value: Number):
        # interned on integer parts, which hash in C (a Fraction does not)
        if isinstance(value, int):
            n, d = value, 1
        elif isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError(f"non-finite constant {value!r}")
            n, d = value.as_integer_ratio()
        elif isinstance(value, Fraction):
            n, d = value.numerator, value.denominator
        else:
            raise TypeError(f"bad constant type {type(value).__name__}")
        key = (Const, n, d)
        node = _lookup(key)
        if node is None:
            # n/d is in lowest terms, and n / d is float(Fraction(n, d))
            node = _register(cls, key, Fraction(n) if d == 1 else Fraction(n, d), n / d)
        return node


class Var(Expr):
    """Coordinate variable referenced by index into the enclosing chart."""

    __slots__ = ("index",)
    rank = _RANK_VAR

    def __new__(cls, index: int):
        key = (Var, index)
        node = _lookup(key)
        if node is None:
            if index < 0:
                raise ValueError("variable index must be nonnegative")
            node = _register(cls, key, index)
        return node


class Add(Expr):
    """N-ary sum with canonically ordered children."""

    __slots__ = ("children",)
    rank = _RANK_ADD

    def __new__(cls, children: tuple):
        key = (Add, children)
        return _lookup(key) or _register(cls, key, children)


class Mul(Expr):
    """N-ary product with canonically ordered children."""

    __slots__ = ("children",)
    rank = _RANK_MUL

    def __new__(cls, children: tuple):
        key = (Mul, children)
        return _lookup(key) or _register(cls, key, children)


class Pow(Expr):
    """Power with an exact rational exponent."""

    __slots__ = ("base", "exponent")
    rank = _RANK_POW

    def __new__(cls, base: Expr, exponent: Fraction):
        key = (Pow, base, exponent.numerator, exponent.denominator)
        return _lookup(key) or _register(cls, key, base, exponent)


ZERO = Const(0)
ONE = Const(1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------


def _tree_cmp(a: Expr, b: Expr) -> int:
    """Deterministic total order on canonical trees (free of object ids).

    Lexicographic over (rank, payload, operands), walked with an explicit
    stack; a power compares its base before its exponent, which waits on
    the stack as a pair of fractions.
    """
    if a.rank != b.rank:  # the common case, settled without a stack
        return -1 if a.rank < b.rank else 1
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is Fraction:  # a deferred exponent comparison
            if a != b:
                return -1 if a < b else 1
        elif a.rank != b.rank:
            return -1 if a.rank < b.rank else 1
        elif kind is Const:
            if a.value != b.value:
                return -1 if a.value < b.value else 1
        elif kind is Var:
            if a.index != b.index:
                return -1 if a.index < b.index else 1
        elif kind is Pow:
            stack += ((a.exponent, b.exponent), (a.base, b.base))
        else:
            ca, cb = a.children, b.children
            if len(ca) != len(cb):
                return -1 if len(ca) < len(cb) else 1
            stack.extend(reversed(tuple(zip(ca, cb))))
    return 0


_ORDER_KEY = cmp_to_key(_tree_cmp)


def _sorted_children(children) -> tuple:
    return tuple(sorted(children, key=_ORDER_KEY))


# ---------------------------------------------------------------------------
# Smart constructors (they coerce numbers and simplify locally at build time)
# ---------------------------------------------------------------------------


const, var = Const, Var

_UNIT = Fraction(1)  # the exponent of a bare factor
_RECIPROCAL = Fraction(-1)  # the exponent of a divisor


def _ratio(num: int, den: int) -> Const:
    """The constant num/den (den > 0), with a Fraction only when den is not 1."""
    return Const(num if den == 1 else Fraction(num, den))


def _split_coeff(t: Expr):
    """Split a canonical non-constant term into (constant coefficient, core)."""
    if isinstance(t, Mul):
        first = t.children[0]
        if isinstance(first, Const):
            rest = t.children[1:]
            core = rest[0] if len(rest) == 1 else Mul(rest)
            return first, core
    return ONE, t


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and like-term collection.

    Terms that differ only by a rational coefficient merge, so exact
    cancellations (x - x, f*g - g*f) collapse to zero symbolically.  No
    distribution or polynomial expansion is performed.
    """
    num, den = 0, 1  # the constant term num/den, in integers until the end
    coeffs: dict = {}  # core -> its Const coefficient, in first-appearance order
    for term in terms:
        term = _coerce(term)
        for t in term.children if type(term) is Add else (term,):
            if type(t) is Const:
                q = t.value
                num, den = num * q.denominator + q.numerator * den, den * q.denominator
                continue
            c, core = _split_coeff(t)
            coeffs[core] = add(coeffs[core], c) if core in coeffs else c

    flat = []
    for core, c in coeffs.items():  # interned: a zero coefficient is ZERO, a unit one ONE
        if c is ZERO:
            continue
        if c is ONE:
            flat.append(core)
        elif isinstance(core, Mul):
            flat.append(Mul(_sorted_children(core.children + (c,))))
        else:
            flat.append(Mul(_sorted_children((c, core))))
    if num:
        flat.append(_ratio(num, den))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(_sorted_children(flat))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding and power collection.

    Factors with a common base merge by adding exponents.  Exponent
    cancellation assumes expressions are used away from domain
    boundaries (callers guard the singular set themselves).
    """
    num, den = 1, 1  # the constant factor num/den, in integers until the end
    powers: dict = {}  # base -> rational exponent, in first-appearance order
    for factor in factors:
        factor = _coerce(factor)
        for f in factor.children if type(factor) is Mul else (factor,):
            kind = type(f)
            if kind is Const:
                num, den = num * f.value.numerator, den * f.value.denominator
                continue
            base, exp = (f.base, f.exponent) if kind is Pow else (f, _UNIT)
            powers[base] = powers[base] + exp if base in powers else exp

    if num == 0:
        return ZERO
    flat, products = [], []
    for base, exp in powers.items():
        rebuilt = base if exp is _UNIT else pow_(base, exp)
        if isinstance(rebuilt, Const):
            num, den = num * rebuilt.value.numerator, den * rebuilt.value.denominator
        elif isinstance(rebuilt, Mul):
            products.append(rebuilt)
        else:
            flat.append(rebuilt)
    if products:
        # a product base whose exponents sum to 1 comes back as that product
        # (x*y from sqrt(x*y)^2), and its factors may share bases with the others
        return mul(_ratio(num, den), *flat, *products)
    if num == 0:  # merged powers of a zero base: x * 0^(1/2) * 0^(1/2)
        return ZERO
    if len(flat) == 1 and isinstance(flat[0], Add) and num != den:
        # distribute the constant over the sum so that c*(a+b) and c*a + c*b
        # share one canonical form (keeps exact cancellations visible)
        acc = _ratio(num, den)
        return add(*[mul(acc, t) for t in flat[0].children])
    if num != den:
        flat.append(_ratio(num, den))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(_sorted_children(flat))


_MAX_CONST_BITS = 4096


def pow_(base, exponent) -> Expr:
    """Power node; the exponent must be an exact rational.

    ``x^0`` collapses to 1 and ``x^1`` to ``x``; integer powers of
    constants fold exactly.  Domain questions (negative base under a
    fractional exponent, zero under a negative one) are deferred to
    evaluation.
    """
    base = _coerce(base)
    if isinstance(exponent, (int, float)):
        exponent = Fraction(exponent)
    if not isinstance(exponent, Fraction):
        raise TypeError("exponent must fold to an exact rational")
    n, d = exponent.numerator, exponent.denominator
    if d == 1 and 0 <= n <= 1:
        return base if n else ONE
    if isinstance(base, Const):  # interned: a Const of value 0 is ZERO, of 1 is ONE
        if d == 1 and (base is not ZERO or n > 0):
            b = base.value
            log2 = (max(abs(b.numerator), b.denominator) - 1).bit_length()
            if log2 * abs(n) > _MAX_CONST_BITS:
                # far outside the float range; the exact power could take
                # gigabytes (9^9^9)
                raise OverflowError(f"constant power {b}^{exponent} too large")
            return Const(b ** n)
        if base is ONE:
            return ONE
    return Pow(base, exponent)


def neg(e) -> Expr:
    return mul(Const(-1), e)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def div(a, b) -> Expr:
    return mul(a, pow_(b, _RECIPROCAL))


def sqrt_(e) -> Expr:
    return pow_(e, Fraction(1, 2))


# ---------------------------------------------------------------------------
# The fold: every bottom-up walk of the engine is a handler table for it
# ---------------------------------------------------------------------------


_EMIT = object()  # fold stack marker: the node below it has its operands folded


def _fold(root: Expr, handlers: Mapping[type, Callable], memo: dict = None):
    """Iterative post-order fold over the DAG under ``root``.

    ``handlers[type(node)](node, kids)`` gets the folded values of the
    node's operands (the children of a sum or product, the base of a
    power, none for a leaf), left to right.  It runs once per distinct
    node: nodes are interned, so the memo keys on identity and equal
    subtrees are one object with one result.  Passing the same ``memo``
    to several folds shares that work between them.
    """
    if memo is None:
        memo = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _EMIT:
            node = stack.pop()
            kind = type(node)
            if kind is Pow:
                memo[node] = handlers[kind](node, (memo[node.base],))
            else:
                memo[node] = handlers[kind](node, [memo[c] for c in node.children])
            continue
        if node in memo:
            continue
        kind = type(node)
        if kind is Add or kind is Mul:
            stack += (node, _EMIT)
            stack.extend(reversed(node.children))
        elif kind is Pow:
            stack += (node, _EMIT, node.base)
        elif kind is Const or kind is Var:
            memo[node] = handlers[kind](node, ())
        else:
            raise TypeError(f"unknown node {kind.__name__}")
    return memo[root]


def _fold_each(e: Union[Expr, Sequence[Expr]], handlers: Mapping[type, Callable]):
    """The fold of one expression, or the list of folds of a sequence, sharing one memo."""
    if isinstance(e, Expr):
        return _fold(e, handlers)
    memo: dict = {}
    return [_fold(c, handlers, memo) for c in e]


_REBUILD = {
    Const: lambda node, kids: node,
    Var: lambda node, kids: node,
    Add: lambda node, kids: add(*kids),
    Mul: lambda node, kids: mul(*kids),
    Pow: lambda node, kids: pow_(kids[0], node.exponent),
}


def simplify(e: Expr) -> Expr:
    """Rebuild a tree through the smart constructors.

    Canonicalizes arbitrary (e.g. hand-assembled) trees: nested
    sums/products flatten, constants fold, like terms and powers merge.
    Idempotent on its own output, and the identity on anything the parser
    or the smart constructors built, so the rest of the library never
    calls it: a tree assembled from ``Add``/``Mul``/``Pow`` by hand must
    go through ``simplify`` before it is handed to any other function.
    """
    return _fold(e, _REBUILD)


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------


def differentiate(e: Union[Expr, Sequence[Expr]], index: int):
    """Exact symbolic partial derivative with respect to coordinate ``index``.

    Shared subtrees are differentiated once, so the result stays compact
    as a DAG even when the input reuses nodes heavily.  Given a sequence
    of expressions, returns the list of their derivatives, and subtrees
    shared between them are differentiated once too.
    """

    def d_mul(node, dkids):
        kids = node.children
        terms = [mul(*kids[:i], d, *kids[i + 1 :]) for i, d in enumerate(dkids) if d is not ZERO]
        return add(*terms)

    def d_pow(node, dkids):
        db = dkids[0]
        if db is ZERO:
            return ZERO
        return mul(Const(node.exponent), pow_(node.base, node.exponent - 1), db)

    handlers = {
        Const: lambda node, _: ZERO,
        Var: lambda node, _: ONE if node.index == index else ZERO,
        Add: lambda node, dkids: add(*dkids),
        Mul: d_mul,
        Pow: d_pow,
    }
    return _fold_each(e, handlers)


def gradient(e: Expr, nvars: int) -> list:
    return [differentiate(e, i) for i in range(nvars)]


def _frac_pow(base: float, fexp: float) -> float:
    """The power rule of :func:`evaluate` and the compiled kernels for a
    non-integer exponent: the base must be positive."""
    if base <= 0.0:
        raise NonSmoothPoint(f"non-integer power {fexp!r} of non-positive base {base!r}")
    return base ** fexp


def _zero_pow(n: int):
    """The same rule for zero raised to a negative integer: no value."""
    raise DivisionByZero(f"zero raised to negative integer power {n}")


def _eval_pow(node, kids):
    q, base = node.exponent, kids[0]
    if q.denominator != 1:
        return _frac_pow(base, float(q))
    return base ** q.numerator if base or q >= 0 else _zero_pow(q.numerator)


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a coordinate tuple; IEEE double, deterministic.

    Sums and products combine their operands left to right and powers
    follow :func:`_frac_pow` and :func:`_zero_pow`, exactly as in the
    kernels of :func:`compile_expr`, so both raise :class:`NonSmoothPoint`
    and :class:`DivisionByZero` at the same points with the same message.
    """
    return _fold(
        e,
        {
            Const: lambda node, _: node._float,
            Var: lambda node, _: float(point[node.index]),
            Add: lambda node, kids: reduce(operator.add, kids),
            Mul: lambda node, kids: reduce(operator.mul, kids),
            Pow: _eval_pow,
        },
    )


def substitute(e: Union[Expr, Sequence[Expr]], mapping: Mapping[int, Expr]):
    """Replace variables by expressions; the result is canonical.  Given a
    sequence of expressions, returns the list of their results, and subtrees
    shared between them are rebuilt once."""
    return _fold_each(e, {**_REBUILD, Var: lambda node, _: mapping.get(node.index, node)})


def free_vars(e: Expr) -> set:
    """Set of variable indices appearing in the tree."""
    out: set = set()
    skip = dict.fromkeys((Const, Add, Mul, Pow), lambda node, kids: None)
    _fold(e, {**skip, Var: lambda node, _: out.add(node.index)})
    return out


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def emitter(nvars: int, var: str = "p[{}]", *, temp: str = "t"):
    """``(lines, emit)``: ``emit(e)`` appends to ``lines`` a statement
    ``tN = ...`` for each distinct subtree of ``e`` that no earlier call
    emitted, over ``nvars`` coordinates (coordinate i is ``var.format(i)``:
    by default a point ``p``), and returns the Python expression of e's
    value.  Powers follow the helpers of :func:`evaluate` (in scope as
    :data:`KERNEL_NAMES`), so the code gives the same double and the same
    error at the same point: a non-integer power is inline as ``t ** q if
    t > 0.0 else _frac_pow(t, q)``, so every other base (NaN too) meets
    the one rule, and a negative integer power as ``t ** -n if t else
    _zero_pow(-n)``.  ``temp`` replaces the ``t`` of
    the temporaries' names, so that one function can hold the lines of
    two emitters."""
    lines = []

    def line(rhs: str) -> str:
        name = f"{temp}{len(lines) + 1}"
        lines.append(f"{name} = {rhs}")
        return name

    def name_var(node, _):
        if node.index >= nvars:
            raise ValueError(
                f"variable index {node.index} out of range for {nvars} coords"
            )
        return var.format(node.index)

    def emit_pow(node, kids):
        b, q = kids[0], node.exponent
        if q.denominator != 1:
            return line(f"{b} ** {float(q)!r} if {b} > 0.0 else _frac_pow({b}, {float(q)!r})")
        zero = f" if {b} else _zero_pow({q.numerator})" if q < 0 else ""
        return line(f"{b} ** {q.numerator}{zero}")

    handlers = {
        # parenthesized, so that a negative base binds as in evaluate
        Const: lambda node, _: f"({node._float!r})",
        Var: name_var,
        Add: lambda node, kids: line(" + ".join(kids)),
        Mul: lambda node, kids: line(" * ".join(kids)),
        Pow: emit_pow,
    }
    memo: dict = {}
    return lines, lambda e: _fold(e, handlers, memo)


FAULTS = (EvaluationError, OverflowError)  # the one rule for "no value at this point"
KERNEL_NAMES = {"_frac_pow": _frac_pow, "_zero_pow": _zero_pow, "_FAULTS": FAULTS}  # in every generated scope


def compile_expr(
    e: Union[Expr, Sequence[Expr]], nvars: int
) -> Callable[[Sequence[float]], float]:
    """Compile to a generated function ``f(point) -> float`` (text in
    ``f.source``) whose values and errors match :func:`evaluate` exactly:
    the code of :func:`emitter`, linear in the number of distinct subtrees.
    Given a sequence of expressions, it returns the list of their values."""
    lines, emit = emitter(nvars)
    if isinstance(e, Expr):
        result = emit(e)
    else:
        result = "[" + ", ".join([emit(c) for c in e]) + "]"
    body = "\n".join(f"    {line}" for line in lines)
    src = f"def _f(p):\n{body}\n    return {result}\n"
    return compile_source(src, "_f", "kernel")


_SERIAL = itertools.count(1)
_CODE_MEMO_SIZE = 256  # distinct generated texts kept; one touch pass needs 84


@lru_cache(maxsize=_CODE_MEMO_SIZE)
def _code(src: str, name: str) -> types.CodeType:
    """The code of function ``name`` in ``src``, compiled once per text."""
    consts = compile(src, "<generated>", "exec").co_consts
    return next(c for c in consts if isinstance(c, types.CodeType) and c.co_name == name)


def compile_source(src: str, name: str, kind: str = "generated", **names) -> Callable:
    """A new function ``name`` that generated source ``src`` defines, with
    :data:`KERNEL_NAMES` and ``names`` in its own scope; its text stays in
    ``.source`` for debugging.  Each distinct text is compiled once (the
    last :data:`_CODE_MEMO_SIZE` are kept), but each function gets the
    filename ``<kind-N>`` with a fresh N, so profiles keep them apart."""
    code = _code(src, name).replace(co_filename=f"<{kind}-{next(_SERIAL)}>")
    f = types.FunctionType(code, {**KERNEL_NAMES, **names})
    f.source = src
    return f


_BUILD_MEMO_SIZE = 128  # a touch pass needs 66 keys; an entry retained <= 0.033 MB, so <= ~4 MB full
_BUILT: OrderedDict = OrderedDict()  # key -> what ``make`` built for it, least recent first


def built(key, make: Callable):
    """``make()``, built once per process while ``key`` is among the last
    :data:`_BUILD_MEMO_SIZE` keys used; a ``make`` that raises stores nothing.
    A key holds interned nodes, never their ``id``, and the values are
    symbolic objects, never numeric results."""
    if key not in _BUILT:
        _BUILT[key] = make()
        if len(_BUILT) > _BUILD_MEMO_SIZE:
            _BUILT.popitem(last=False)
    _BUILT.move_to_end(key)
    return _BUILT[key]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_NUM_CHARS = set("0123456789")

# Bounds on numeric literals: an exact Fraction of 1e5000000 takes seconds
# to build and then overflows the float every constant carries.
_MAX_LITERAL = 400
_MAX_EXPONENT = 400


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _NUM_CHARS or (ch == "." and i + 1 < n and source[i + 1] in _NUM_CHARS):
            j, exponent = i, ""
            while j < n and source[j] in _NUM_CHARS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _NUM_CHARS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _NUM_CHARS:
                    k += 1
                    while k < n and source[k] in _NUM_CHARS:
                        k += 1
                    exponent, j = source[j + 1 : k], k
            if j - i > _MAX_LITERAL:
                raise ParseError(f"numeric literal longer than {_MAX_LITERAL} characters", i)
            if exponent and abs(int(exponent)) > _MAX_EXPONENT:
                raise ParseError(f"decimal exponent beyond +-{_MAX_EXPONENT}", i)
            tokens.append(_Token("num", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# Bound on nested parentheses, sqrt( calls, unary minus signs and
# exponents: each level costs the recursive-descent parser up to six
# interpreter frames, so the bound keeps it well inside the default
# recursion limit and turns absurd nesting into a ParseError.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, coords: CoordSystem):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.text!r}", tok.offset)
        return tok

    def nested(self, parse, tok: _Token) -> Expr:
        """Run ``parse`` one nesting level below ``tok``."""
        if self.depth >= _MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {_MAX_NESTING} levels", tok.offset
            )
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            return neg(self.nested(self.unary, self.next()))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            tok = self.next()
            exp_tree = self.nested(self.unary, tok)  # right-associative
            if not isinstance(exp_tree, Const):
                raise ParseError(
                    "exponent does not fold to a rational constant", tok.offset
                )
            return pow_(base, exp_tree.value)
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Const(int(tok.text) if tok.text.isdigit() else Fraction(tok.text))
        if tok.kind == "ident":
            if tok.text == "sqrt":
                inner = self.nested(self.expr, self.expect("("))
                self.expect(")")
                return sqrt_(inner)
            try:
                idx = self.coords.index(tok.text)
            except KeyError:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.offset) from None
            return Var(idx)
        if tok.kind == "(":
            inner = self.nested(self.expr, tok)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse_expr(source: str, coords: CoordSystem) -> Expr:
    """Parse the expression grammar (see README for the EBNF).

    Numbers may be integers, decimals or scientific notation; ``a/b`` with
    constant operands folds to an exact rational.  ``sqrt(e)`` is sugar
    for ``e^(1/2)``.  Precedence: ``^`` > unary ``-`` > ``* /`` > ``+ -``;
    ``^`` is right-associative and its exponent must fold to a rational
    constant.  Each distinct ``(str(source), coords)`` is parsed once while
    it is among the keys :func:`built` keeps; a text that raises keeps nothing.
    """
    return built(("parse", str(source), coords), lambda: _parse(source, coords))


def _parse(source: str, coords: CoordSystem) -> Expr:
    parser = _Parser(_tokenize(source), coords)
    try:
        return parser.parse()
    except OverflowError:
        # a folded constant left the float range (2^100000, 1e300*1e300)
        offset = parser.tokens[parser.pos - 1].offset
        raise ParseError("constant outside the float range", offset) from None


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------


def _unparse_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _level(e: Expr) -> int:
    # levels: atom=4, pow=3, unary/-const=2.5 (handled ad hoc), mul=2, add=1
    if isinstance(e, Var):
        return 4
    if isinstance(e, Const):
        if e.value < 0 or e.value.denominator != 1:
            return 1  # negative or fractional constants read like -a or a/b
        return 4
    if isinstance(e, Pow):
        return 3
    if isinstance(e, Mul):
        return 2
    return 1  # Add


def _negated_term(t: Expr):
    """(True, |t|) when a canonical term carries a negative coefficient."""
    if isinstance(t, Const) and t.value < 0:
        return True, Const(-t.value)
    if isinstance(t, Mul):
        first = t.children[0]
        if isinstance(first, Const) and first.value < 0:
            return True, mul(Const(-first.value), *t.children[1:])
    return False, t


def unparse(e: Expr, coords: CoordSystem) -> str:
    """Render to the expression grammar; ``parse(unparse(e))`` rebuilds ``e``
    for canonical trees."""
    memo: dict = {}  # node -> its text without enclosing parentheses

    def text(node: Expr, parent_level: int) -> str:
        # operands are folded before their parent; the absolute value of a
        # negated term is a new node, folded here on first use
        s = memo[node] if node in memo else _fold(node, handlers, memo)
        return f"({s})" if _level(node) < parent_level else s

    def u_add(node, _):
        parts = [text(node.children[0], 1)]
        for c in node.children[1:]:
            negated, core = _negated_term(c)
            # the subtrahend binds like a product operand
            parts.append(" - " + text(core, 2) if negated else " + " + text(core, 1))
        return "".join(parts)

    def u_mul(node, _):
        negated, core = _negated_term(node)
        if negated:
            return "-" + text(core, 2)
        return "*".join(text(c, 3) for c in node.children)

    def u_pow(node, _):
        b = text(node.base, 4)
        q = node.exponent
        if q.denominator == 1 and q >= 0:
            return f"{b}^{q.numerator}"
        return f"{b}^({_unparse_const(q)})"

    handlers = {
        Const: lambda node, _: _unparse_const(node.value),
        Var: lambda node, _: coords.names[node.index],
        Add: u_add,
        Mul: u_mul,
        Pow: u_pow,
    }
    return _fold(e, handlers, memo)


def _repr_tree(e: Expr, depth: int = 0) -> str:
    if depth > 4:
        return "..."
    if isinstance(e, Const):
        return _unparse_const(e.value)
    if isinstance(e, Var):
        return f"x[{e.index}]"
    if isinstance(e, Add):
        return "add(" + ", ".join(_repr_tree(c, depth + 1) for c in e.children) + ")"
    if isinstance(e, Mul):
        return "mul(" + ", ".join(_repr_tree(c, depth + 1) for c in e.children) + ")"
    if isinstance(e, Pow):
        return f"pow({_repr_tree(e.base, depth + 1)}, {e.exponent})"
    return "?"
