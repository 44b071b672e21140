import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcentropy.errors import ExprParseError
from pcentropy.expr import (
    BinOp,
    Call,
    Compose,
    Num,
    PiecewiseAffine,
    Var,
    as_affine,
    compile_expr,
    parse_constant,
    parse_expression,
)


def ev(text, x=0.0):
    return compile_expr(parse_expression(text))(x)


class TestParsing:
    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("2 - 3 - 4") == -5
        assert ev("12 / 2 / 3") == 2

    def test_variable_and_power(self):
        assert ev("x^3", 2.0) == 8
        assert ev("-x^2", 3.0) == -9  # unary minus binds looser than the power
        assert ev("2*x^2 + 1", 3.0) == 19

    def test_negative_exponent(self):
        assert ev("x^-1", 4.0) == 0.25

    def test_functions(self):
        assert ev("abs(-3)") == 3
        assert ev("min(2, x)", 5.0) == 2
        assert ev("max(1, x, 4)", 2.5) == 4

    def test_scientific_notation(self):
        assert ev("1e-2 + 2.5E1") == pytest.approx(25.01)

    def test_error_positions(self):
        with pytest.raises(ExprParseError) as exc:
            parse_expression("2 + * 3")
        assert exc.value.column == 5
        with pytest.raises(ExprParseError) as exc:
            parse_expression("2 + y")
        assert "unknown name 'y'" in str(exc.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprParseError):
            parse_expression("(1 + 2")

    def test_non_integer_exponent(self):
        with pytest.raises(ExprParseError):
            parse_expression("x^2.5")

    def test_trailing_garbage(self):
        with pytest.raises(ExprParseError):
            parse_expression("1 + 2 )")

    def test_parse_constant(self):
        assert parse_constant("1/3") == 1.0 / 3.0
        with pytest.raises(ExprParseError):
            parse_constant("x + 1")


class TestAffineDetection:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2*x", (2.0, 0.0)),
            ("2 - 2*x", (-2.0, 2.0)),
            ("x/0.5 + 1", (2.0, 1.0)),
            ("-(x - 1)", (-1.0, 1.0)),
            ("x^1", (1.0, 0.0)),
            ("3", (0.0, 3.0)),
            ("x^0", (0.0, 1.0)),
        ],
    )
    def test_affine(self, text, expected):
        a, b = as_affine(parse_expression(text))
        assert (a, b) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["x^2", "x*x", "abs(x)", "min(x, 1)", "1/x"])
    def test_not_affine(self, text):
        assert as_affine(parse_expression(text)) is None

    def test_compose_of_affine_is_affine(self):
        inner = parse_expression("2*x - 1")
        outer = parse_expression("3*x + 0.5")
        a, b = as_affine(Compose(outer, inner))
        assert (a, b) == pytest.approx((6.0, -2.5))


# random fully parenthesized expressions of the grammar, each paired with the
# same expression as Python text: the oracle is that text evaluated by Python
# itself, with A^k read as the chain of products _pw(A, k); a signed literal,
# -0.0 too, is parenthesized, since -a^k reads as -(a^k)
_NUMBERS = st.floats(-10, 10, allow_nan=False).map(lambda v: f"({v!r})" if math.copysign(1.0, v) < 0 else repr(v))


def _pw(v, k):
    if k == 0:
        return v**0
    power = v
    for _ in range(abs(k) - 1):
        power = power * v
    return power if k > 0 else 1 / power


def _extend(children):
    binop = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: tuple(f"({a} {t[1]} {b})" for a, b in zip(t[0], t[2]))
    )
    neg = children.map(lambda a: tuple(f"(-{s})" for s in a))
    power = st.tuples(children, st.integers(-3, 4)).map(
        lambda t: (f"({t[0][0]}^{t[1]})", f"_pw({t[0][1]}, {t[1]})")
    )
    call = st.one_of(
        children.map(lambda a: tuple(f"abs({s})" for s in a)),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3)).map(
            lambda t: tuple(f"{t[0]}({', '.join(args)})" for args in zip(*t[1]))
        ),
    )
    return st.one_of(binop, neg, power, call)


_TREES = st.recursive(st.one_of(_NUMBERS, st.just("x")).map(lambda s: (s, s)), _extend, max_leaves=12)


class TestEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(_TREES, st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5))
    def test_compiled_matches_python_eval(self, texts, points):
        text, py_text = texts
        fn = compile_expr(parse_expression(text))
        py = compile(py_text, "<oracle>", "eval")
        try:
            with np.errstate(all="ignore"):
                on_array = fn(np.array(points))
        except ArithmeticError:  # a constant subexpression divides by zero
            on_array = None
        for i, x in enumerate(points):
            try:
                want = eval(py, {"abs": abs, "min": min, "max": max, "_pw": _pw}, {"x": x})
            except ArithmeticError:
                continue
            if not math.isfinite(want):
                continue
            on_float = float(fn(x))
            assert on_float == want, (text, x)
            # the array call takes the same IEEE operations, to the bit
            if on_array is not None:
                on_array_x = np.broadcast_to(on_array, len(points))[i]
                assert np.float64(on_array_x).tobytes() == np.float64(on_float).tobytes(), (text, x)

    def test_wide_tree_compiles_and_evaluates_arrays(self):
        def balanced(n):
            if n == 1:
                return parse_expression("1.0*x")
            return BinOp("+", balanced(n // 2), balanced(n - n // 2))

        terms = 55_000  # about 550 000 characters of generated source
        inner = Call("min", (BinOp("/", balanced(terms), Num(float(terms))), Num(2.0)))
        xs, ys = (0.0, 0.35, 1.0), (0.0, 0.55, 1.0)
        fn = compile_expr(PiecewiseAffine(inner, xs, ys))
        grid = np.linspace(0, 1, 33)
        np.testing.assert_allclose(fn(grid), np.interp(grid, xs, ys), rtol=1e-12, atol=1e-15)
        assert fn(0.5) == pytest.approx(np.interp(0.5, xs, ys), rel=1e-12)

    def test_compiled_vectorized(self):
        e = parse_expression("2 - 2*x")
        fn = compile_expr(e)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(fn(xs), 2 - 2 * xs)

    def test_compose_eval_and_compile(self):
        e = Compose(parse_expression("2*x"), parse_expression("x + 0.25"))
        assert compile_expr(e)(0.25) == 1.0

    def test_piecewise_affine_matches_interp(self):
        xs, ys = (0.0, 0.35, 1.0), (0.0, 0.55, 1.0)
        e = PiecewiseAffine(Var(), xs, ys)
        grid = np.linspace(0, 1, 101)
        fn = compile_expr(e)
        np.testing.assert_allclose(fn(grid), np.interp(grid, xs, ys))

    def test_division_by_zero_propagates(self):
        with pytest.raises(ZeroDivisionError):
            compile_expr(parse_expression("1/x"))(0.0)

    def test_deep_composition_stays_cheap(self):
        e = parse_expression("2*x")
        for _ in range(40):
            e = Compose(parse_expression("2*x - x"), e)
        fn = compile_expr(e)
        assert fn(1.0) == pytest.approx(2.0)
        a, b = as_affine(e)
        assert (a, b) == pytest.approx((2.0, 0.0))

