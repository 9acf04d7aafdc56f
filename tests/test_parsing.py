"""Expression grammar, map files, and canonical printing."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from corpus import random_polynomial
from jacgate import Polynomial, parse_expr, parse_map_file, print_poly
from jacgate.errors import ParseError
from jacgate.parsing import default_names, parse_map_source, parse_poly_file


EX_MAP = """\
# the running cubic example
vars: x, y
f = x^3 + y^3 + x
g = y
"""


class TestParseExpr:
    def test_cubic(self):
        p = parse_expr("x^3 + y^3 + x", ("x", "y"))
        assert p == Polynomial(
            2, {(3, 0): 1, (0, 3): 1, (1, 0): 1}
        )

    def test_remark_product(self):
        p = parse_expr("((9*x + 10)^2 + 8) * x^2", ("x",))
        assert p == Polynomial(1, {(4,): 81, (3,): 180, (2,): 108})

    def test_zero(self):
        assert parse_expr("0", ("x", "y")).is_zero

    def test_rational_literal(self):
        assert parse_expr("3/4*x", ("x",)) == Polynomial(1, {(1,): Fraction(3, 4)})

    def test_unary_minus_and_parens(self):
        assert parse_expr("-(x - y)^2", ("x", "y")) == parse_expr(
            "-x^2 + 2*x*y - y^2", ("x", "y")
        )

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable") as exc_info:
            parse_expr("x + z", ("x", "y"))
        assert exc_info.value.column == 5

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_expr("x^-2", ("x",))

    def test_fractional_exponent(self):
        with pytest.raises(ParseError, match="fractional exponent"):
            parse_expr("x^1/2", ("x",))

    def test_general_division_rejected(self):
        with pytest.raises(ParseError, match="rational literals"):
            parse_expr("x / 2", ("x",))

    @pytest.mark.parametrize("src", ["x + \u00e9", "x\u00b2"], ids=["letter", "superscript"])
    def test_non_ascii_character_rejected(self, src):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expr(src, ("x",))

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2 x", ("x",))

    @pytest.mark.parametrize(
        "src, message",
        [
            ("2^100000000", "exponent 100000000 exceeds"),
            ("(x^20*y)^2", "degree exceeds"),
            ("(x+y+z+1)^17", "more than 1000 terms"),
            ("(x+y+z+1)^9*(x+y+z+1)^9", "more than 1000 terms"),
            ("(" * 2000 + "x" + ")" * 2000, "nested too deeply"),
            ("+".join(["x"] * 2000), "more than 1000 terms"),
            (" + ".join(["(x+y+z+1)^9 - (x+y+z+1)^9"] * 3), "more than 1000 terms"),
            ("*".join(["3"] * 2000), "exceed 4096 bits"),
            ("((2^32)^32)^32", "exceed 4096 bits"),
        ],
        ids=[
            "exponent", "degree", "power_terms", "product_terms", "nesting", "length",
            "cancelling", "constant_product", "nested_power",
        ],
    )
    def test_size_caps(self, src, message):
        with pytest.raises(ParseError, match=message):
            parse_expr(src, ("x", "y", "z"))

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_expr("x + (y", ("x", "y"))
        assert exc_info.value.line == 1
        assert exc_info.value.column >= 6

    def test_fuzzed_invalid_inputs_raise_parse_error(self):
        rng = Random(5)
        alphabet = "xy+-*^()123/ ."
        for _ in range(300):
            src = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            try:
                parse_expr(src, ("x", "y"))
            except ParseError:
                pass  # structured failure is the contract


# Expression trees: a Fraction literal >= 0, a variable index, or a tuple
# (op, ...) with op one of "+", "-", "*" (two operands), "^" (operand,
# exponent) and "neg" (one operand). Few leaves, so that terms collide and
# cancel often; u + v - u + u cancels u's terms and appends them after v's.
NAMES = ("x", "y", "z")
leaves = st.one_of(
    st.sampled_from((0, 1, 2)),
    st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 3))),
)
trees = st.recursive(
    leaves,
    lambda t: st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), t, t),
        st.tuples(st.just("^"), t, st.integers(0, 3)),
        st.tuples(st.just("neg"), t),
        st.tuples(t, t).map(lambda uv: ("+", ("-", ("+", *uv), uv[0]), uv[0])),
    ),
    max_leaves=10,
)


def render(tree) -> str:
    """The tree as source text that parses into the same tree: sums and
    products chain to the left, so a run of them is one loop of the parser."""
    if isinstance(tree, int):
        return NAMES[tree]
    if isinstance(tree, Fraction):
        return str(tree)
    op, left, *rest = tree
    if op == "neg":
        return "-" + _operand(left, ("^",))
    if op == "^":
        return f"{_operand(left, ())}^{rest[0]}"
    right = rest[0]
    if op == "*":
        return f"{_operand(left, ('*', '^', 'neg'))}*{_operand(right, ('^', 'neg'))}"
    left, right = _operand(left, ("+", "-", "*", "^", "neg")), _operand(right, ("*", "^", "neg"))
    return f"{left} {op} {right}"


def _operand(tree, bare) -> str:
    text = render(tree)
    return text if not isinstance(tree, tuple) or tree[0] in bare else f"({text})"


def reference(tree, n: int) -> Polynomial:
    """The tree evaluated with ``Polynomial`` arithmetic, one operation per node."""
    if isinstance(tree, int):
        return Polynomial.variable(n, tree)
    if isinstance(tree, Fraction):
        return Polynomial.constant(n, tree)
    op, left, *rest = tree
    if op == "neg":
        return -reference(left, n)
    if op == "^":
        return reference(left, n) ** rest[0]
    a, b = reference(left, n), reference(rest[0], n)
    return a + b if op == "+" else a - b if op == "-" else a * b


class TestTermOrder:
    """``parse_expr`` builds one-term products and sums directly; its terms
    and their values are those of ``Polynomial`` arithmetic on the same
    expression, and no stored coefficient is 0.  One-term pieces keep the
    order of the other operand's terms."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(trees)
    def test_matches_polynomial_arithmetic(self, tree):
        text = render(tree)
        try:
            parsed = parse_expr(text, NAMES)
        except ParseError as exc:
            assert "cap" in str(exc) or "may" in str(exc), (text, exc)
            reject()
        assert parsed.terms == reference(tree, 3).terms, text
        assert all(parsed.terms.values()), text

    def test_render_keeps_the_tree(self):
        tree = ("-", ("neg", ("^", 0, 2)), ("*", ("neg", 1), ("+", 2, Fraction(1, 2))))
        assert render(tree) == "-x^2 - -y*(z + 1/2)"

    def test_cancelled_term_comes_back(self):
        p = parse_expr("x*y + x - x*y + x*y", ("x", "y"))
        assert p.terms == {(1, 0): Fraction(1), (1, 1): Fraction(1)}
        assert all(p.terms.values())

    @pytest.mark.parametrize(
        "src, terms",
        [
            ("0*x", []),
            ("0^0", [((0, 0), Fraction(1))]),
            ("(x - x)^2", []),
            ("-(3/2*x*y^2)^2", [((2, 4), Fraction(-9, 4))]),
            ("(x + y)*(2*x)", [((2, 0), Fraction(2)), ((1, 1), Fraction(2))]),
            ("(2*x)*(x + y)", [((2, 0), Fraction(2)), ((1, 1), Fraction(2))]),
        ],
    )
    def test_one_term_pieces(self, src, terms):
        assert list(parse_expr(src, ("x", "y")).terms.items()) == terms


class TestMapFile:
    def test_cubic_file(self):
        fmap, names = parse_map_file(EX_MAP)
        assert names == ("x", "y")
        assert fmap.components[0] == parse_expr("x^3 + y^3 + x", names)
        assert fmap.components[1] == parse_expr("y", names)

    def test_identity_file(self):
        fmap, _ = parse_map_file("vars: u, v\na = u\nb = v\n")
        assert fmap.components[0] == Polynomial.variable(2, 0)

    def test_non_square(self):
        with pytest.raises(ParseError, match="non-square"):
            parse_map_file("vars: x, y, z\nf = x\ng = y\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_map_file("vars: x, x\nf = x\ng = x\n")

    def test_name_metadata(self):
        # a name: line parses and is skipped
        assert parse_map_source("name: demo\nvars: x\nf = x\n") == (("x",), [("x", 3)])
        assert parse_map_file("vars: x\nname: demo\nf = x\n") == parse_map_file("vars: x\nf = x\n")

    def test_poly_file_not_square(self):
        polys, names = parse_poly_file("vars: x, y\ng = x^2 + y^2\n")
        assert len(polys) == 1 and names == ("x", "y")

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse_map_file("f = x\n")

    @pytest.mark.parametrize("parse", [parse_map_file, parse_poly_file])
    def test_error_reports_file_line(self, parse):
        with pytest.raises(ParseError) as exc_info:
            parse("vars: x, y\nf = x^100000000\ng = y\n")
        assert exc_info.value.line == 2


class TestPrintPoly:
    def test_simple(self):
        assert print_poly(parse_expr("x^3 + y^3", ("x", "y")), ("x", "y")) == "x^3 + y^3"

    def test_zero(self):
        assert print_poly(Polynomial.zero(2)) == "0"

    def test_rational_coefficient(self):
        assert print_poly(parse_expr("1/2*x^2", ("x",)), ("x",)) == "1/2*x^2"

    def test_negative_leading_term(self):
        assert print_poly(parse_expr("-x^2 + y", ("x", "y")), ("x", "y")) == "-x^2 + y"

    def test_round_trip_random(self):
        rng = Random(17)
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n)
            names = default_names(n)
            assert parse_expr(print_poly(p, names), names) == p
