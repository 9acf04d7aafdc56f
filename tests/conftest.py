import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from jacgate import PolyMap, Polynomial, parse_expr


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def xy():
    return Polynomial.variable(2, 0), Polynomial.variable(2, 1)


@pytest.fixture
def cubic_map(xy):
    """The running golden example: F = (x^3 + y^3 + x, y)."""
    x, y = xy
    return PolyMap([x**3 + y**3 + x, y])


def p2(src: str) -> Polynomial:
    """Parse a two-variable polynomial in x, y."""
    return parse_expr(src, ("x", "y"))


def p1(src: str) -> Polynomial:
    return parse_expr(src, ("x",))


def evaluate(p, x) -> Fraction:
    """The dense polynomial ``p`` (coefficients lowest degree first) at ``x``."""
    value = Fraction(0)
    for c in reversed(p):
        value = value * x + c
    return value
