"""The expression reader against the hand-written reader it replaced
(tests/expr_reference.py): the same arrays, bit for bit, on every
expression of the repository and on random expressions of the grammar, and
an ExprError, never another exception, on anything else."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_reference
from gfsheaf.exprs import MAX_LENGTH, ExprError, evaluate

ROOT = Path(__file__).resolve().parent.parent
RNG = np.random.default_rng(20)
ENV = {name: RNG.uniform(-2.0, 2.0, size=(3, 5))
       for name in ("x", "y", "xi", "eta")}

# the argument that holds the expression, by callee
EXPR_ARGUMENT = {"circle_function": 0, "torus_function": 0, "from_expr": 1,
                 "sf": 1, "evaluate": 0}
# expr = "..." in a TOML file or snippet, "expr": "..." in a JSON one
EXPR_KEY = re.compile(r'\bexpr"?\s*[=:]\s*"([^"\n]*)"')


def repository_expressions():
    """Every expression string in src/, tests/ and demos/: the expr values
    of TOML and JSON files and of the Python strings that hold such text,
    and the expression arguments of the calls that sample one.  This file's
    own cases are left to the tests below."""
    found = set()
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".toml", ".json"):
                found.update(EXPR_KEY.findall(path.read_text()))
            if path.suffix != ".py" or path.name == "test_exprs.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    found.update(EXPR_KEY.findall(node.value))
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", ""))
                    k = EXPR_ARGUMENT.get(name)
                    if k is not None and len(node.args) > k and isinstance(
                            node.args[k], ast.Constant) and isinstance(
                            node.args[k].value, str):
                        found.add(node.args[k].value)
    return sorted(found)


PRECEDENCE = ["-x^2", "2^-x", "2^3^2", "2^-1", "-2^2", "x^-y^2",
              "-x*y", "x/y/2", "x-y-1", "x - -y", "+x", "--x",
              "(xi - 0.9)^2", "(sin(2*pi*x) + sin(2*pi*y))^2 / 2",
              "x1 + x2*xi1 - xi2^2", "exp(-x^2)*cos(eta)", "1e-3*x",
              "1.5E+2 - .5", "7.", " x", "\n x\n", "\tx\t+\ty ", ""]


def same(src):
    """Both readers give the same array, bit for bit, or both refuse; True
    when they give an array."""
    with np.errstate(all="ignore"):
        try:
            want = expr_reference.evaluate(src, **ENV)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ExprError):
                evaluate(src, **ENV)
            return False
        got = evaluate(src, **ENV)
    want, got = np.asarray(want), np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape, src
    assert got.tobytes() == want.tobytes(), src
    return True


def test_the_repository_has_expressions():
    found = repository_expressions()
    assert "cos(2*pi*x" in found        # the unclosed one of test_cli.py
    assert sum(same(src) for src in found) >= 25


@pytest.mark.parametrize("src", repository_expressions() + PRECEDENCE)
def test_an_expression_evaluates_as_the_reference(src):
    same(src)


def test_power_groups_right_and_binds_tighter_than_minus():
    x = ENV["x"]
    assert evaluate("2^3^2") == 2.0 ** 9
    assert evaluate("2^-1") == 0.5
    assert np.array_equal(evaluate("-x^2", x=x), -(x ** 2))
    assert np.array_equal(evaluate("2^-x", x=x), 2.0 ** (-x))


# a random expression of the grammar, spaced at random; each joint takes
# any whitespace, so the text may start with spaces and newlines
SPACE = st.sampled_from(["", "", " ", "  ", "\n", "\t", " \n  "])
NUMBER = st.one_of(st.integers(0, 10 ** 6).map(str),
                   st.floats(0.0, 1e6).map(repr),
                   st.sampled_from(["0.5", ".25", "3.", "1e-3", "2E+2"]))
ATOM = st.one_of(NUMBER, st.sampled_from(
    ["pi", "x", "y", "xi", "eta", "x1", "x2", "xi1", "xi2"]))


def joined(*parts):
    """The parts with random whitespace before, between and after them."""
    spaced = [SPACE]
    for part in parts:
        spaced += [part if isinstance(part, st.SearchStrategy)
                   else st.just(part), SPACE]
    return st.tuples(*spaced).map("".join)


def expressions(depth):
    if depth == 0:
        return joined(ATOM)
    sub = expressions(depth - 1)
    return st.one_of(
        joined(ATOM),
        joined(sub, st.sampled_from("+-*/^"), sub),
        joined(st.sampled_from("-+"), sub),
        joined("(", sub, ")"),
        joined(st.sampled_from(["sin", "cos", "exp"]), "(", sub, ")"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(src=expressions(6))
def test_a_random_expression_evaluates_as_the_reference(src):
    if len(src) <= MAX_LENGTH:
        same(src)
    else:
        with pytest.raises(ExprError, match=f"at most {MAX_LENGTH}"):
            evaluate(src, **ENV)


def test_whitespace_and_python_numbers_are_read():
    assert evaluate("\n  x \n", x=2.0) == 2.0
    assert evaluate("x" + " " * (MAX_LENGTH - 1), x=2.0) == 2.0
    # Python reads these; the hand-written grammar did not
    assert evaluate("0x10") == 16.0 and evaluate("1_000") == 1000.0
    assert type(evaluate("3")) is float


REFUSED = {
    "not a string": (3, "must be a string, got 3"),
    "bytes": (b"x", "must be a string"),
    "power spelled **": ("x**2", "unexpected '**' at position 1"),
    "attribute": ("x.real", "'x.real' is outside the grammar at position 0"),
    "subscript": ("x[0]", "outside the grammar"),
    "comparison": ("x < 1", "outside the grammar"),
    "conditional": ("x if x else 1", "outside the grammar"),
    "keyword argument": ("sin(x=1)", "outside the grammar"),
    "two arguments": ("1 + sin(x, x)", "'sin(x, x)' is outside the grammar "
                                       "at position 4"),
    "no argument": ("cos()", "outside the grammar"),
    "a function as a value": ("sin", "unknown name 'sin'"),
    "other name": ("2*foo", "unknown name 'foo' at position 2"),
    "capital": ("X", "unknown name 'X'"),
    "a call of a variable": ("x(2)", "outside the grammar"),
    "bool": ("True", "outside the grammar"),
    "complex": ("1j", "outside the grammar"),
    # the hand-written reader took 07 as 7.0; Python refuses it
    "leading zero": ("07", "leading zeros in decimal integer literals are "
                           "not permitted"),
    "string": ("'x'", "outside the grammar"),
    "tuple": ("x, x", "outside the grammar"),
    "lambda": ("lambda: x", "outside the grammar"),
    "walrus": ("(y := x)", "outside the grammar"),
    "floor division": ("x // 2", "outside the grammar"),
    "unavailable variable": ("x + xi", "variable 'xi' not available here at "
                                       "position 4"),
    "unclosed": ("cos(2*pi*x", "'(' was never closed at position 3"),
    "unclosed after space": ("  x^2 )", "unmatched ')' at position 6"),
    "dangling operator": ("x +", "at position 3"),
    "empty": ("", "at position 0"),
    "blank": ("  \n ", "at position 4"),
    "comment": ("x # note", "unexpected '#' at position 2"),
    "non-ascii": ("2*π", "unexpected 'π' at position 2"),
    "fullwidth letter": ("ｘ", "unexpected"),
    "null byte": ("x\x00", "unexpected '\\x00' at position 1"),
    "division by zero": ("x + 1/0", "division by zero at position 4"),
    "long": ("x+" * 128 + "x", f"at most {MAX_LENGTH} characters, this one "
                               "has 257"),
    "deep parentheses": ("(" * 3000 + "x" + ")" * 3000, "at most"),
    "deep minus": ("-" * 5000 + "x", "at most"),
    "long sum": ("+".join(["x"] * 3000), "at most"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_expression_raises_expr_error(name):
    src, message = REFUSED[name]
    with pytest.raises(ExprError) as err:
        evaluate(src, x=ENV["x"])
    assert message in str(err.value)
