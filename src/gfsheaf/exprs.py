"""The expressions of scenario inputs, read by Python's ast: numbers (each
a float), pi, the variables, + - * / ^ (power), unary minus and plus,
parentheses and the one-argument functions sin, cos and exp, whitespace
anywhere.  ^ is Python's **: it groups to the right and binds tighter than
unary minus (-x^2 is -(x^2), 2^-x is 2^(-x)).  Base variables are x (alias
x1) and y (alias x2); fiber variables xi (alias xi1) and eta (alias xi2).
Evaluation is vectorized over numpy arrays.  Anything else, or an expression
longer than MAX_LENGTH characters, is an ExprError."""

import ast
import math
import operator
import re

import numpy as np

# the bundled expressions are under 40 characters; 256 nest at most 255 deep,
# far inside the recursion limits of ast.parse and of the walk below
MAX_LENGTH = 256
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALIASES = {"x1": "x", "x2": "y", "xi1": "xi", "xi2": "eta"}
VARIABLES = ("x", "y", "xi", "eta")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: np.power}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}


class ExprError(ValueError):
    """An expression outside the grammar; the message names the position
    in the expression string where there is one."""


def evaluate(src, **env):
    """The value of the expression src over the variables of env."""
    if not isinstance(src, str):
        raise ExprError(f"an expression must be a string, got {src!r}")
    if len(src) > MAX_LENGTH:
        raise ExprError(f"an expression may have at most {MAX_LENGTH} "
                        f"characters, this one has {len(src)}")
    text = re.sub(r"\s", " ", src)
    bad = re.search(r"\*\*|#|[^ -~]", text)
    if bad:
        raise ExprError(f"unexpected {bad.group()!r} at position "
                        f"{bad.start()}")
    lead = len(text) - len(text.lstrip())
    body = text.strip()
    parsed = body.replace("^", "**")

    def where(p):
        """The position in src of position p of parsed."""
        return lead + p - parsed[:p].count("**")

    try:
        tree = ast.parse(parsed, mode="eval")
    except SyntaxError as e:
        p = e.offset - 1 if e.offset else len(parsed)
        raise ExprError(f"{e.msg} at position {where(p)}") from None

    def refuse(node, what=None):
        start, end = where(node.col_offset), where(node.end_col_offset)
        what = what or f"{src[start:end]!r} is outside the grammar"
        raise ExprError(f"{what} at position {start}")

    return _value(tree.body, env, refuse)


def _value(node, env, refuse):
    """The value of node over env; refuse(node[, what]) raises ExprError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return math.pi
        name = _ALIASES.get(node.id, node.id)
        if name not in VARIABLES:
            refuse(node, f"unknown name {node.id!r}")
        if name not in env:
            refuse(node, f"variable {name!r} not available here")
        return env[name]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_value(node.operand, env, refuse))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        a = _value(node.left, env, refuse)
        b = _value(node.right, env, refuse)
        try:
            return _BINARY[type(node.op)](a, b)
        except ZeroDivisionError:
            refuse(node, "division by zero")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1
            and not node.keywords):
        return _FUNCS[node.func.id](_value(node.args[0], env, refuse))
    refuse(node)

