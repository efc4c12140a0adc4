"""Tiny expression grammar for scenario inputs.

Supported: + - * / ^ (power), unary minus, parentheses, sin cos exp,
numeric literals, pi, and variables.  Base variables are named x (alias x1)
and y (alias x2); fiber variables xi (alias xi1) and eta (alias xi2).
Evaluation is vectorized over numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALIASES = {"x1": "x", "x2": "y", "xi1": "xi", "xi2": "eta"}
VARIABLES = ("x", "y", "xi", "eta")


class ExprError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


def _tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^()":
            toks.append((c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] in ".eE" or
                             (src[j] in "+-" and src[j - 1] in "eE")):
                j += 1
            toks.append(("num", i, float(src[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", i, src[i:j]))
            i = j
        else:
            raise ExprError(f"unexpected character {c!r}", i)
    toks.append(("end", n))
    return toks


class _Parser:
    def __init__(self, src):
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def eat(self, kind=None):
        t = self.toks[self.k]
        if kind is not None and t[0] != kind:
            raise ExprError(f"expected {kind}, found {t[0]}", t[1])
        self.k += 1
        return t

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.eat()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.eat()[0]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.eat()
            return ("neg", self.unary())
        if self.peek()[0] == "+":
            self.eat()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.eat()
            expo = self.unary()
            return ("pow", base, expo)
        return base

    def atom(self):
        t = self.peek()
        if t[0] == "num":
            self.eat()
            return ("const", t[2])
        if t[0] == "name":
            self.eat()
            name = t[2]
            if name == "pi":
                return ("const", math.pi)
            if name in _FUNCS:
                self.eat("(")
                arg = self.expr()
                self.eat(")")
                return ("call", name, arg)
            name = _ALIASES.get(name, name)
            if name in VARIABLES:
                return ("var", name)
            raise ExprError(f"unknown name {t[2]!r}", t[1])
        if t[0] == "(":
            self.eat()
            node = self.expr()
            self.eat(")")
            return node
        raise ExprError(f"unexpected token {t[0]!r}", t[1])


def parse(src):
    p = _Parser(src)
    node = p.expr()
    p.eat("end")
    return node


def _eval(node, env):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        if node[1] not in env:
            raise ExprError(f"variable {node[1]!r} not available here", 0)
        return env[node[1]]
    if op == "neg":
        return -_eval(node[1], env)
    if op == "call":
        return _FUNCS[node[1]](_eval(node[2], env))
    a = _eval(node[1], env)
    b = _eval(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return np.power(a, b)
    raise AssertionError(op)


def evaluate(src_or_node, **env):
    node = parse(src_or_node) if isinstance(src_or_node, str) else src_or_node
    return _eval(node, env)
