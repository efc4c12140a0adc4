"""Exact linear algebra over F2 (default) and Q.

Scalars are plain Python objects: ints 0/1 for F2, fractions.Fraction for Q.
Vectors and columns are kept sparse as {row: scalar} with no stored zeros.
No floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """A field of scalars with exact arithmetic."""

    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def coerce(self, a):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _GF2(Field):
    name = "F2"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) & 1

    def neg(self, a):
        return a & 1

    def mul(self, a, b):
        return a & b & 1

    def inv(self, a):
        if a & 1 == 0:
            raise ZeroDivisionError("inverse of 0 in F2")
        return 1

    def is_zero(self, a):
        return not a & 1

    def coerce(self, a):
        return int(a) & 1


class _QQ(Field):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def coerce(self, a):
        return Fraction(a)


GF2 = _GF2()
QQ = _QQ()

FIELDS = {"f2": GF2, "q": QQ}


def add_scaled(vec, other, c, field):
    """vec += c * other, in place on the sparse dict vec; zeros are dropped.

    Over F2 an odd c toggles the keys of other's odd entries and an even c
    changes nothing: the generic rule read mod 2, without method calls.
    """
    if field is GF2:
        if c & 1:
            for i, v in other.items():
                if v & 1 and vec.pop(i, None) is None:
                    vec[i] = 1
        return
    zero = field.zero()
    for i, v in other.items():
        w = field.add(vec.get(i, zero), field.mul(c, v))
        if w == zero:
            vec.pop(i, None)
        else:
            vec[i] = w


class Reducer:
    """Left-to-right pivot elimination, the one kernel behind every rank,
    kernel, solve, barcode and cohomology basis of the package.

    The pivot of a nonzero column is its largest row.  ``pivots`` maps each
    pivot row to ``(reduced column, combination or None)``; a combination
    records the reduced column as a sum of input columns.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def reduce(self, col, combo=None):
        """Clear the pivot of col (in place) against stored columns while it
        has one, repeating every step on combo.  Returns the pivot row left,
        or None when col reaches zero."""
        F, pivots = self.field, self.pivots
        while col:
            p = max(col)
            if p not in pivots:
                return p
            pcol, pcombo = pivots[p]
            c = F.neg(F.mul(col[p], F.inv(pcol[p])))
            add_scaled(col, pcol, c, F)
            if combo is not None:
                add_scaled(combo, pcombo, c, F)
        return None

    def add(self, col, combo=None):
        """Reduce col and keep it if it is nonzero; returns its pivot row or
        None."""
        p = self.reduce(col, combo)
        if p is not None:
            self.pivots[p] = (col, combo)
        return p


def _copy(col, field):
    """A copy of the sparse column col without the entries that are zero in
    field: the kernel trusts every stored entry to be nonzero, and over F2 an
    even entry is zero."""
    is_zero = field.is_zero
    return {i: v for i, v in col.items() if not is_zero(v)}


def rank_of_columns(cols, field=GF2):
    """Rank of a list of sparse columns (dicts row -> scalar), destructive-free."""
    red = Reducer(field)
    for col in cols:
        red.add(_copy(col, field))
    return len(red.pivots)


def kernel_of_columns(cols, field=GF2):
    """Basis of the kernel of the map sending e_j to cols[j].

    Returns a list of combination dicts {j: scalar}.
    """
    red = Reducer(field)
    kernel = []
    for j, col in enumerate(cols):
        combo = {j: field.one()}
        if red.add(_copy(col, field), combo) is None:
            kernel.append(combo)
    return kernel


def solve_columns(cols, targets, field=GF2):
    """Express each target (dict row->scalar) as a combination of cols.

    The columns are reduced once and every target is solved against that one
    reduction.  Returns one entry per target: a list of coefficients (one
    per column), or None if that target is inconsistent.
    """
    red = Reducer(field)
    for j, col in enumerate(cols):
        red.add(_copy(col, field), {j: field.one()})
    out = []
    for target in targets:
        # reduce leaves target + sum_j combo[j] * cols[j] == 0
        combo = {}
        if red.reduce(_copy(target, field), combo) is not None:
            out.append(None)
            continue
        sol = [field.zero()] * len(cols)
        for j, v in combo.items():
            sol[j] = field.neg(v)
        out.append(sol)
    return out
