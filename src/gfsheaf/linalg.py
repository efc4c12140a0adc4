"""Exact linear algebra over F2 (default) and Q.

Scalars are plain Python objects: ints 0/1 for F2; for Q, fractions.Fraction
where a reduction divides and Python ints where it does not.  Vectors and
columns are kept sparse as {row: scalar} with no stored zeros.  No floating
point anywhere in this module.

Two kernels share one pivot rule, the largest nonzero row.  Reducer divides
in the field; it runs every reduction over F2, and over Q the kernel, solve,
cohomology basis and rank_of_columns.  IntegerReducer runs the cohomology
ranks and barcodes of complexes over Q, which read only pivot rows, on
columns of Python ints without division (fraction-free elimination), so
they build no Fraction; pivot_reducer and pivot_columns pick the kernel of
those reductions and its columns by field, and integer_scalars reads
integer coefficients in a field (ints over Q, as IntegerReducer takes them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class _GF2:
    """The field with two elements; scalars are the ints 0 and 1."""

    name = "F2"

    def __repr__(self):
        return self.name

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


class _QQ:
    """The rationals; scalars are fractions.Fraction."""

    name = "Q"

    def __repr__(self):
        return self.name

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
    """Left-to-right pivot elimination with division in the field: every
    reduction over F2, and over Q the kernels, solves and cohomology bases,
    which read back reduced values, and rank_of_columns (the cohomology
    ranks and barcodes of complexes over Q run on IntegerReducer).

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


class IntegerReducer:
    """Left-to-right pivot elimination over Q on columns of Python ints,
    without division, for the reductions that read only pivot rows: ranks
    and barcodes.  It is integer-preserving elimination by gcd cross-
    multiplication with content removal (not Bareiss's exact-division
    scheme, Math. Comp. 22, 1968, though it is related).

    With a = pcol[p] and b = col[p], a step does col -= (b // a) * pcol when
    a divides b, else col = (a // g) * col - (b // g) * pcol with g =
    gcd(a, b).  Either keeps col a nonzero integer multiple of the column
    Reducer(QQ) holds at the same step, so the pivot rows, and with them
    ranks, clearing sets and bars, are those of Reducer(QQ).  A column that
    went through a scaling step is divided by the gcd of its entries before
    it is stored: it is then the primitive integer multiple of the column
    Reducer(QQ) stores, which bounds the stored entries.  No such bound
    holds inside one add(): each scaling step multiplies the column by
    a // g.  ``pivots`` maps each pivot row to its stored column.
    """

    def __init__(self):
        self.pivots = {}

    def add(self, col):
        """Reduce col (in place) and keep it if it is nonzero; returns its
        pivot row or None."""
        pivots, scaled = self.pivots, False
        while col:
            p = max(col)
            pcol = pivots.get(p)
            if pcol is None:
                if scaled:
                    g = gcd(*col.values())
                    if g != 1:
                        for i, v in col.items():
                            col[i] = v // g
                pivots[p] = col
                return p
            a, b = pcol[p], col[p]
            if b % a:
                g = gcd(a, b)
                s, b = a // g, b // g
                for i, v in col.items():
                    col[i] = v * s
                scaled = True
            else:
                b //= a
            # col -= b * pcol; an entry of pcol missing from col stays nonzero
            for i, v in pcol.items():
                w = col.get(i, 0) - b * v
                if w:
                    col[i] = w
                else:
                    del col[i]
        return None


def integer_column(col):
    """The Q column col (Fractions or ints) times the lcm of its
    denominators, as a dict of ints without zeros: a nonzero integer
    multiple of col, so it has col's pivot rows under IntegerReducer."""
    m = lcm(*(v.denominator for v in col.values()))
    return {i: v.numerator * (m // v.denominator) for i, v in col.items()
            if v}


def pivot_reducer(field):
    """A fresh kernel for the reductions that read only pivot rows, ranks
    and barcodes: Reducer(GF2) over F2, IntegerReducer over Q.  Its columns
    are those of pivot_columns."""
    return Reducer(GF2) if field is GF2 else IntegerReducer()


def pivot_columns(cols, field):
    """The list of columns cols (field scalars) as columns of
    pivot_reducer(field): cols itself over F2, the integer_column of each
    over Q."""
    return cols if field is GF2 else list(map(integer_column, cols))


def integer_scalars(ints, field):
    """The list ints of Python ints as scalars of field: their residues
    over F2; over Q the ints themselves, which both kernels take
    (IntegerReducer reduces them as they are, Reducer(QQ) divides through
    Fraction)."""
    return [c & 1 for c in ints] if field is GF2 else ints


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
