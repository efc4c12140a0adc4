"""The Morse elimination of IndexComplex.barcode against the pair-by-pair
dict elimination it replaced.

reference_morse below is that elimination unchanged (self is the
IndexComplex).  The critical ids and every Morse coboundary row must agree
exactly in the field on the random acyclic matchings of the matching sweep
(F2 and Q), on hand-built matchings over Q with non-unit matched entries,
a long chain of pairs and a branching gradient DAG, and on every matched
barcode of verify-all.
"""

import contextlib
import io

import numpy as np
import pytest

from gfsheaf.cli import main
from gfsheaf.complexes import IndexComplex
from gfsheaf.linalg import GF2, QQ, add_scaled
from test_complexes import index_complex, random_matched_cases


# ---------------------------------------------------------------------------
# the pair-by-pair elimination (reference)

def reference_morse(self, lower, upper, src):
    """The critical ids (in id order) and their Morse coboundaries, a
    dict critical -> {critical: scalar}, of a checked matching.

    Gaussian elimination of the pairs in their order, read on the
    critical columns: a critical c whose coboundary holds a * t, t =
    upper[j], s = lower[j], trades it for -(a / d(s)[t]) * (d(s) -
    d(s)[t] * t), whose upper entries belong to later pairs; lower
    entries are dropped.  pending[j] collects every critical's multiple
    of upper[j]; a pair that no critical reaches costs one dict pop.
    The entries of every d(s) are sorted into their three kinds
    (critical, the pair's own upper, a later upper) once, with numpy.
    """
    F, n, one = self.field, len(self.deg), self.field.one()
    role = np.full(n, -1, dtype=np.int64)     # -1: critical, -2: lower
    role[lower] = -2
    role[upper] = np.arange(len(upper))
    crit = np.flatnonzero(role == -1)
    coef = self.coef.tolist()
    scalar = {c: F.coerce(c) for c in set(coef)}
    kind = role[self.tgt]
    # the entries of the critical generators, in entry order
    morse, pending = {c: {} for c in crit.tolist()}, {}
    for e in np.flatnonzero(role[src] == -1).tolist():
        c, k, v = int(src[e]), int(kind[e]), scalar[coef[e]]
        if k == -1:
            morse[c][int(self.tgt[e])] = v
        elif k >= 0:
            add_scaled(pending.setdefault(k, {}), {c: v}, one, F)
    # the entries of the lower generators, by pair, then in entry order
    low_of = np.full(n, -1, dtype=np.int64)
    low_of[lower] = np.arange(len(lower))
    pair = low_of[src]
    sel = np.flatnonzero(pair >= 0)
    sel = sel[np.argsort(pair[sel], kind="stable")]
    pair, kind_sel = pair[sel], kind[sel]
    u = [scalar[coef[e]] for e in sel[kind_sel == pair].tolist()]

    def by_pair(part, ids):
        """(offsets per pair, ids, scalars) of the entries in part."""
        e = sel[part]
        ptr = np.searchsorted(pair[part], np.arange(len(lower) + 1))
        return (ptr.tolist(), ids[e].tolist(),
                [scalar[coef[x]] for x in e.tolist()])

    cptr, ch, cv = by_pair(kind_sel == -1, self.tgt)     # critical
    uptr, uj, uv = by_pair(kind_sel > pair, kind)       # later pairs
    for j in range(len(u)):
        mult = pending.pop(j, None)
        if not mult:
            continue
        inv = F.neg(F.inv(u[j]))
        if inv != one:
            mult = {c: F.mul(a, inv) for c, a in mult.items()}
        if cptr[j] < cptr[j + 1]:
            crit_part = dict(zip(ch[cptr[j]:cptr[j + 1]],
                                 cv[cptr[j]:cptr[j + 1]]))
            for c, k in mult.items():
                add_scaled(morse[c], crit_part, k, F)
        for e in range(uptr[j], uptr[j + 1]):
            add_scaled(pending.setdefault(uj[e], {}), mult, uv[e], F)
    return crit, {c: row for c, row in morse.items() if row}


def assert_same_morse(K, lower, upper):
    """The elimination of K under (lower, upper) equals the reference's:
    the same critical ids and the same rows, exact in the field."""
    src = K.src()
    crit, rows = K._morse(lower, upper, src)
    ref_crit, ref_rows = reference_morse(K, lower, upper, src)
    assert crit.tolist() == ref_crit.tolist()
    assert rows == ref_rows


# ---------------------------------------------------------------------------
# random acyclic matchings

@pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
def test_the_elimination_matches_the_reference_on_the_sweep(field):
    matched = 0
    for _, K, value, (lower, upper) in random_matched_cases(field):
        K._check_matching(value, lower, upper, K.src())
        assert_same_morse(K, lower, upper)
        matched += bool(len(lower))
    assert matched > 23


# ---------------------------------------------------------------------------
# hand-built matchings over Q: degree 0 (c*, s*) -> degree 1 (u*, t); every
# value 0 but t's, which is 1; pair k matches s_k with u_k

def _hand_built(d, pairs):
    """The IndexComplex over Q of the coboundaries d, its values and the
    matching pairs (lower name, upper name) on ids."""
    names = sorted({g for g in d} | {h for cb in d.values() for h in cb},
                   key=lambda g: (g[0] in "ut", g))
    deg = {g: int(g[0] in "ut") for g in names}
    K = index_complex(names, deg, d, QQ)
    value = np.array([1.0 if g == "t" else 0.0 for g in names])
    ids = names.index
    return K, value, (np.array([ids(s) for s, _ in pairs], dtype=np.int64),
                      np.array([ids(u) for _, u in pairs], dtype=np.int64))


HAND_BUILT = {
    # matched entries 2 and -3: d_M(c) = (1 - 1) t, d_M(c2) = 1/3 t
    "non-unit": ({"c": {"u0": 3, "t": 1}, "c2": {"u1": 1},
                  "s0": {"u0": 2, "u1": 2}, "s1": {"u1": -3, "t": 1}},
                 [("s0", "u0"), ("s1", "u1")]),
    # a chain of five pairs, matched entries 2, -1, -3, 1, -2: the chain
    # carries c's u0 entry to -60 t, so d_M(c) = 0, and c2's u2 entry to
    # 10 t, so d_M(c2) = 11 t
    "chain": ({"c": {"u0": 1, "t": 60}, "c2": {"u2": 1, "t": 1},
               "s0": {"u0": 2, "u1": 4}, "s1": {"u1": -1, "u2": 3},
               "s2": {"u2": -3, "u3": -6}, "s3": {"u3": 1, "u4": 5},
               "s4": {"u4": -2, "t": 2}},
              [("s0", "u0"), ("s1", "u1"), ("s2", "u2"), ("s3", "u3"),
               ("s4", "u4")]),
    # s0 reaches u1 and u2, whose lowers both reach u3: Y[0] = 4 t over
    # the two branches, so d_M(c) = 0 and d_M(c2) = 2 t
    "branching": ({"c": {"u0": 1, "t": -4}, "c2": {"u2": 1},
                   "s0": {"u0": 2, "u1": 1, "u2": -1},
                   "s1": {"u1": 1, "u3": 3}, "s2": {"u2": -3, "u3": 3},
                   "s3": {"u3": -1, "t": 2}},
                  [("s0", "u0"), ("s1", "u1"), ("s2", "u2"), ("s3", "u3")]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_a_hand_built_matching_over_q_keeps_the_bars(name):
    K, value, (lower, upper) = _hand_built(*HAND_BUILT[name])
    K.check()
    bars = K.barcode(value)
    assert bars.bars
    assert K.barcode(value, (lower, upper)) == bars
    assert_same_morse(K, lower, upper)


def test_the_hand_built_morse_rows_are_exact():
    want = {"non-unit": {"c2": {"t": QQ.coerce(1) / 3}},
            "chain": {"c2": {"t": QQ.coerce(11)}},
            "branching": {"c2": {"t": QQ.coerce(2)}}}
    for name, rows in want.items():
        d, pairs = HAND_BUILT[name]
        K, value, (lower, upper) = _hand_built(d, pairs)
        crit, got = K._morse(lower, upper, K.src())
        named = {K.name(c): {K.name(h): v for h, v in row.items()}
                 for c, row in got.items()}
        assert named == rows, name


# ---------------------------------------------------------------------------
# every matched barcode of verify-all

@pytest.mark.parametrize("seed, scale", [(1, 1), (2, 1), (3, 1), (4, 1),
                                         (1, 2)])
def test_every_matched_barcode_of_verify_all_matches_the_reference(
        tmp_path, monkeypatch, seed, scale):
    morse = IndexComplex._morse
    seen = []

    def compared(self, lower, upper, src):
        got = morse(self, lower, upper, src)
        ref = reference_morse(self, lower, upper, src)
        assert got[0].tolist() == ref[0].tolist()
        assert got[1] == ref[1]
        seen.append(len(lower))
        return got

    monkeypatch.setattr(IndexComplex, "_morse", compared)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify-all", "--seed", str(seed), "--grid-scale", str(scale),
              "--out-dir", str(tmp_path)])
    assert sum(1 for p in seen if p) >= 10
