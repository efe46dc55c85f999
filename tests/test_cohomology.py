import functools
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sheafcalc import cohomology
from sheafcalc.chow import (
    P3,
    QUINTIC,
    ChernData,
    ThreefoldData,
    chi_at_twist,
    line_chern,
    sum_chern,
    twist_chern,
)
from sheafcalc.cohomology import (
    CohomTable,
    DimEntry,
    bott_h,
    dist_sequence_tables,
    generic_dist_cohom,
    les_chase,
    line_table,
    omega1_table,
    tangent_table,
    _chase_single_twist,
    _solve,
)
from sheafcalc.dist import DistributionProfile, dist_chern
from sheafcalc.errors import EngineError, Inconsistent, NonIntegralChi
from sheafcalc.sheafdsl import chern_of, cohom_of, parse


def comb0(n, k):
    """The binomial, 0 unless 0 <= k <= n: the lemma's h^2 closed form, kept
    apart from the engine's Bott formula."""
    return comb(n, k) if 0 <= k <= n else 0


def serre_tangent_h(q, t):
    """h^q(TX(t)) on P^3 as h^(3-q)(Omega1(-t-4)) by Serre duality: the
    oracle for tangent_table, which applies the same duality to its columns."""
    return bott_h(1, 3 - q, -t - 4)


# the Chern data of the p-th cotangent power of P^3, p = 0..3
OMEGA = [chern_of(parse(src)) for src in ("O(0)", "Omega1", "twist(TX, -4)", "O(-4)")]


def test_bott_values():
    assert bott_h(1, 0, 2) == 6
    assert bott_h(1, 1, 0) == 1
    assert bott_h(0, 3, -4) == 1
    assert bott_h(1, 0, 5) == 84  # sections of the cotangent bundle at d+2, d=3
    assert bott_h(0, 0, 3) == 20
    assert bott_h(3, 3, 0) == 1


def test_bott_section_count_formula():
    # h^0(Omega1(d+2)) = (d+1)(d+3)(d+4)/2 for d >= 0
    for d in range(0, 30):
        assert bott_h(1, 0, d + 2) == (d + 1) * (d + 3) * (d + 4) // 2


def test_bott_serre_duality_grid():
    for p in range(4):
        for q in range(4):
            for t in range(-15, 16):
                assert bott_h(p, q, t) == bott_h(3 - p, 3 - q, -t)


def test_bott_vanishing_band():
    for p in range(4):
        for q in (1, 2):
            for t in range(-15, 16):
                expected = 1 if (q == p and t == 0) else 0
                assert bott_h(p, q, t) == expected


def test_bott_alternating_sum_is_chi():
    for p in range(4):
        c = OMEGA[p]
        for t in range(-15, 16):
            alt = sum((-1) ** q * bott_h(p, q, t) for q in range(4))
            assert alt == chi_at_twist(twist_chern(c, t, P3), 0, P3)


def test_serre_tangent_values():
    def h(q, t):
        n, m = tangent_table(t, t).columns[0][q]
        assert n == m
        return n

    assert h(2, -4) == 1
    assert h(0, 0) == 15
    assert h(1, -3) == 0
    assert h(2, -5) == 0
    assert h(0, 2) == 70


def test_tangent_table_matches_chi():
    table = tangent_table(-6, 3)
    assert (table.lo, len(table.columns)) == (-6, 10)
    for t in range(-6, 4):
        column = table.column(t)
        assert all(lo == hi for lo, hi in column)
        alt = sum((-1) ** i * lo for i, (lo, _) in enumerate(column))
        assert alt == chi_at_twist(table.chern, t, P3)


def test_atom_tables_are_the_bott_formula_entry_by_entry():
    # a table computes each column's one nonzero entry, not four bott_h calls
    with mock.patch.object(
        cohomology, "bott_h", side_effect=AssertionError("bott_h per entry")
    ):
        tables = [line_table(s, -60, 60) for s in (-9, -4, 0, 3)]
        tables += [omega1_table(-60, 60), tangent_table(-60, 60)]
    entries = [lambda i, t, s=s: bott_h(0, i, s + t) for s in (-9, -4, 0, 3)]
    entries += [lambda i, t: bott_h(1, i, t), serre_tangent_h]
    for table, h in zip(tables, entries):
        assert (table.lo, len(table.columns)) == (-60, 121)
        for t, column in zip(range(-60, 61), table.columns):
            assert column == tuple((h(i, t), h(i, t)) for i in range(4))
    assert line_table(0, 1, 0) == CohomTable(P3, line_chern(0))


# ---------------------------------------------------------------------------
# The dimension chaser.


def test_chase_forces_degree_one_quotient():
    ta, tb, tc = les_chase(dist_sequence_tables(1, 0, 0))
    assert tc.column(0) == ((0, 0),) * 4


def test_chase_stores_a_half_bounded_result_as_unknown():
    # with only h^3(C) = 0 known, the kernel bounds h^1(C) >= 1 from below
    # alone; a table holds no half-bounded pair, so it stores h^1(C) unknown
    xs = [(0, None)] * 11 + [(0, 0)]
    assert _chase_single_twist(xs, (0, -1, -1))[5] == (1, None)
    chern = ChernData(1, -4, 0, 0)
    assert chi_at_twist(chern, 0, P3) == -1
    tables = (
        CohomTable(P3, ChernData(0, 0, 0, 0)),
        CohomTable(P3, chern),
        CohomTable(P3, chern, {(3, 0): (0, 0)}),
    )
    tc = les_chase(tables)[2]
    assert tc.column(0) == ((0, None), (0, None), (0, None), (0, 0))


def test_chase_degree_two_h1_is_one():
    tc = les_chase(dist_sequence_tables(2, 0, 0))[2]
    assert tc.column(0) == ((0, 0), (1, 1), (1, 1), (0, 0))


def _single_entry_table(chern, i, t, value, spread):
    # all entries of the spread known zero except one
    entries = {
        (j, s): (value, value) if (j, s) == (i, t) else (0, 0)
        for j in range(4)
        for s in spread
    }
    return CohomTable(P3, chern, entries)


def _contains(pair, n):
    lo, hi = pair
    return lo <= n and (hi is None or n <= hi)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 3), (4, 2)])
def test_chase_undetermined_connecting_map_width(m, n):
    # quotient with h^1 = m sits next to sub with h^2 = n; the connecting
    # map between them is free, so both middle entries get a box of width
    # min(m, n)
    sub = _single_entry_table(
        sum_chern([OMEGA[2]] * n, P3), 2, 0, n, [0]
    )
    quot = _single_entry_table(
        sum_chern([OMEGA[1]] * m, P3), 1, 0, m, [0]
    )
    middle = CohomTable(
        P3, sum_chern([sub.chern, quot.chern], P3), {}
    )
    chased = les_chase((sub, middle, quot))[1]
    h1, h2 = chased.column(0)[1:3]
    assert h1[1] - h1[0] == min(m, n)
    assert h2[1] - h2[0] == min(m, n)
    # the split sequence realizes the upper ends
    assert _contains(h1, m) and _contains(h2, n)


def test_chase_inconsistent_data_raises():
    a = line_table(0, 0, 0)
    c = line_table(0, 0, 0)
    bad_entries = {(i, 0): (3, 3) if i == 0 else (0, 0) for i in range(4)}
    b = CohomTable(P3, sum_chern([line_chern(0)] * 2, P3), bad_entries)
    with pytest.raises(Inconsistent):
        les_chase((a, b, c))


def _les_chase_by_chi(tables):
    # les_chase with each chi read from chi_at_twist, the closed form at one
    # twist, after the chase at t - 1 and before the chase at t
    ta, tb, tc = tables
    twists = [
        t for table in tables for t in range(table.lo, table.lo + len(table.columns))
    ]
    lo = min(twists, default=0)
    chains = []
    for t in range(lo, max(twists, default=-1) + 1):
        chis = tuple(chi_at_twist(table.chern, t, table.X) for table in tables)
        xs = [x for x3 in zip(ta.column(t), tb.column(t), tc.column(t)) for x in x3]
        chains.append([
            (0, None) if x[1] is None else x for x in _chase_single_twist(xs, chis)
        ])
    return tuple(
        CohomTable.of_columns(ta.X, table.chern, lo, [tuple(c[j::3]) for c in chains])
        for j, table in enumerate(tables)
    )


def _engine_outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return exc.name, str(exc)


# a profile on which chi(O(t)) is 0 at t = 0 and 1/6 at t = 1
ODD = ThreefoldData("odd", 1, 0, 0, 0)

small_chern_data = st.builds(
    ChernData,
    rank=st.integers(0, 3),
    c1=st.integers(-3, 3),
    n2=st.integers(-6, 6),
    n3=st.integers(-6, 6),
)
column_entries = st.one_of(
    st.just((0, None)),
    st.just((0, None)),
    st.integers(0, 3).map(lambda n: (n, n)),
    st.tuples(st.integers(0, 3), st.integers(1, 3)).map(lambda p: (p[0], p[0] + p[1])),
)


@st.composite
def sequence_tables(draw):
    # three tables over their own runs of zero to three twists, B's Chern
    # data the sum of A's and C's so that chi is additive wherever defined
    X = draw(st.sampled_from([P3, QUINTIC, ODD]))
    line_sums = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
        lambda ts: sum_chern([line_chern(t) for t in ts], X)
    )
    a, c = (draw(st.one_of(small_chern_data, line_sums)) for _ in range(2))
    tables = []
    for chern in (a, sum_chern([a, c], X), c):
        width = draw(st.integers(0, 3))
        columns = [tuple(draw(column_entries) for _ in range(4)) for _ in range(width)]
        tables.append(CohomTable.of_columns(X, chern, draw(st.integers(-3, 3)), columns))
    return tuple(tables)


@given(sequence_tables())
@settings(max_examples=300, deadline=None)
def test_les_chase_matches_chi_read_at_each_twist(tables):
    assert _engine_outcome(les_chase, tables) == _engine_outcome(_les_chase_by_chi, tables)


@pytest.mark.parametrize("h0s,expected", [
    ((1, 0), Inconsistent), ((1, 1), Inconsistent),
    ((0, 0), NonIntegralChi), ((0, 1), NonIntegralChi),
])
def test_a_twist_has_its_chi_after_the_chase_before_it(h0s, expected):
    # 0 -> O -> O + O -> O -> 0 on ODD over twists 0 and 1; A's h^0 = 1
    # contradicts chi = 0 at twist 0, and chi(O(1)) = 1/6
    o = line_chern(0)
    assert chi_at_twist(o, 0, ODD) == 0
    with pytest.raises(NonIntegralChi, match="chi = 1/6 is not an integer on 'odd'"):
        chi_at_twist(o, 1, ODD)
    zeros = ((0, 0),) * 4
    ta = CohomTable.of_columns(ODD, o, 0, [((n, n),) + zeros[1:] for n in h0s])
    tb = CohomTable.of_columns(ODD, sum_chern([o, o], ODD), 0, [zeros, zeros])
    tables = (ta, tb, CohomTable(ODD, o))
    with pytest.raises(expected):
        les_chase(tables)
    assert _engine_outcome(les_chase, tables) == _engine_outcome(_les_chase_by_chi, tables)


def test_les_chase_reads_no_chi_past_the_last_twist():
    # chi(O(1)) on ODD is 1/6; a chase that ends at twist 0 never reads it
    o = line_chern(0)
    zeros = ((0, 0),) * 4
    tables = tuple(
        CohomTable.of_columns(ODD, chern, 0, [zeros])
        for chern in (o, sum_chern([o, o], ODD), o)
    )
    assert les_chase(tables) == tables


def _truth_tables(a_twists, c_twists, lo, hi):
    a = [line_chern(t) for t in a_twists]
    c = [line_chern(t) for t in c_twists]

    def dims(parts, i, t):
        return sum(bott_h(0, i, s.c1 + t) for s in parts)

    def table(parts, chern):
        entries = {
            (i, t): (n, n)
            for i in range(4)
            for t in range(lo, hi + 1)
            for n in [dims(parts, i, t)]
        }
        return CohomTable(P3, chern, entries)

    ta = table(a, sum_chern(a, P3))
    tc = table(c, sum_chern(c, P3))
    tb = table(a + c, sum_chern(a + c, P3))
    return ta, tb, tc


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_chase_sound_on_split_line_bundle_ses(a_twists, c_twists, data):
    # blank or widen random entries of a genuine (split) sequence of line
    # bundle sums; everything the chaser still claims must contain the truth
    lo, hi = -1, 1
    truth = _truth_tables(a_twists, c_twists, lo, hi)
    masked = []
    for table in truth:
        entries = {}
        for t in range(table.lo, table.lo + len(table.columns)):
            for i, (lo, hi) in enumerate(table.column(t)):
                mode = data.draw(st.sampled_from(["keep", "drop", "widen"]))
                if mode == "keep":
                    entries[(i, t)] = (lo, hi)
                elif mode == "widen":
                    pad_lo = data.draw(st.integers(0, 2))
                    pad_hi = data.draw(st.integers(0, 2))
                    entries[(i, t)] = (max(0, lo - pad_lo), hi + pad_hi)
        masked.append(CohomTable(table.X, table.chern, entries))
    chased = les_chase(tuple(masked))
    for true_table, out in zip(truth, chased):
        for t in range(true_table.lo, true_table.lo + len(true_table.columns)):
            for (n, _), pair in zip(true_table.column(t), out.column(t)):
                assert _contains(pair, n)
    # idempotence: a second pass is a fixed point
    rechased = les_chase(chased)
    for first, second in zip(chased, rechased):
        assert (first.lo, first.columns) == (second.lo, second.columns)


def _chase_outcome(chase, xs, chis):
    # the CLI prints the message of Inconsistent, so it is part of the outcome
    try:
        return chase(list(xs), chis)
    except Inconsistent as exc:
        return ("Inconsistent", str(exc))


unknown_or_box = st.one_of(
    st.just((0, None)),
    st.tuples(st.integers(0, 12), st.integers(0, 5)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
)


ANY_MODE = ("keep", "widen", "drop")


@st.composite
def chase_inputs(draw):
    if draw(st.booleans()):
        # free intervals around nothing in particular, additive chis
        xs = draw(st.lists(unknown_or_box, min_size=12, max_size=12))
        a, c = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
        return xs, (a, a + c, c)
    return draw(exact_chain_inputs())


@st.composite
def exact_chain_inputs(draw, modes=(ANY_MODE,) * 3):
    # an exact chain from map ranks, with each entry of term j kept, widened
    # or dropped as modes[j] allows
    rs = [0] + draw(st.lists(st.integers(0, 5), min_size=11, max_size=11)) + [0]
    truth = [rs[k] + rs[k + 1] for k in range(12)]
    xs = []
    for k, v in enumerate(truth):
        mode = draw(st.sampled_from(modes[k % 3]))
        if mode == "keep":
            xs.append((v, v))
        elif mode == "widen":
            below, above = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            xs.append((max(0, v - below), v + above))
        else:
            xs.append((0, None))
    chis = tuple(
        truth[j] - truth[3 + j] + truth[6 + j] - truth[9 + j] for j in range(3)
    )
    return xs, chis


@given(chase_inputs())
@settings(max_examples=400, deadline=None)
def test_chase_kernel_matches_reference(case):
    # every column, realizable or not, is the projection of its exact chains,
    # and the closed forms answer as the solver does
    xs, chis = case
    out = _chase_outcome(_chase_single_twist, xs, chis)
    _assert_is_the_projection(out, xs, chis)
    assert _chase_outcome(_solve, xs, chis) == out


def _alternating(column):
    return column[0] - column[1] + column[2] - column[3]


def _bott_column(sheaf, t):
    kind, arg = sheaf
    if kind == "lines":
        return [sum(bott_h(0, i, s + t) for s in arg) for i in range(4)]
    if kind == "Omega1":
        return [bott_h(1, i, arg + t) for i in range(4)]
    return [serre_tangent_h(i, arg + t) for i in range(4)]


bott_sheaves = st.one_of(
    st.tuples(st.just("lines"), st.lists(st.integers(-8, 8), min_size=1, max_size=4)),
    st.tuples(st.sampled_from(["Omega1", "TX"]), st.integers(-8, 8)),
)


@st.composite
def one_free_term(draw):
    # two exact terms, either small values or real Bott columns at one twist,
    # and a free first (ker) or last (coker) term; chis sometimes off by one,
    # either not additive or not matching an exact term's column
    if draw(st.booleans()):
        small = st.lists(st.integers(0, 6), min_size=4, max_size=4)
        known = [draw(small), draw(small)]
    else:
        t = draw(st.integers(-60, 60))
        known = [_bott_column(draw(bott_sheaves), t) for _ in range(2)]
    free = draw(st.sampled_from([0, 2]))
    terms = list(known)
    terms.insert(free, None)
    chis = [0 if col is None else _alternating(col) for col in terms]
    fault = draw(st.sampled_from(["none", "sum", "term"]))
    if fault == "term":
        chis[draw(st.sampled_from([1, 2 - free]))] += draw(st.sampled_from([-1, 1]))
    chis[free] = chis[1] - chis[2 - free]
    if fault == "sum":
        chis[draw(st.integers(0, 2))] += draw(st.sampled_from([-1, 1]))
    xs = [
        (0, None) if terms[j] is None else (terms[j][i], terms[j][i])
        for i in range(4)
        for j in range(3)
    ]
    return xs, tuple(chis)


# an exact first or last term, the other two free
TWO_FREE_MODES = [(("keep",), ("drop",), ("drop",)), (("drop",), ("drop",), ("keep",))]


@st.composite
def two_free_terms(draw):
    # an exact first or last term from an exact chain, the other two free;
    # then sometimes one exact entry is off by one, with or without its chi
    # following it, or its chi and the middle's are off by one together
    exact = draw(st.sampled_from([0, 2]))
    xs, chis = draw(exact_chain_inputs(TWO_FREE_MODES[exact // 2]))
    chis = list(chis)
    fault = draw(st.sampled_from(["none", "entry", "follow", "chi"]))
    if fault in ("entry", "follow"):
        k = draw(st.sampled_from(range(exact, 12, 3)))
        v = max(0, xs[k][0] + draw(st.sampled_from([-1, 1])))
        xs[k] = (v, v)
    delta = 0
    if fault == "follow":
        delta = _alternating([lo for lo, _ in xs[exact::3]]) - chis[exact]
    if fault == "chi":
        delta = draw(st.sampled_from([-1, 1]))
    chis[exact] += delta
    chis[1] += delta
    return xs, tuple(chis)


def _by_the_solver(xs, chis):
    # the chaser with its exact-end columns sent to the solver too
    with mock.patch.object(cohomology, "_solve_exact_end", _solve):
        return _chase_single_twist(xs, chis)


# A brute-force oracle: the projection of every exact chain inside the boxes
# with the given Euler characteristics, which every answer is held to.


def _chain_projection(xs, chis, cap=5, spare=11):
    """The (min, max) of each x[k] over every exact chain x0..x11 inside the
    boxes xs whose terms have Euler characteristics chis, with at most spare
    capped ranks nonzero; None if there is no such chain.

    A depth-first search over the ranks r[1..11], each bounded by its finite
    neighbours or by cap if it has none.  It is memoised on (k, r[k], the
    terms' alternating sums over x[0..k-1], spare), so shared tails are
    searched once, and cut where x[k..11] cannot bring a sum to its Euler
    characteristic.
    """
    bound = [0]
    for k in range(1, 12):
        finite = [hi for _, hi in xs[k - 1:k + 1] if hi is not None]
        bound.append(min(finite, default=cap))
    bound.append(0)
    # reach[k][j]: the least and largest alternating sum of term j over
    # x[k..11], each x[k] in its box and at most bound[k] + bound[k + 1]
    reach = [[(0, 0)] * 3]
    for k in range(11, -1, -1):
        lo, hi = xs[k]
        top = bound[k] + bound[k + 1] if hi is None else min(hi, bound[k] + bound[k + 1])
        row = list(reach[0])
        low, high = row[k % 3]
        row[k % 3] = (low + lo, high + top) if k // 3 % 2 == 0 else (low - top, high - lo)
        reach.insert(0, row)

    @functools.lru_cache(maxsize=None)
    def tail(k, r, sums, spare):
        # the projection of x[k..11] over the chains that go on from r[k] = r
        if any(not low <= chi - s <= high
               for (low, high), chi, s in zip(reach[k], chis, sums)):
            return None
        if k == 12:
            return ()
        lo, hi = xs[k]
        top = bound[k + 1] if hi is None else min(bound[k + 1], hi - r)
        capped = hi is None and k < 11 and xs[k + 1][1] is None
        if capped and not spare:
            top = 0
        found = None
        for nxt in range(max(0, lo - r), top + 1):
            x = r + nxt
            after = list(sums)
            after[k % 3] += x if k // 3 % 2 == 0 else -x
            rest = tail(k + 1, nxt, tuple(after), spare - (capped and nxt > 0))
            if rest is not None:
                here = ((x, x),) + rest
                found = here if found is None else tuple(
                    (min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(found, here)
                )
        return found

    projection = tail(0, 0, (0, 0, 0), spare)
    return None if projection is None else list(projection)


@given(st.one_of(exact_chain_inputs(), *map(exact_chain_inputs, TWO_FREE_MODES)))
@settings(max_examples=300, deadline=None)
def test_chase_contains_every_exact_chain(case):
    # the chain the inputs were drawn from is among those found, and nothing
    # but the exact chains' projection is
    xs, chis = case
    _assert_is_the_projection(_chase_outcome(_chase_single_twist, xs, chis), xs, chis)


@st.composite
def closed_form_inputs(draw):
    # an exact first or last term, the other end free and the middle exact
    # or boxed (each entry kept, widened or dropped), from an exact chain;
    # then sometimes one exact entry is off by one, with the chis following
    # it, or one chi is off by one, or the middle's chi and the free end's
    # move together, which a box may or may not absorb
    free = draw(st.sampled_from([0, 2]))
    modes = [("keep",), draw(st.sampled_from([("keep",), ANY_MODE])), ("keep",)]
    modes[free] = ("drop",)
    xs, chis = draw(exact_chain_inputs(tuple(modes)))
    chis = list(chis)
    fault = draw(st.sampled_from(["none", "entry", "chi", "middle"]))
    if fault == "entry":
        k = draw(st.sampled_from([k for k, (lo, hi) in enumerate(xs) if lo == hi]))
        v = max(0, xs[k][0] + draw(st.sampled_from([-1, 1])))
        chis[k % 3] += (-1) ** (k // 3) * (v - xs[k][0])
        xs[k] = (v, v)
        chis[free] = chis[1] - chis[2 - free]
    if fault == "chi":
        chis[draw(st.integers(0, 2))] += draw(st.sampled_from([-1, 1]))
    if fault == "middle":
        delta = draw(st.sampled_from([-6, -3, -1, 1, 3, 6]))
        chis[1] += delta
        chis[free] += delta
    return xs, tuple(chis)


def _vertex_bound(xs, chis):
    # a column's matrix is totally unimodular, so the rows a vertex of its
    # polyhedron solves have an inverse of entries 0 and +-1: its ranks are at
    # most the sum of the absolute right-hand sides of one bound per entry and
    # of the chi_A and chi_C rows, which imply chi_B's
    return sum(lo if hi is None else hi for lo, hi in xs) + abs(chis[0]) + abs(chis[2])


def _assert_is_the_projection(out, xs, chis):
    """out is the projection of the exact chains, wherever the oracle's rank
    cap does not bind.

    The oracle caps only a rank between two free entries.  Each of its
    bounds, as a function of the cap, is convex (a least value) or concave (a
    greatest value), and integral, so a bound equal at caps c and c + 1 holds
    at every larger cap: it is the exact chains' own.  A bound that moves is
    only held to contain the wider oracle's.

    The cap doubles from 5 while a chain may still need a larger one.  The
    vertex bound decides whether there is any chain: a realizable column has
    a vertex, whose ranks lie within it.  A capped rank meets only the chi
    rows and the lower bounds of its half-bounded neighbours, and a vertex's
    nonzero ranks have independent columns, so at most two more than there
    are such neighbours are nonzero, which the search there may assume.
    """
    cap, limit = 5, _vertex_bound(xs, chis)
    projection = _chain_projection(xs, chis, cap)
    while projection is None and 2 * cap < limit:
        cap *= 2
        projection = _chain_projection(xs, chis, cap)
    if projection is None:
        spare = 2 + sum(lo > 0 for lo, hi in xs if hi is None)
        if _chain_projection(xs, chis, limit, spare) is None:
            assert out[0] == "Inconsistent"
            return
        cap = limit
        projection = _chain_projection(xs, chis, cap)
    assert out[0] != "Inconsistent"
    wider = _chain_projection(xs, chis, cap + 1)
    for (lo, hi), (low, high), (lower, higher) in zip(out, projection, wider):
        assert lo == low if low == lower else lo <= lower
        if high == higher:
            assert hi == high
        else:
            assert hi is None or higher <= hi


@given(closed_form_inputs())
@settings(max_examples=300, deadline=None)
def test_closed_form_is_the_projection_of_the_exact_chains(case):
    xs, chis = case
    with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        out = _chase_outcome(_chase_single_twist, xs, chis)
    _assert_is_the_projection(out, xs, chis)


@given(st.one_of(one_free_term(), two_free_terms(), closed_form_inputs()))
@settings(max_examples=800, deadline=None)
def test_closed_form_matches_the_solver(case):
    xs, chis = case
    expected = _chase_outcome(_by_the_solver, xs, chis)
    # the closed form must answer these columns without the solver
    with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        assert _chase_outcome(_chase_single_twist, xs, chis) == expected


def test_a_boxed_middle_is_solved_to_the_exact_chains():
    # A exact, B boxed and C free: B^1 - B^2 = 4 leaves (4, 0) or (5, 1), and
    # C^1 = B^1 - 3 + s_1 + s_2 is at least 3 on both, by the closed form
    # and by the solver alike
    xs = [(0, 0), (3, 3), (0, None), (3, 3), (4, 5), (0, None),
          (2, 2), (0, 1), (0, None), (3, 3), (4, 4), (0, None)]
    chis = (-4, -5, -1)
    assert _solve(list(xs), chis)[5] == (3, 7)
    with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        out = _chase_single_twist(list(xs), chis)
    assert out[5] == (3, 7)
    assert out == _chain_projection(xs, chis)
    # read backwards, the same column is a free first term and an exact last
    reversed_chis = (-chis[2], -chis[1], -chis[0])
    assert _chase_single_twist(xs[::-1], reversed_chis) == out[::-1]


def _exact_middle_answer(a, b):
    # C's entries when A and B are exact and C free, written out directly:
    # C^i = B^i - A^i + s_i + s_(i+1) with s_0 = s_4 = 0 and each other s_i
    # in [(A^i - B^i)^+, A^i], so it is least at each s_i's least value
    least = [0] + [max(0, a[i] - b[i]) for i in (1, 2, 3)] + [0]
    a = list(a) + [0]
    return [
        (b[i] - a[i] + least[i] + least[i + 1], b[i] + a[i + 1] - (a[0] if i == 0 else 0))
        for i in range(4)
    ]


big_dims = st.one_of(st.integers(0, 12), st.integers(0, 10**330))


@given(
    st.lists(big_dims, min_size=4, max_size=4),
    st.lists(big_dims, min_size=4, max_size=4),
    st.sampled_from(["none", "order", "chi"]),
    st.integers(1, 10**330),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_an_exact_middle_has_the_exact_middle_formulas(a, b, fault, delta, mirror):
    # A and B exact with A^0 <= B^0, C free, additive chis; or A^0 > B^0, or
    # chi_B off by delta with chi_C following, neither of which a chain allows
    if (a[0] > b[0]) != (fault == "order"):
        a[0], b[0] = b[0], a[0]
    assume(fault != "order" or a[0] > b[0])
    chis = [_alternating(a), _alternating(b)]
    if fault == "chi":
        chis[1] += delta
    chis.append(chis[1] - chis[0])
    xs = [x for i in range(4) for x in ((a[i], a[i]), (b[i], b[i]), (0, None))]
    expected = list(xs)
    expected[2::3] = _exact_middle_answer(a, b)
    if mirror:
        xs, chis, expected = xs[::-1], (-chis[2], -chis[1], -chis[0]), expected[::-1]
    with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        if fault == "none":
            assert _chase_single_twist(list(xs), tuple(chis)) == expected
        else:
            with pytest.raises(Inconsistent, match="no exact sequence realizes"):
                _chase_single_twist(list(xs), tuple(chis))


def test_a_coker_or_ker_of_a_chased_subtree_is_never_sent_to_the_solver():
    # ker(TX(1) -> O(43)) is boxed at 6 of these 7 twists, so the outer ker
    # has an exact first term, a boxed middle and a free last term there
    e = parse("ker(ker(TX(1) -> O(43)) -> O(42))")
    with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        table = cohom_of(e, (-3, 3))
    assert table.column(-2)[:2] == ((0, 4), (25581, 25585))
    # at twists near +-10^110 the entries pass 10^330, too large for a float
    for twists in [(10**110, 10**110 + 2), (-10**110 - 2, -10**110)]:
        with mock.patch.object(cohomology, "_solve_exact_end", _solve):
            solved = cohom_of(e, twists)
        with mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
            assert cohom_of(e, twists) == solved


def test_chase_rejects_non_additive_chis():
    # exactness forces chi_A - chi_B + chi_C = 0; here it is 22
    xs = [(0, None), (7, 10), (0, None), (0, None), (0, None), (6, 6),
          (0, None), (0, None), (0, None), (3, 4), (0, 3), (3, 3)]
    with pytest.raises(Inconsistent, match="not additive"):
        _chase_single_twist(xs, (7, -9, 6))


# chases each column in a fresh interpreter, which a timeout can stop, and
# prints what each raised and the seconds it took
_CHASE_CHILD = (
    "import json, sys, time\n"
    "from sheafcalc.cohomology import _chase_single_twist\n"
    "results = []\n"
    "for xs, chis in json.loads(sys.argv[1]):\n"
    "    start, outcome = time.perf_counter(), None\n"
    "    try:\n"
    "        _chase_single_twist([tuple(x) for x in xs], chis)\n"
    "    except Exception as exc:\n"
    "        outcome = type(exc).__name__\n"
    "    results.append([outcome, time.perf_counter() - start])\n"
    "print(json.dumps(results))\n"
)

# additive chis, yet no exact sequence realizes these columns: interval
# propagation raised their lower bounds in small steps, taking time linear in
# B^0's bound K, and answered the last one; the solver refuses each at once
UNREALIZABLE = [
    ([(0, None), bound, (0, None), (10, 13), (2, 3), (0, None),
      (8, 8), (8, 8), (2, 6), (0, None), (0, None), (2, 2)], (-2, 1, 3))
    for bound in [(0, None), (0, 10**3), (0, 10**5), (0, 10**300)]
] + [
    ([(0, None), (4, 7), (5, 7), (0, None), (4, 4), (9, 11),
      (0, None), (0, None), (2, 6), (3, 8), (0, None), (0, None)], (-7, -17, -10)),
]


def test_an_unrealizable_column_is_refused_at_once():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
    child = subprocess.run(
        [sys.executable, "-c", _CHASE_CHILD, json.dumps(UNREALIZABLE)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    results = json.loads(child.stdout)
    assert len(results) == len(UNREALIZABLE)
    for outcome, seconds in results:
        assert outcome == "Inconsistent"
        assert seconds < 0.1
    # within the vertex bound no chain exists, so none exists at all
    xs, chis = UNREALIZABLE[-1]
    assert _chain_projection(xs, chis, _vertex_bound(xs, chis), 2) is None


# ---------------------------------------------------------------------------
# Closed forms for the generic distribution quotient.


def _lemma_checks(d, p, entries):
    if p <= d - 1:
        assert entries[0] == DimEntry(0, 0)
    h1 = 1 if p == d - 2 else 0
    assert entries[1] == DimEntry(h1, h1)
    if p >= d - 4:
        h2 = comb0(2 * d - p - 1, 3)
        assert entries[2] == DimEntry(h2, h2)
        assert entries[3] == DimEntry(0, 0)
    if p >= 2 * d - 3:
        assert entries[2] == DimEntry(0, 0)


def _chased_quotient(d, p):
    tables = dist_sequence_tables(d, p, p)
    xs = [table.column(p)[i] for i in range(4) for table in tables]
    chis = tuple(chi_at_twist(table.chern, p, P3) for table in tables)
    narrowed = _chase_single_twist(xs, chis)
    return [narrowed[3 * i + 2] for i in range(4)]


# the window of twists on which the closed form is held to the chase
GRID = [(d, p) for d in range(0, 13) for p in range(d - 40, 2 * d + 5)]


def test_generic_dist_grid_matches_lemma_and_chase():
    # every entry is exact and lies in the interval that the chase derives
    # from the defining sequence, so it equals that interval where it is exact
    sharper = 0
    for d, p in GRID:
        entries = generic_dist_cohom(d, p)
        _lemma_checks(d, p, entries)
        for i, (lo, hi) in enumerate(_chased_quotient(d, p)):
            assert entries[i].status == "known"
            value = entries[i].lo
            assert lo <= value and (hi is None or value <= hi)
            sharper += lo != hi
    assert sharper > 0


def test_dist_sequence_quotient_has_the_distribution_chern_data():
    # generic_dist_cohom takes F's Chern data from dist_chern; the sequence
    # route gives the same cubic polynomials in d, so d <= 40 checks them all
    for d in range(0, 41):
        quotient = dist_sequence_tables(d, 0, 0)[2]
        assert quotient.chern == dist_chern(DistributionProfile(P3, 2 - d))


def test_generic_dist_cohom_never_chases():
    with mock.patch.object(
        cohomology, "les_chase", side_effect=AssertionError("chased")
    ), mock.patch.object(cohomology, "_solve", side_effect=AssertionError("solved")):
        for d, p in GRID:
            assert all(e.status == "known" for e in generic_dist_cohom(d, p).values())


def test_generic_dist_examples():
    assert generic_dist_cohom(2, 0)[1] == DimEntry(1, 1)
    assert generic_dist_cohom(1, 2)[2] == DimEntry(0, 0)
    assert generic_dist_cohom(3, 0)[2] == DimEntry(10, 10)
    assert generic_dist_cohom(0, 0)[0] == DimEntry(5, 5)


def test_generic_dist_chi_consistency():
    for d, p in GRID:
        chern = ChernData(2, 2 - d, d * d + 2, d**3 + 2 * d * d + 2 * d)
        entries = generic_dist_cohom(d, p)
        assert all(entries[i].status == "known" for i in range(4))
        alt = sum((-1) ** i * entries[i].lo for i in range(4))
        assert alt == chi_at_twist(chern, p, P3)


def test_generic_dist_deep_twist_is_exact():
    # the chase leaves the connecting map free here; Serre duality does not
    assert _chased_quotient(2, -4)[2:] == [(20, 35), (0, 15)]
    entries = generic_dist_cohom(2, -4)
    assert entries[2] == DimEntry(20, 20)
    assert entries[3] == DimEntry(0, 0)
