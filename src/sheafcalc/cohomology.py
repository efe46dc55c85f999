"""Exact sheaf-cohomology dimensions on projective 3-space.

Atoms are handled by the closed Bott formula; declared short exact sequences
are handled by a dimension chaser over the induced long exact sequence, whose
answer at each twist is the projection of every exact chain the data allow.
A twist whose first term is exact and whose last term has no information, or
the other way round, is solved in closed form whatever the middle term; any
other by an exact simplex method.  The chaser never guesses the rank of a
connecting map: when a rank is genuinely undetermined the answer stays an
interval.  Tables store each entry as the (lo, hi) pair the chaser reads and
writes."""

from __future__ import annotations

from math import comb

from .chow import (
    P3,
    ChernData,
    ThreefoldData,
    chi_at_twist,
    chi_series,
    dual_chern,
    line_chern,
    ses_third,
    twist_chern,
)
from .errors import DomainError, Inconsistent
from .record import Record, _set

DIM = 3  # complex dimension of the ambient threefolds


class DimEntry(Record):
    """One cohomology dimension: known exactly, boxed in an interval, or unknown.

    The closed interval [lo, hi], hi None only in the unknown [0, infinity):
    the value generic_dist_cohom returns.
    """

    lo: int
    hi: int | None

    def __init__(self, lo: int, hi: int | None):
        # written out, as generic_dist_cohom builds four per grid cell
        if lo < 0:
            raise DomainError("dimension lower bound must be >= 0")
        if hi is None:
            if lo != 0:
                raise DomainError("half-bounded entries are not representable")
        elif hi < lo:
            raise DomainError("dimension interval is empty")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @property
    def status(self) -> str:
        if self.hi is None:
            return "unknown"
        if self.hi == self.lo:
            return "known"
        return "bounded"


_MAX_SPAN = 10_000  # twists in one run of columns, the command line's batch cap
_FREE = (0, None)  # the unknown entry
_FREE_COLUMN = (_FREE,) * (DIM + 1)


def _check_span(lo: int, hi: int) -> None:
    # each twist of a run lo..hi takes a column, so a run is refused before
    # any is built
    if hi - lo + 1 > _MAX_SPAN:
        raise DomainError(f"twists {lo}..{hi} span more than {_MAX_SPAN} columns")


def _key(key) -> tuple[int, int]:
    # a table key (i, twist): ints with 0 <= i <= 3; a bool is no int
    if isinstance(key, tuple) and len(key) == 2:
        i, t = key
        if type(i) is int and 0 <= i <= DIM and type(t) is int:
            return key
    raise DomainError(
        f"key {key!r} is not a pair (i, twist) of ints with 0 <= i <= {DIM}"
    )


def _pair(key, x) -> tuple[int, int | None]:
    # a table entry: ints 0 <= lo <= hi, or the unknown (0, None); a bool is
    # no int
    if isinstance(x, tuple) and len(x) == 2 and type(x[0]) is int:
        lo, hi = x
        if hi is None and lo == 0 or type(hi) is int and 0 <= lo <= hi:
            return lo, hi
    raise DomainError(
        f"entry {key} is not a pair 0 <= lo <= hi of ints or (0, None): {x!r}"
    )


class CohomTable(Record):
    """The cohomology of one sheaf at consecutive twists, with its Chern data.

    columns[k] is the column (h^0, .., h^3) at twist lo + k of (lo, hi) pairs,
    each the unknown (0, None) or ints 0 <= lo <= hi; column(t) returns them,
    and (0, None) outside that run.  CohomTable(X, chern, entries) reads a map
    (i, twist) -> (lo, hi), ints with 0 <= i <= 3, a missing key as unknown,
    and refuses anything else as a key or an entry, and a run of more than
    10,000 twists, as each twist in it takes a column.  The Chern data gives
    the chaser the Euler characteristic of every twist as an exact cross-check.
    """

    X: ThreefoldData
    chern: ChernData
    lo: int  # 0 when there are no columns, so that equal data compare equal
    columns: list[tuple[tuple[int, int | None], ...]]  # shared, never mutated

    def __init__(self, X: ThreefoldData, chern: ChernData, entries=None):
        lo, columns = 0, []
        if entries:
            pairs = {_key(key): _pair(key, x) for key, x in entries.items()}
            twists = [t for _, t in pairs]
            lo, hi = min(twists), max(twists)
            _check_span(lo, hi)
            columns = [
                tuple(pairs.get((i, t), _FREE) for i in range(DIM + 1))
                for t in range(lo, hi + 1)
            ]
        _set(self, "X", X)
        _set(self, "chern", chern)
        _set(self, "lo", lo)
        _set(self, "columns", columns)

    @classmethod
    def of_columns(cls, X, chern, lo: int, columns: list) -> "CohomTable":
        table = cls(X, chern)
        if columns:
            _set(table, "lo", lo)
            _set(table, "columns", columns)
        return table

    def column(self, t: int) -> tuple[tuple[int, int | None], ...]:
        k = t - self.lo
        return self.columns[k] if 0 <= k < len(self.columns) else _FREE_COLUMN


# ---------------------------------------------------------------------------
# Closed formulas on P^3.


def bott_h(p: int, q: int, t: int) -> int:
    """h^q of the p-th twisted cotangent power on P^3, by the Bott formula."""
    if not (0 <= p <= DIM and 0 <= q <= DIM):
        raise DomainError(f"(p, q) = ({p}, {q}) out of range 0..{DIM}")
    if q == p and t == 0:
        return 1
    if q == 0 and t > p:
        return comb(t + DIM - p, t) * comb(t - 1, p)
    if q == DIM and t < p - DIM:
        return comb(-t + p, -t) * comb(-t - 1, DIM - p)
    return 0


# ---------------------------------------------------------------------------
# Ready-made all-known tables for the atoms of the expression language.


_ZERO_COLUMN = ((0, 0),) * (DIM + 1)


def _bott_column(p: int, t: int) -> tuple[tuple[int, int], ...]:
    # the column (h^0, .., h^3) of the p-th cotangent power at twist t: as in
    # bott_h at most one entry is nonzero, and only that one is computed
    if t > p:
        q, n = 0, comb(t + DIM - p, t) * comb(t - 1, p)
    elif t < p - DIM:
        q, n = DIM, comb(p - t, -t) * comb(-t - 1, DIM - p)
    elif t == 0:
        q, n = p, 1
    else:
        return _ZERO_COLUMN
    column = [(0, 0)] * (DIM + 1)
    column[q] = (n, n)
    return tuple(column)


def line_table(s: int, lo: int, hi: int) -> CohomTable:
    _check_span(lo, hi)
    columns = [_bott_column(0, s + t) for t in range(lo, hi + 1)]
    return CohomTable.of_columns(P3, line_chern(s), lo, columns)


def omega1_table(lo: int, hi: int) -> CohomTable:
    _check_span(lo, hi)
    columns = [_bott_column(1, t) for t in range(lo, hi + 1)]
    return CohomTable.of_columns(P3, dual_chern(P3.tangent_chern), lo, columns)


def tangent_table(lo: int, hi: int) -> CohomTable:
    # Serre duality: h^q(T(t)) = h^(3-q)(Omega1(-t-4))
    _check_span(lo, hi)
    columns = [_bott_column(1, -t - 4)[::-1] for t in range(lo, hi + 1)]
    return CohomTable.of_columns(P3, P3.tangent_chern, lo, columns)


# ---------------------------------------------------------------------------
# The long-exact-sequence dimension chaser.
#
# For a short exact sequence A -> B -> C the twelve cohomology dimensions at a
# fixed twist sit in an exact chain x0 .. x11 (A^0, B^0, C^0, A^1, ...).
# Writing r[k] for the rank of the k-th map (r[0] = r[12] = 0 at the closed
# ends), a column is one linear system in r[1..11] >= 0: exactness x[k] =
# r[k] + r[k+1] within x[k]'s bounds and the three Euler characteristics.  Its
# matrix is totally unimodular, so each entry's least and largest value over
# the real solutions are those of the exact chains, and with no real solution
# there is no chain (Schrijver, Theory of Linear and Integer Programming,
# ch. 19).  The chaser answers each column with that projection, which makes
# it sound, sharp, monotone and idempotent.
#
# Closed form for A exact and C free, B anything: with s_i = r[3i], the rank
# of C^(i-1) -> A^i (s_0 = s_4 = 0, which needs A^0 <= B^0), exactness at A^i
# and B^i leaves each s_i free in [max(0, A^i - B^i), A^i] and gives C^i =
# B^i - A^i + s_i + s_(i+1).  C's alternating sum is then chi_B - chi_A
# whatever the s_i, so the only constraints on B are its box, B^0 >= A^0 and
# its own chi row, and the column is realizable iff A's alternating sum is
# chi_A and that set is not empty.  One +-1 equality on a box projects
# exactly: B^i is its box met with chi_B less the range of the other three
# terms.  C^i is largest at the largest B^i with s_i = A^i (0 for i = 0) and
# s_(i+1) = A^(i+1).  Its least value is the least of (B^i - A^i)^+ +
# (A^(i+1) - B^(i+1))^+ = max(0, B^i - A^i, A^(i+1) - B^(i+1), B^i - B^(i+1)
# - A^i + A^(i+1)) over B's pairs (B^i, B^(i+1)): their boxes and the band
# for B^i - B^(i+1) that the other two terms leave.  These are bounds on
# B^i, B^(i+1) and their difference, so a difference-constraint argument
# shows the least value is the largest of the four pieces' own minima.  The
# band may take its boxes' part at B's projected bounds, B^i's least less
# B^(i+1)'s largest, as no chain goes below it; that part is the sum of the
# middle two pieces, so the least C^i is (B^i's least - A^i)^+ + (A^(i+1) -
# B^(i+1)'s largest)^+, or the band chi_B leaves if that asks for more.  So
# every answer is the projection of the exact chains, whether the middle is
# exact or boxed.  A free A, C exact, is the same on the chain read backwards.
# Every other column is solved by the simplex method.

# an unrealizable column's message
_EMPTY = "no exact sequence realizes these dimensions"


def _chase_single_twist(xs, chis):
    """Narrow 12 dimension intervals constrained by one long exact sequence.

    xs: list of 12 (lo, hi) intervals in chain order, hi None for unbounded;
    chis: the three exact Euler characteristics.  Returns each entry's least
    and largest value over the exact chains inside the intervals, hi None if
    it has no largest; data no exact sequence realizes raises Inconsistent.
    A column with an exact first term and a free last term, or the other way
    round, is solved in closed form, any other by the simplex method.
    """
    if chis[0] - chis[1] + chis[2] != 0:
        # the chain's alternating sum is chi_A - chi_B + chi_C = r[0] - r[12]
        raise Inconsistent(f"Euler characteristics {tuple(chis)} are not additive")
    a0, b0, c0, a1, b1, c1, a2, b2, c2, a3, b3, c3 = xs
    if (c0 == c1 == c2 == c3 == _FREE and a0[0] == a0[1] and a1[0] == a1[1]
            and a2[0] == a2[1] and a3[0] == a3[1]):
        return _solve_exact_end(xs, chis)
    if (a0 == a1 == a2 == a3 == _FREE and c0[0] == c0[1] and c1[0] == c1[1]
            and c2[0] == c2[1] and c3[0] == c3[1]):
        # reversed, the chain is that of C^(3-i) -> B^(3-i) -> A^(3-i), whose
        # Euler characteristics are -chi_C, -chi_B, -chi_A
        return _solve_exact_end(xs[::-1], (-chis[2], -chis[1], -chis[0]))[::-1]
    return _solve(xs, chis)


def _solve_exact_end(xs, chis):
    """The closed form above: A exact, C free, chis additive.  None stands
    for a missing upper bound throughout."""
    a0, a1, a2, a3 = xs[0][0], xs[3][0], xs[6][0], xs[9][0]
    (l0, h0), (l1, h1), (l2, h2), (l3, h3) = xs[1], xs[4], xs[7], xs[10]
    chi = chis[1]
    if a0 - a1 + a2 - a3 != chis[0]:
        raise Inconsistent(_EMPTY)
    l0 = max(l0, a0)
    # B's projection: by B^0 - B^1 + B^2 - B^3 = chi_B, a term's lower bound
    # needs the upper bound of the other term of its parity, and its upper
    # bound those of both terms of the other parity
    k0 = l0 if h2 is None else max(l0, chi + l1 + l3 - h2)
    k1 = l1 if h3 is None else max(l1, l0 + l2 - h3 - chi)
    k2 = l2 if h0 is None else max(l2, chi + l1 + l3 - h0)
    k3 = l3 if h1 is None else max(l3, l0 + l2 - h1 - chi)
    u0, u1, u2, u3 = h0, h1, h2, h3
    if h1 is not None and h3 is not None:
        u0 = chi + h1 + h3 - l2 if h0 is None else min(h0, chi + h1 + h3 - l2)
        u2 = chi + h1 + h3 - l0 if h2 is None else min(h2, chi + h1 + h3 - l0)
    if h0 is not None and h2 is not None:
        u1 = h0 + h2 - chi - l3 if h1 is None else min(h1, h0 + h2 - chi - l3)
        u3 = h0 + h2 - chi - l1 if h3 is None else min(h3, h0 + h2 - chi - l1)
    if (u0 is not None and k0 > u0 or u1 is not None and k1 > u1
            or u2 is not None and k2 > u2 or u3 is not None and k3 > u3):
        raise Inconsistent(_EMPTY)
    # C^i = B^i - A^i + s_i + s_(i+1), least and largest as above; k0 >= A^0
    c0 = k0 - a0 + (0 if u1 is None else max(0, a1 - u1))
    c1 = max(0, k1 - a1) + (0 if u2 is None else max(0, a2 - u2))
    c2 = max(0, k2 - a2) + (0 if u3 is None else max(0, a3 - u3))
    if h2 is not None:
        c0 = max(c0, chi - h2 + l3 - a0 + a1)
    if h3 is not None:
        c1 = max(c1, l0 - h3 - chi - a1 + a2)
    if h0 is not None:
        c2 = max(c2, chi - h0 + l1 - a2 + a3)
    return [
        xs[0], (k0, u0), (c0, None if u0 is None else u0 - a0 + a1),
        xs[3], (k1, u1), (c1, None if u1 is None else u1 + a2),
        xs[6], (k2, u2), (c2, None if u2 is None else u2 + a3),
        xs[9], (k3, u3), (max(0, k3 - a3), u3),
    ]


def _solve(xs, chis):
    """The projection of the exact chains by the two-phase simplex method over
    r[1..11] >= 0, chis additive: one row per finite bound, with a slack, and
    the chi_A and chi_C rows, whose sum gives chi_B's; then the least and the
    largest value of each entry that is not exact.  Each row also has an
    artificial column for the first phase.  The tableau stays totally
    unimodular, so every pivot is +-1 and every entry an int, however large."""
    x = [[int(i in (k - 1, k)) for i in range(11)] for k in range(12)]  # in r
    spec = [(x[k], sign, b) for k, (lo, hi) in enumerate(xs)
            for sign, b in ((-1, lo), (1, hi)) if b is not None and (b or sign == 1)]
    spec += [([a - b + c - d for a, b, c, d in zip(*x[j::3])], 0, chis[j])
             for j in (0, 2)]
    m, n = len(spec), 11 + len(spec)
    rows = []
    for i, (coeffs, sign, b) in enumerate(spec):
        s = -1 if b < 0 else 1  # a right-hand side >= 0, as the first basis needs
        row = [s * c for c in coeffs] + [0] * (2 * m) + [s * b]
        row[11 + i], row[n + i] = sign, 1
        rows.append(row)
    # a slack of coefficient 1 starts in the basis, an artificial elsewhere
    basis = [11 + i if sign == 1 else n + i for i, (_, sign, _) in enumerate(spec)]
    if _minimise(rows, basis, [0] * n + [1] * m):
        raise Inconsistent(_EMPTY)
    for i in range(m):
        if basis[i] >= n:
            # an artificial left at 0 gives way: every row has a slack or is a
            # chi row, so the other columns have full row rank
            _pivot(rows, basis, i, next(j for j in range(n) if rows[i][j]))
    rows = [row[:n] + row[-1:] for row in rows]
    out = list(xs)
    for k, (lo, hi) in enumerate(xs):
        if lo != hi:
            most = _minimise(rows, basis, [-c for c in x[k]])
            out[k] = (_minimise(rows, basis, x[k]), None if most is None else -most)
    return out


def _minimise(rows, basis, cost):
    """The least of cost . v over the tableau rows, from their feasible basis,
    by Bland's rule, which never cycles; None if there is no least."""
    cost = cost + [0] * (len(rows[0]) - 1 - len(cost))
    z = cost + [0]  # the reduced costs, then minus the objective
    for row, b in zip(rows, basis):
        if cost[b]:
            z = [v - cost[b] * w for v, w in zip(z, row)]
    while True:
        j = next((j for j, v in enumerate(z[:-1]) if v < 0), None)
        if j is None:
            return -z[-1]
        # a positive entry is 1, so each ratio is a right-hand side; ties go
        # to the least basic column
        rise = [(row[-1], basis[i], i) for i, row in enumerate(rows) if row[j] > 0]
        if not rise:
            return None
        _pivot(rows + [z], basis, min(rise)[2], j)


def _pivot(rows, basis, i, j):
    # column j enters the basis at row i, whose entry there is +-1
    pivot = rows[i]
    if pivot[j] < 0:
        pivot[:] = [-v for v in pivot]
    for row in rows:
        f = row[j]
        if f and row is not pivot:
            row[:] = [v - f * w for v, w in zip(row, pivot)]
    basis[i] = j


def les_chase(
    tables: tuple[CohomTable, CohomTable, CohomTable],
) -> tuple[CohomTable, CohomTable, CohomTable]:
    """Chase dimension constraints through a declared exact sequence.

    Takes the (already twisted) tables of the three terms and returns narrowed
    copies.  Entries are only ever tightened; an empty interval raises
    Inconsistent, signalling that the input data cannot sit in any exact
    sequence.  A kernel result bounded on one side only is stored unknown.
    The three tables' twists may span at most 10,000 columns.
    """
    ta, tb, tc = tables
    if not ta.X == tb.X == tc.X:
        raise DomainError("the three tables must live on the same threefold")
    # the twists of all three tables, which may have none
    spans = [
        (table.lo, table.lo + len(table.columns)) for table in tables if table.columns
    ]
    lo = min((start for start, _ in spans), default=0)
    stop = max((end for _, end in spans), default=0)
    _check_span(lo, stop - 1)
    # each table's columns at twists lo..stop - 1, unknown outside its run
    runs = []
    for table in tables:
        start = table.lo if table.columns else lo
        end = start + len(table.columns)
        runs.append(
            [_FREE_COLUMN] * (start - lo) + table.columns + [_FREE_COLUMN] * (stop - end)
        )
    out_a, out_b, out_c = [], [], []
    # zip reads the columns first, so chi at t is evaluated, and may raise,
    # after the chase at t - 1, and never past the last twist
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), chis in zip(
        *runs, zip(*(chi_series(table.chern, lo, table.X) for table in tables))
    ):
        # chain order A^0, B^0, C^0, A^1, ..., chased and split back into the
        # three tables' columns
        a0, b0, c0, a1, b1, c1, a2, b2, c2, a3, b3, c3 = [
            _FREE if x[1] is None else x
            for x in _chase_single_twist(
                [a0, b0, c0, a1, b1, c1, a2, b2, c2, a3, b3, c3], chis
            )
        ]
        out_a.append((a0, a1, a2, a3))
        out_b.append((b0, b1, b2, b3))
        out_c.append((c0, c1, c2, c3))
    return tuple(
        CohomTable.of_columns(ta.X, table.chern, lo, columns)
        for table, columns in zip(tables, (out_a, out_b, out_c))
    )


# ---------------------------------------------------------------------------
# The cohomology of the tangent sheaf of a generic degree-d distribution,
# obtained from the sequence  0 -> O(-2d) -> Omega1(2-d) -> F -> 0.


def dist_sequence_tables(d: int, lo: int, hi: int) -> tuple[CohomTable, CohomTable, CohomTable]:
    """Tables of the defining sequence of a generic degree-d tangent sheaf,
    with the quotient left for the chaser to fill in."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    ta = line_table(-2 * d, lo, hi)
    tb = omega1_table(lo + 2 - d, hi + 2 - d)  # Omega1(2-d) over lo..hi
    tb = CohomTable.of_columns(P3, twist_chern(tb.chern, 2 - d, P3), lo, tb.columns)
    tc = CohomTable(P3, ses_third(ta.chern, tb.chern, None, P3))
    return ta, tb, tc


def generic_dist_cohom(d: int, p: int) -> dict[int, DimEntry]:
    """All four cohomology dimensions of F(p) for a generic degree-d
    distribution on P^3, exact at every twist p.

    h^0 and h^1 follow from the sequence, as H^1(O(t)) = H^2(O(t)) = 0.  F is
    reflexive of rank 2 with c1 = 2 - d, so F* = F(d-2) (Hartshorne, Stable
    reflexive sheaves, Prop. 1.10), and Serre duality gives h^3(F(p)) =
    h^0(F*(-p-4)) = h^0(F(d-6-p)); h^2 is what the Euler characteristic of
    F's Chern data, from dist.dist_chern, leaves.
    """
    from .dist import _p3_profile, dist_chern

    chern = dist_chern(_p3_profile(d))  # refuses a negative degree

    def sections(t):  # h^0(F(t))
        return max(0, bott_h(1, 0, t + 2 - d) - bott_h(0, 0, t - 2 * d))

    h0, h3 = sections(p), sections(d - 6 - p)
    h1 = 1 if p == d - 2 else 0
    h2 = chi_at_twist(chern, p, P3) - h0 + h1 + h3
    return {i: DimEntry(n, n) for i, n in enumerate((h0, h1, h2, h3))}
