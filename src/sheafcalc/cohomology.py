"""Exact sheaf-cohomology dimensions on projective 3-space.

Atoms are handled by the closed Bott formula; declared short exact sequences
are handled by a dimension chaser over the induced long exact sequence, in
closed form when the first or last term is unknown and the others exact, or
the first or last exact and the others unknown, by interval propagation
otherwise.  The chaser never guesses the rank of a connecting map:
when a rank is genuinely undetermined the answer stays an interval.  Tables
store each entry as the (lo, hi) pair the chaser reads and writes.
"""

from __future__ import annotations

from .chow import (
    P3,
    ChernData,
    ThreefoldData,
    chi_at_twist,
    chi_series,
    comb0,
    dual_chern,
    line_chern,
    ses_third,
    twist_chern,
)
from .errors import DomainError, Inconsistent, NotComputable
from .record import Record, _set

DIM = 3  # complex dimension of the ambient threefolds


class DimEntry(Record):
    """One cohomology dimension: known exactly, boxed in an interval, or unknown.

    The closed interval [lo, hi], hi None only in the unknown [0, infinity):
    the value generic_dist_cohom returns and the command line prints.
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

    @property
    def value(self) -> int:
        if self.hi != self.lo:
            raise DomainError(f"entry {self} has no exact value")
        return self.lo

    def __str__(self):
        if self.hi is None:
            return "?"
        if self.hi == self.lo:
            return str(self.lo)
        return f"{self.lo}..{self.hi}"


_FREE = (0, None)  # the unknown entry
_FREE_COLUMN = (_FREE,) * (DIM + 1)


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
    and refuses anything else as a key or an entry.  The Chern data gives the
    chaser the Euler characteristic of every twist as an exact cross-check.
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
            lo = min(twists)
            columns = [
                tuple(pairs.get((i, t), _FREE) for i in range(DIM + 1))
                for t in range(lo, max(twists) + 1)
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
        return comb0(t + DIM - p, t) * comb0(t - 1, p)
    if q == DIM and t < p - DIM:
        return comb0(-t + p, -t) * comb0(-t - 1, DIM - p)
    return 0


def line_h(X: ThreefoldData, i: int, t: int) -> int:
    """h^i(O(t)): exact on P^3; elsewhere only the vanishing h^1 is known."""
    if X.is_p3:
        return bott_h(0, i, t)
    if i == 1 and X.h1_line_vanishing:
        return 0
    raise NotComputable(
        f"h^{i} of line bundles is not computable on '{X.name}'"
    )


def serre_tangent_h(q: int, t: int) -> int:
    """h^q of the twisted tangent bundle of P^3, through Serre duality."""
    return bott_h(1, DIM - q, -t - 4)


def omega_chern(p: int) -> ChernData:
    """Chern data of the p-th cotangent power on P^3."""
    if p == 0:
        return line_chern(0)
    if p == 1:
        return dual_chern(P3.tangent_chern)
    if p == 2:
        # second power = tangent bundle twisted by the canonical class
        return twist_chern(P3.tangent_chern, -P3.cX, P3)
    if p == 3:
        return line_chern(-P3.cX)
    raise DomainError(f"p = {p} out of range 0..{DIM}")


# ---------------------------------------------------------------------------
# Ready-made all-known tables for the atoms of the expression language.


def _filled_table(chern, h, lo, hi) -> CohomTable:
    # the all-known table with entry h(i, t) >= 0 at each i and lo <= t <= hi
    columns = [
        tuple((n, n) for n in [h(i, t) for i in range(DIM + 1)])
        for t in range(lo, hi + 1)
    ]
    return CohomTable.of_columns(P3, chern, lo, columns)


def line_table(s: int, lo: int, hi: int) -> CohomTable:
    return _filled_table(line_chern(s), lambda i, t: bott_h(0, i, s + t), lo, hi)


def omega1_table(lo: int, hi: int) -> CohomTable:
    return _filled_table(omega_chern(1), lambda i, t: bott_h(1, i, t), lo, hi)


def tangent_table(lo: int, hi: int) -> CohomTable:
    return _filled_table(P3.tangent_chern, serre_tangent_h, lo, hi)


# ---------------------------------------------------------------------------
# The long-exact-sequence dimension chaser.
#
# For a short exact sequence A -> B -> C the twelve cohomology dimensions at a
# fixed twist sit in an exact chain x0 .. x11 (A^0, B^0, C^0, A^1, ...).
# Writing r[k] for the rank of the k-th map (r[0] = r[12] = 0 at the closed
# ends), a column is one linear system: exactness x[k] = r[k] + r[k+1] and the
# three Euler characteristics.  Each equation solved for each unknown is a
# rule of one shape, v = c + a + b - p, where the fixed r[0] = 0 stands in for
# a missing term.  The chaser runs interval propagation over these rules,
# intersecting only, so it is sound, monotone and idempotent by construction.
#
# Closed form for A, B exact and C free: with s_i = r[3i], the rank of
# C^(i-1) -> A^i (s_0 = s_4 = 0, which needs A^0 <= B^0), exactness at A^i and
# B^i leaves each s_i free in [max(0, A^i - B^i), A^i] and gives C^i =
# B^i - A^i + s_i + s_(i+1).  A free A is the same on the chain read backwards.
#
# Closed form for A exact and B, C free: the column is realizable iff A's
# alternating sum is chi_A (take the connecting maps zero and B = A + C, C
# any column with Euler characteristic chi_C), and the one bound exactness
# adds is B^0 >= A^0, as A^0 -> B^0 is injective.  Read backwards, C exact
# and A, B free gives B^3 >= C^3.  Other columns, such as an exact end with
# a boxed middle, are left to propagation.

# The rules (v, a, b, p, q): v = c[q] + a + b - p over variables x[k] = k and
# r[k] = 12 + k, with c the three chis, their negatives and 0.  Per k:
# x[k] = r[k] + r[k+1], r[k] = x[k] - r[k+1], r[k+1] = x[k] - r[k].  Then per
# sheaf j, its h^pos x[i] = (-1)^pos chi_j + x[a] + x[b] - x[p], where a and b
# are its h^q with q - pos odd and p is its h^(pos+2 mod 4).
_R0 = 12  # r[0], fixed at 0
_RULES = tuple(
    rule
    for k in range(12)
    for rule in (
        (k, 12 + k, 13 + k, _R0, 6),
        (12 + k, k, _R0, 13 + k, 6),
        (13 + k, k, _R0, 12 + k, 6),
    )
) + tuple(
    (3 * pos + j, 3 * ((pos + 1) % 4) + j, 3 * ((pos + 3) % 4) + j,
     3 * ((pos + 2) % 4) + j, j + 3 * (pos % 2))
    for j in range(3)
    for pos in range(4)
)
_EMPTY = "dimension propagation derived an empty interval"


def _check_additive(chis):
    if chis[0] - chis[1] + chis[2] != 0:
        # the chain's alternating sum is chi_A - chi_B + chi_C = r[0] - r[12]
        raise Inconsistent(
            f"Euler characteristics {tuple(chis)} are not additive"
        )


def _chase_single_twist(xs, chis):
    """Narrow 12 dimension intervals constrained by one long exact sequence.

    xs: list of 12 (lo, hi) intervals in chain order, hi None for unbounded;
    chis: the three exact Euler characteristics.  Returns the narrowed
    intervals; data no exact sequence realizes raises Inconsistent.  A column
    with a free first or last term and exact others, or an exact first or last
    term and free others, is solved in closed form, any other by propagation.
    """
    _check_additive(chis)
    if _free(xs, 2):
        if _exact(xs, 0, 1):
            return _solve_free_last(xs, chis)
        if _free(xs, 1) and _exact(xs, 0):
            return _solve_exact_first(xs, chis)
    if _free(xs, 0):
        # reversed, the chain is that of C^(3-i) -> B^(3-i) -> A^(3-i), whose
        # Euler characteristics are -chi_C, -chi_B, -chi_A
        reversed_chis = (-chis[2], -chis[1], -chis[0])
        if _exact(xs, 1, 2):
            return _solve_free_last(xs[::-1], reversed_chis)[::-1]
        if _free(xs, 1) and _exact(xs, 2):
            return _solve_exact_first(xs[::-1], reversed_chis)[::-1]
    return _propagate(xs, chis)


def _free(xs, j):
    """Whether every entry of term j is the unknown (0, None)."""
    return xs[j] == xs[j + 3] == xs[j + 6] == xs[j + 9] == _FREE


def _exact(xs, *terms):
    """Whether every entry of the given terms is an exact value."""
    return all(lo == hi for j in terms for lo, hi in xs[j::3])


def _solve_exact_first(xs, chis):
    """The closed form above: A exact, B and C free, chis additive."""
    a0, a1, a2, a3 = (lo for lo, _ in xs[0::3])
    if a0 - a1 + a2 - a3 != chis[0]:
        raise Inconsistent(_EMPTY)
    out = list(xs)
    out[1] = (a0, None)
    return out


def _solve_free_last(xs, chis):
    """The closed form above: A, B exact and C free, chis additive."""
    a0, a1, a2, a3 = (lo for lo, _ in xs[0::3])
    b0, b1, b2, b3 = (lo for lo, _ in xs[1::3])
    if a0 - a1 + a2 - a3 != chis[0] or b0 - b1 + b2 - b3 != chis[1] or a0 > b0:
        raise Inconsistent(_EMPTY)
    lo1, lo2, lo3 = max(0, a1 - b1), max(0, a2 - b2), max(0, a3 - b3)
    out = list(xs)
    out[2] = (b0 - a0 + lo1, b0 - a0 + a1)
    out[5] = (b1 - a1 + lo1 + lo2, b1 + a2)
    out[8] = (b2 - a2 + lo2 + lo3, b2 + a3)
    out[11] = (b3 - a3 + lo3, b3)
    return out


def _propagate(xs, chis):
    """Interval propagation over the rule table: every narrowing is a meet in
    place, and an empty one raises Inconsistent.  Bounds are kept in flat int
    lists, None for unbounded.

    A column's matrix, the exactness rows in r[1..11] and the three chi rows,
    is totally unimodular, so each vertex of its polyhedron has ranks at most
    S, the sum of the absolute right-hand sides (finite bounds and chis), and
    dimensions at most 2S.  Propagation is sound, so on a realizable column
    no lower bound passes 2S, and one that does raises Inconsistent.  Lower
    bounds then rise, and finite upper bounds fall, in whole steps between
    fixed limits, so the loop always ends.
    """
    _check_additive(chis)
    c = (*chis, -chis[0], -chis[1], -chis[2], 0)
    lo = [low for low, _ in xs] + [0] * 13
    hi = [high for _, high in xs] + [0] + [None] * 11 + [0]
    cap = 2 * (sum(lo) + sum(h for h in hi if h is not None) + sum(map(abs, chis)))
    changed = True
    while changed:
        changed = False
        for v, a, b, p, q in _RULES:
            new_lo = lo[v]
            if hi[p] is not None:
                w = c[q] + lo[a] + lo[b] - hi[p]
                if w > new_lo:
                    new_lo = w
            new_hi = hi[v]
            if hi[a] is not None and hi[b] is not None:
                w = c[q] + hi[a] + hi[b] - lo[p]
                if new_hi is None or w < new_hi:
                    new_hi = w
            if new_hi is not None and new_lo > new_hi:
                raise Inconsistent(_EMPTY)
            if new_lo != lo[v] or new_hi != hi[v]:
                if new_lo > cap:
                    raise Inconsistent(_EMPTY)
                lo[v], hi[v] = new_lo, new_hi
                changed = True
    return list(zip(lo[:12], hi[:12]))


def les_chase(
    tables: tuple[CohomTable, CohomTable, CohomTable],
) -> tuple[CohomTable, CohomTable, CohomTable]:
    """Propagate dimension constraints through a declared exact sequence.

    Takes the (already twisted) tables of the three terms and returns narrowed
    copies.  Entries are only ever tightened; an empty interval raises
    Inconsistent, signalling that the input data cannot sit in any exact
    sequence.  A kernel result bounded on one side only is stored unknown.
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
    # zip reads the twist first, so chi at t is evaluated, and may raise, after
    # the chase at t - 1, and never past the last twist
    chi_rows = zip(*(chi_series(table.chern, lo, table.X) for table in tables))
    chains = []
    for t, chis in zip(range(lo, stop), chi_rows):
        # chain order A^0, B^0, C^0, A^1, ...
        xs = [x for x3 in zip(ta.column(t), tb.column(t), tc.column(t)) for x in x3]
        chains.append([
            _FREE if x[1] is None else x for x in _chase_single_twist(xs, chis)
        ])
    return tuple(
        CohomTable.of_columns(ta.X, table.chern, lo, [tuple(c[j::3]) for c in chains])
        for j, table in enumerate(tables)
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
    from .dist import DistributionProfile, dist_chern

    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")

    def sections(t):  # h^0(F(t))
        return max(0, bott_h(1, 0, t + 2 - d) - comb0(t - 2 * d + 3, 3))

    h0, h3 = sections(p), sections(d - 6 - p)
    h1 = 1 if p == d - 2 else 0
    chern = dist_chern(DistributionProfile(P3, 2 - d))
    h2 = chi_at_twist(chern, p, P3) - h0 + h1 + h3
    return {i: DimEntry(n, n) for i, n in enumerate((h0, h1, h2, h3))}
