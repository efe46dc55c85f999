"""Exact reference answers for checking the engine, written from the formulas
and kept independent of ``src/``.

Expressions are the benchmark's own trees (see ``workloads``).  The interval
table of an expression follows the rules of the seed engine exactly: Bott
values at atoms, Serre duality for duals of locally free shapes, shifts for
twists and reflexive duals, interval sums, and the long-exact-sequence
propagation at ``coker``/``ker`` nodes.  Its intervals are therefore the ones
the seed commit printed, and a correct engine prints equal or narrower ones.
Intervals are ``(lo, hi)`` pairs; ``hi is None`` means unbounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

UNKNOWN = (0, None)
TX_CHERN = (3, 4, 6, 4)
OMEGA1_CHERN = (3, -4, 6, -4)


class Inconsistent(Exception):
    """The propagation emptied an interval: no exact sequence fits the data."""


# ---------------------------------------------------------------------------
# Chern data (rank, c1, c2.H, deg c3) on P^3, through the Chern character.


def _ch(c):
    r, c1, n2, n3 = c
    return (
        Fraction(r),
        Fraction(c1),
        Fraction(c1 * c1 - 2 * n2, 2),
        Fraction(c1**3 - 3 * c1 * n2 + 3 * n3, 6),
    )


def _chern(ch):
    r, c1 = ch[0], ch[1]
    n2 = (c1 * c1 - 2 * ch[2]) / 2
    n3 = (6 * ch[3] - c1**3 + 3 * c1 * n2) / 3
    out = (r, c1, n2, n3)
    if any(x.denominator != 1 for x in out):
        raise ValueError(f"non-integral Chern data {out}")
    return tuple(int(x) for x in out)


def twist(c, t):
    """Chern data of E(t): the Chern character times exp(tH)."""
    e0, e1, e2, e3 = _ch(c)
    return _chern(
        (e0, e1 + e0 * t, e2 + e1 * t + e0 * t * t / 2,
         e3 + e2 * t + e1 * t * t / 2 + e0 * Fraction(t**3, 6))
    )


def add(a, b, sign=1):
    return _chern(tuple(x + sign * y for x, y in zip(_ch(a), _ch(b))))


def chi(c, t):
    """chi(E(t)) on P^3 by Hirzebruch-Riemann-Roch, td = 1 + 2H + 11/6 H^2 + H^3."""
    r, c1, n2, n3 = c
    six = (
        r * t**3
        + (3 * c1 + 6 * r) * t * t
        + (3 * (c1 * c1 - 2 * n2) + 12 * c1 + 11 * r) * t
        + c1**3 - 3 * c1 * n2 + 3 * n3 + 6 * (c1 * c1 - 2 * n2) + 11 * c1 + 6 * r
    )
    if six % 6:
        raise ValueError(f"non-integral chi for {c} at twist {t}")
    return six // 6


def chern_of(e):
    kind = e[0]
    if kind == "O":
        return (1, e[1], 0, 0)
    if kind == "TX":
        return TX_CHERN
    if kind == "Omega1":
        return OMEGA1_CHERN
    if kind == "twist":
        return twist(chern_of(e[1]), e[2])
    if kind == "dual":
        r, c1, n2, n3 = chern_of(e[1])
        return (r, -c1, n2, -n3)
    if kind == "rdual":
        r, c1, n2, n3 = chern_of(e[1])
        return (2, -c1, n2, n3)
    if kind == "sum":
        return add(chern_of(e[1]), chern_of(e[2]))
    if kind == "coker":
        return add(chern_of(e[2]), chern_of(e[1]), -1)
    if kind == "ker":
        return add(chern_of(e[1]), chern_of(e[2]), -1)
    raise ValueError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Bott's formula on P^3: h^q(Omega^p(t)).


def _c(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def bott(p, q, t):
    if q == p and t == 0:
        return 1
    if q == 0 and t > p:
        return _c(t + 3 - p, t) * _c(t - 1, p)
    if q == 3 and t < p - 3:
        return _c(p - t, -t) * _c(-t - 1, 3 - p)
    return 0


def line_h(q, t):
    return bott(0, q, t)


def omega1_h(q, t):
    return bott(1, q, t)


def tangent_h(q, t):
    return bott(1, 3 - q, -t - 4)  # Serre duality: TX = Omega1^* and K = O(-4)


# ---------------------------------------------------------------------------
# The interval propagation over one long exact sequence.


def _meet(a, b):
    lo = max(a[0], b[0])
    hi = b[1] if a[1] is None else a[1] if b[1] is None else min(a[1], b[1])
    if hi is not None and lo > hi:
        raise Inconsistent("empty interval")
    return (lo, hi)


def _plus(a, b):
    return (a[0] + b[0], None if a[1] is None or b[1] is None else a[1] + b[1])


def _minus(a, b):
    return (
        0 if b[1] is None else max(0, a[0] - b[1]),
        None if a[1] is None else a[1] - b[0],
    )


def chase_twist(xs, chis):
    """Narrow the 12 intervals (A^0, B^0, C^0, A^1, ...) of the long exact
    sequence of 0 -> A -> B -> C -> 0 at one twist to their fixpoint under
    x_k = r_k + r_(k+1) (r_k the rank of the k-th map, r_0 = r_12 = 0) and
    the three Euler characteristics."""
    xs = list(xs)
    rs = [(0, 0)] + [UNKNOWN] * 11 + [(0, 0)]
    changed = True

    def narrow(store, idx, new):
        nonlocal changed
        met = _meet(store[idx], new)
        if met != store[idx]:
            store[idx] = met
            changed = True

    while changed:
        changed = False
        for k in range(12):
            narrow(xs, k, _plus(rs[k], rs[k + 1]))
            narrow(rs, k, _minus(xs[k], rs[k + 1]))
            narrow(rs, k + 1, _minus(xs[k], rs[k]))
        for j in range(3):
            for pos in range(4):
                # x_pos = (-1)^pos (chi_j - sum over k != pos of (-1)^k x_k)
                lo = hi = (-1) ** pos * chis[j]
                for k in range(4):
                    if k == pos:
                        continue
                    cell = xs[3 * k + j]
                    if (k - pos) % 2 == 0:
                        cell = (None if cell[1] is None else -cell[1], -cell[0])
                    lo = None if lo is None or cell[0] is None else lo + cell[0]
                    hi = None if hi is None or cell[1] is None else hi + cell[1]
                narrow(xs, 3 * pos + j, (0 if lo is None else max(0, lo), hi))
    return xs


def _entry(lo, hi):
    # the tables keep exact values, finite boxes and "no information" only
    return UNKNOWN if hi is None else (lo, hi)


def les_chase(tables):
    """Narrow three tables ``(chern, {(i, t): interval})`` of a sequence."""
    twists = sorted({t for _, entries in tables for (_, t) in entries})
    out = [dict(entries) for _, entries in tables]
    for t in twists:
        xs = [tables[j][1].get((i, t), UNKNOWN) for i in range(4) for j in range(3)]
        narrowed = chase_twist(xs, [chi(c, t) for c, _ in tables])
        for i in range(4):
            for j in range(3):
                out[j][(i, t)] = _entry(*narrowed[3 * i + j])
    return [(c, entries) for (c, _), entries in zip(tables, out)]


# ---------------------------------------------------------------------------
# Cohomology tables of expressions.


def _filled(h, lo, hi):
    return {(i, t): (h(i, t),) * 2 for t in range(lo, hi + 1) for i in range(4)}


def locally_free(e):
    kind = e[0]
    if kind in ("O", "TX", "Omega1"):
        return True
    if kind in ("twist", "dual"):
        return locally_free(e[1])
    if kind == "sum":
        return locally_free(e[1]) and locally_free(e[2])
    return False


def table_of(e, lo, hi):
    """``(chern, {(i, t): interval})`` of the expression over lo..hi."""
    kind = e[0]
    if kind == "O":
        s = e[1]
        return chern_of(e), _filled(lambda i, t: line_h(i, s + t), lo, hi)
    if kind == "TX":
        return TX_CHERN, _filled(tangent_h, lo, hi)
    if kind == "Omega1":
        return OMEGA1_CHERN, _filled(omega1_h, lo, hi)
    if kind == "twist":
        k = e[2]
        c, inner = table_of(e[1], lo + k, hi + k)
        return twist(c, k), {(i, t - k): v for (i, t), v in inner.items()}
    if kind == "rdual":
        r, c1, n2, n3 = chern_of(e[1])
        _, inner = table_of(e[1], lo - c1, hi - c1)
        return (2, -c1, n2, n3), {(i, t + c1): v for (i, t), v in inner.items()}
    if kind == "dual":
        c = chern_of(e)
        if not locally_free(e[1]):
            return c, {}
        _, inner = table_of(e[1], -hi - 4, -lo - 4)
        return c, {(3 - i, -t - 4): v for (i, t), v in inner.items()}
    if kind == "sum":
        ca, a = table_of(e[1], lo, hi)
        cb, b = table_of(e[2], lo, hi)
        entries = {}
        for key in set(a) | set(b):
            x, y = a.get(key, UNKNOWN), b.get(key, UNKNOWN)
            s = _plus(x, y)
            entries[key] = _entry(*s)
        return add(ca, cb), entries
    if kind == "coker":
        c = chern_of(e)
        return les_chase([table_of(e[1], lo, hi), table_of(e[2], lo, hi), (c, {})])[2]
    if kind == "ker":
        c = chern_of(e)
        return les_chase([(c, {}), table_of(e[1], lo, hi), table_of(e[2], lo, hi)])[0]
    raise ValueError(f"not an expression: {e!r}")


def column(entries, t):
    return tuple(entries.get((i, t), UNKNOWN) for i in range(4))


# ---------------------------------------------------------------------------
# Generic degree-d distributions on P^3 (tangent sheaf F, 0 -> O(-2d) ->
# Omega1(2-d) -> F -> 0).


def dist_chern(d):
    return (2, 2 - d, d * d + 2, d**3 + 2 * d * d + 2 * d)


def dist_closed_h(d, p):
    """Closed forms for h^0 and h^1 at every p, and for h^2 and h^3 when
    p >= d - 4; None where only the sequence gives information."""
    h0 = omega1_h(0, p + 2 - d) - line_h(0, p - 2 * d)
    h1 = 1 if p == d - 2 else 0
    if p >= d - 4:
        return (h0, h1, _c(2 * d - p - 1, 3), 0)
    return (h0, h1, None, None)


def dist_chased(d, p):
    """The seed engine's intervals for h^2 and h^3 of F(p), p < d - 4."""
    a = ((1, -2 * d, 0, 0), _filled(lambda i, t: line_h(i, t - 2 * d), p, p))
    b_chern = twist(OMEGA1_CHERN, 2 - d)
    b = (b_chern, _filled(lambda i, t: omega1_h(i, t + 2 - d), p, p))
    c = (add(b_chern, a[0], -1), {})
    entries = les_chase([a, b, c])[2][1]
    return entries[(2, p)], entries[(3, p)]


def contains(outer, inner):
    """Whether the interval ``inner`` equals or lies inside ``outer``."""
    if inner[0] < outer[0]:
        return False
    if outer[1] is None:
        return True
    return inner[1] is not None and inner[1] <= outer[1]
