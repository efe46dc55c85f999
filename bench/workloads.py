"""Seeded input generators for the three workloads.

Nothing here imports the engine: the engine only ever sees the generated
inputs.  Request ``i`` of a run depends on the seed and on ``i`` alone, so a
faster engine works through a longer prefix of the same request stream.

Sheaf expressions are trees of tuples::

    ("O", k) | ("TX",) | ("Omega1",) | ("twist", e, k) | ("dual", e)
    | ("rdual", e) | ("sum", e, f) | ("coker", sub, ambient)
    | ("ker", ambient, quotient)
"""

from __future__ import annotations

import random

from reference import chern_of, locally_free

TX = ("TX",)
OMEGA1 = ("Omega1",)

# cohom_batch: every request uses one of these twist ranges, so some
# (subtree, range) work repeats within a run.
BATCH_RANGES = ((-25, 25), (-20, 30), (-30, 20))
BATCH_CHASES = 3
CLI_TWIST_WIDTH = 21


def _rng(seed, *key):
    return random.Random("/".join(str(k) for k in (seed,) + key))


def text(e):
    """Canonical DSL text; equal to the engine's pretty form."""
    kind = e[0]
    if kind == "O":
        return f"O({e[1]})"
    if kind in ("TX", "Omega1"):
        return kind
    if kind == "twist":
        if e[1] in (TX, OMEGA1):
            return f"{e[1][0]}({e[2]})"
        return f"twist({text(e[1])}, {e[2]})"
    if kind in ("dual", "rdual"):
        return f"{kind}({text(e[1])})"
    if kind == "sum":
        return f"{text(e[1])} + {text(e[2])}"
    if kind == "coker":
        return f"coker({text(e[1])} -> {text(e[2])})"
    if kind == "ker":
        return f"ker({text(e[1])} -> {text(e[2])})"
    raise ValueError(f"not an expression: {e!r}")


def rank(e):
    return chern_of(e)[0]


def nodes(e):
    """Every subtree of e, e included."""
    yield e
    for child in e[1:]:
        if isinstance(child, tuple):
            yield from nodes(child)


def _lines(e):
    """Degrees of a sum of line bundles, or None if e is not one."""
    if e[0] == "O":
        return [e[1]]
    if e[0] == "sum":
        left, right = _lines(e[1]), _lines(e[2])
        if left is not None and right is not None:
            return left + right
    return None


def check_expr(e, lo, hi):
    """Raise ValueError unless e obeys the construction rules over lo..hi.

    Ranks: every twisted or dualised subexpression has rank <= 3, every
    ``rdual`` argument rank 2, and a kernel or cokernel never has negative
    rank.  Maps: a cokernel's subsheaf is a sum of line bundles without
    sections at any twist where its table is evaluated, and a kernel's
    quotient a sum of line bundles without top cohomology there.  A nonzero
    map from a sufficiently negative line bundle, or onto a sufficiently
    positive one, exists, and with these choices every long exact sequence
    the engine chases is consistent.
    """
    kind = e[0]
    if kind in ("O", "TX", "Omega1"):
        return
    if kind in ("twist", "dual", "rdual"):
        r = rank(e[1])
        if r > 3 or (kind == "rdual" and r != 2):
            raise ValueError(f"{kind} of a rank-{r} sheaf")
        if kind == "twist":
            return check_expr(e[1], lo + e[2], hi + e[2])
        if kind == "rdual":
            c1 = chern_of(e[1])[1]
            return check_expr(e[1], lo - c1, hi - c1)
        return check_expr(e[1], -hi - 4, -lo - 4)
    if kind == "sum":
        check_expr(e[1], lo, hi)
        return check_expr(e[2], lo, hi)
    if kind == "coker":
        sub, ambient = e[1], e[2]
        degrees = _lines(sub)
        if degrees is None or max(degrees) + hi >= 0:
            raise ValueError(f"cokernel of {text(sub)} over {lo}..{hi}")
    elif kind == "ker":
        ambient, quotient = e[1], e[2]
        degrees = _lines(quotient)
        if degrees is None or min(degrees) + lo < -3:
            raise ValueError(f"kernel onto {text(quotient)} over {lo}..{hi}")
        sub = quotient
    else:
        raise ValueError(f"not an expression: {e!r}")
    if rank(ambient) < rank(sub):
        raise ValueError(f"{kind} of negative rank")
    check_expr(ambient, lo, hi)


# ---------------------------------------------------------------------------
# cohom_batch


def _line_sum(degrees):
    e = ("O", degrees[0])
    for d in degrees[1:]:
        e = ("sum", e, ("O", d))
    return e


def _pool(reach):
    """The shared subtrees, one of each kind, each with at most one kernel
    or cokernel level.  ``reach`` bounds the twists where their tables are
    evaluated.  They are the same for every seed, so that runs with
    different seeds draw requests of the same cost."""
    neg, pos = ("O", -reach - 3), ("O", reach + 3)
    return [
        ("twist", TX, -1),
        _line_sum([1, -1]),
        ("coker", neg, ("twist", TX, -1)),
        ("ker", ("twist", OMEGA1, 1), pos),
        ("coker", neg, _line_sum([0, 1, -1])),
        ("ker", ("sum", TX, ("O", -1)), pos),
        ("coker", neg, ("twist", OMEGA1, 2)),
        ("ker", ("twist", TX, 1), pos),
    ]


def _compose(rng, pool, depth, reach):
    """A pool subtree under ``depth`` seeded operations that its rank allows."""
    if depth == 0:
        return rng.choice(pool)
    e = _compose(rng, pool, depth - 1, reach)
    r = rank(e)
    ops = ["coker", "ker", "sum"]
    if r <= 3:
        ops += ["twist", "dual"]
    if r == 2:
        ops += ["rdual"]
    if r >= 2:  # sequences are the point of the workload: weight them up
        ops += ["coker", "ker"]
    op = rng.choice(ops)
    if op == "twist":
        return ("twist", e, rng.choice([-3, -2, -1, 1, 2, 3]))
    if op in ("dual", "rdual"):
        return (op, e)
    if op == "sum":
        return ("sum", e, rng.choice(pool)) if rng.random() < 0.5 else ("sum", rng.choice(pool), e)
    n = 2 if r >= 3 and rng.random() < 0.3 else 1
    if op == "coker":
        return ("coker", _line_sum([-reach - rng.randint(1, 6) for _ in range(n)]), e)
    return ("ker", e, _line_sum([reach + rng.randint(0, 6) for _ in range(n)]))


def _is_valid(e, lo, hi):
    try:
        check_expr(e, lo, hi)
    except ValueError:
        return False
    return True


def chases(e):
    """Number of sequences the engine chases to tabulate e."""
    kind = e[0]
    if kind in ("O", "TX", "Omega1") or (kind == "dual" and not locally_free(e[1])):
        return 0
    own = kind in ("coker", "ker")
    return own + sum(chases(c) for c in e[1:] if isinstance(c, tuple))


BATCH_REACH = max(max(abs(lo), abs(hi)) for lo, hi in BATCH_RANGES) + 10
BATCH_POOL = _pool(BATCH_REACH)


def batch_request(seed, i):
    """Request i of cohom_batch: (expressions, (lo, hi)) for one batch file.

    Its two expressions need BATCH_CHASES chased sequences between them, so
    that every request costs about the same and runs with different seeds
    compare."""
    rng = _rng(seed, "batch", i)
    lo, hi = rng.choice(BATCH_RANGES)
    first = rng.randint(1, BATCH_CHASES - 1)
    exprs = []
    for want in (first, BATCH_CHASES - first):
        while True:
            e = _compose(rng, BATCH_POOL, rng.choice([1, 2, 3]), BATCH_REACH)
            if chases(e) == want and _is_valid(e, lo, hi):
                exprs.append(e)
                break
    return exprs, (lo, hi)


# ---------------------------------------------------------------------------
# dist_grid


DEGREE_BLOCK = 400


def grid_request(seed, i):
    """Request i of dist_grid.

    Degrees are a seeded permutation of 1..400, then of 401..800, and so on,
    so no degree, and hence no (d, p) cell, repeats within a run.  The p
    window straddles d - 4, where the closed forms for h^2 and h^3 end.
    """
    block, pos = divmod(i, DEGREE_BLOCK)
    order = list(range(block * DEGREE_BLOCK + 1, (block + 1) * DEGREE_BLOCK + 1))
    _rng(seed, "degrees", block).shuffle(order)
    d = order[pos]
    rng = _rng(seed, "grid", i)
    below = rng.randint(8, 16)
    above = rng.randint(8, 16)
    threefold = _custom_threefold(rng)
    return {
        "d": d,
        "p": (d - 4 - below, d - 4 + above - 1),
        "r": rng.randint(2, 9),
        "t": rng.randint(-5, 5),
        "c3": rng.randint(0, 40),
        "h2_extra": rng.randint(0, 40),
        "threefold": threefold,
        "r_custom": threefold["gammaX"] + rng.randint(0, 4),
    }


def _custom_threefold(rng):
    """A valid threefold document with a stable tangent bundle (cX < 3 rhoX)."""
    rho = rng.randint(1, 4)
    return {
        "name": f"bench{rng.randrange(10**6)}",
        "h3": rng.randint(1, 40),
        "cX": rng.randint(-3, 3 * rho - 1),
        "c2TX_H": rng.randint(-50, 150),
        "c3TX": rng.randint(-300, 300),
        "rhoX": rho,
        "gammaX": rho + rng.randint(0, 3),
        "tx_stable": "stable",
        "h1_line_vanishing": True,
    }


# ---------------------------------------------------------------------------
# cli_cold


FORMATS = ("table", "csv", "json")
COMMANDS = ("invariants", "moduli", "cohomology", "spectrum", "subfoliation",
            "conncomp", "presets")
# degrees whose generic h^2 at twist -d-2 the seed engine already knows
CONNCOMP_GENERIC_DEGREES = (0, 1)


def _small_expr(rng, lo, hi):
    """An expression with exactly one chased sequence, valid over lo..hi."""
    reach = max(abs(lo), abs(hi)) + 6
    pool = _pool(reach)
    while True:
        e = _compose(rng, pool, rng.choice([0, 1, 2]), reach)
        if chases(e) == 1 and _is_valid(e, lo, hi):
            return e


def cli_request(seed, i):
    """Request i of cli_cold: an argv for ``sheafcalc``, plus the sheaf tree
    and twist range for cohomology requests.

    The subcommands take turns, so every run has the same mix; the seed
    draws their arguments and formats."""
    rng = _rng(seed, "cli", i)
    fmt = ["--format", rng.choice(FORMATS)]
    cmd = COMMANDS[i % len(COMMANDS)]
    if cmd == "invariants":
        if rng.random() < 0.7:
            args = ["--threefold", "p3", "--degree", str(rng.randint(0, 8))]
        else:
            # singular length 200 - 50f - 5f^3 stays >= 0 for f <= 2
            args = ["--threefold", "quintic", "--c1", str(rng.randint(-3, 2))]
        return ["invariants"] + args + ["--generic"] + fmt, None
    if cmd == "moduli":
        return ["moduli", "--degree", str(rng.randint(0, 8))] + fmt, None
    if cmd == "cohomology":
        lo = rng.randint(-15, -5)
        hi = lo + CLI_TWIST_WIDTH - 1
        e = _small_expr(rng, lo, hi)
        return ["cohomology", "--sheaf", text(e), "--twists", f"{lo}..{hi}"] + fmt, (e, lo, hi)
    if cmd == "spectrum":
        argv = ["spectrum", "--threefold", rng.choice(["p3", "quintic"]),
                "--r", str(rng.randint(2, 7))]
        if rng.random() < 0.5:
            argv.append("--normalize")
        return argv + fmt, None
    if cmd == "subfoliation":
        while True:
            f, tg = rng.randint(-4, 2), rng.randint(-3, 3)
            d = 2 - f
            if d * d + 2 - tg * f + tg * tg >= 0:  # zero-locus class of the section
                break
        sing = rng.choice(["empty", "irred", "other"])
        return ["subfoliation", "--threefold", "p3", "--c1", str(f), "--tg",
                str(tg), "--sing1f", sing] + fmt, None
    if cmd == "conncomp":
        if rng.random() < 0.3:
            d = rng.choice(CONNCOMP_GENERIC_DEGREES)
            return ["conncomp", "--threefold", "p3", "--c1", str(2 - d),
                    "--generic", "--c3", "0"] + fmt, None
        c3 = rng.randint(0, 20)
        return ["conncomp", "--threefold", "p3", "--c1", str(rng.randint(-4, 2)),
                "--h2", str(c3 + rng.randint(0, 10)), "--c3", str(c3)] + fmt, None
    return ["presets", "list"] + fmt, None
