"""Correctness checks on engine outputs.

Each check returns a list of problems; an empty list means the output is
correct.  The references come from ``reference``; none of them call the
engine.
"""

from __future__ import annotations

import reference as ref
from workloads import text


def interval(entry):
    """(lo, hi) of a JSON cohomology entry as the CLI prints it."""
    status = entry["status"]
    if status == "known":
        return (entry["value"], entry["value"])
    if status == "bounded":
        return (entry["lo"], entry["hi"])
    return ref.UNKNOWN


def _column_problems(where, col, chi, exact_chi):
    problems = []
    if chi != exact_chi:
        problems.append(f"{where}: chi {chi} != HRR {exact_chi}")
    for lo, hi in col:
        if lo < 0 or (hi is not None and hi < lo):
            problems.append(f"{where}: invalid interval {(lo, hi)}")
    if all(hi == lo for lo, hi in col):
        alt = col[0][0] - col[1][0] + col[2][0] - col[3][0]
        if alt != chi:
            problems.append(f"{where}: known column sums to {alt}, chi is {chi}")
    return problems


def check_cohom(result, expr, lo, hi, full):
    """Check one expression's JSON result from ``cohomology --format json``.

    Always: the expression text, rank and Chern triple, chi against HRR at
    every twist, and every all-known column against chi.  With ``full``,
    also every entry against the seed engine's interval."""
    problems = []
    chern = ref.chern_of(expr)
    if result["expression"] != text(expr):
        problems.append(f"expression {result['expression']!r} != {text(expr)!r}")
    if [result["rank"]] + result["chern"] != list(chern):
        problems.append(f"{text(expr)}: Chern data {result['rank']}, {result['chern']} != {chern}")
        return problems
    rows = result["table"]
    if result["twists"] != [lo, hi] or [r["twist"] for r in rows] != list(range(lo, hi + 1)):
        return problems + [f"{text(expr)}: twists differ from {lo}..{hi}"]
    entries = ref.table_of(expr, lo, hi)[1] if full else None
    for row in rows:
        t = row["twist"]
        col = [interval(row[f"h{i}"]) for i in range(4)]
        where = f"{text(expr)} at twist {t}"
        problems += _column_problems(where, col, row["chi"], ref.chi(chern, t))
        if entries is not None:
            for i, (mine, seed) in enumerate(zip(col, ref.column(entries, t))):
                if not ref.contains(seed, mine):
                    problems.append(f"{where}: h{i} {mine} not inside {seed}")
    return problems


def sharpness(results):
    """Counts of known, bounded and unknown entries in JSON results."""
    counts = {"known": 0, "bounded": 0, "unknown": 0}
    for result in results:
        for row in result["table"]:
            for i in range(4):
                counts[row[f"h{i}"]["status"]] += 1
    return counts


def _twist2(c, t, h3):
    """Twist of rank-2 Chern data by O(t) on a threefold of degree h3."""
    r, c1, n2, n3 = c
    return (r, c1 + 2 * t, n2 + t * c1 * h3 + t * t * h3, n3)


def _normalized2(c, h3):
    c1 = c[1]
    t = -(c1 // 2) if c1 % 2 == 0 else -((c1 + 1) // 2)
    return _twist2(c, t, h3)


def spectrum_chern(X, r):
    """Chern data of the tangent sheaf of a generic distribution with
    c1 = cX - r, whose twisted defining sequence gives n2 and n3."""
    h3, cX, c2, c3 = X["h3"], X["cX"], X["c2TX_H"], X["c3TX"]
    k = r  # c1 of the twisted ideal-sheaf quotient
    return (2, cX - r, c2 - k * cX * h3 + k * k * h3,
            -c3 + k * c2 - k * k * cX * h3 + k**3 * h3)


P3_DOC = {"h3": 1, "cX": 4, "c2TX_H": 6, "c3TX": 4, "rhoX": 2}
QUINTIC_DOC = {"h3": 5, "cX": 0, "c2TX_H": 50, "c3TX": -200, "rhoX": 2}


def check_grid(req, out, full):
    """Check one dist_grid request against the paper's closed forms and,
    with ``full``, the chased cells against the seed engine's intervals."""
    d = req["d"]
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"d={d} {what}: {got!r} != {want!r}")

    chern = ref.dist_chern(d)
    expect("dist_chern", out["dist_chern"], chern)
    expect("singular_length", out["singular_length"], d**3 + 2 * d * d + 2 * d)
    expect("stability", out["stability"], ("Stable", "RhoBound"))
    for p, col in out["cells"].items():
        where = f"d={d} p={p}"
        problems += _column_problems(where, col, ref.chi(chern, p), ref.chi(chern, p))
        closed = ref.dist_closed_h(d, p)
        for i in range(4):
            if closed[i] is not None:
                expect(f"h{i} at p={p}", col[i], (closed[i], closed[i]))
        if closed[2] is None and full:
            for i, seed in zip((2, 3), ref.dist_chased(d, p)):
                if not ref.contains(seed, col[i]):
                    problems.append(f"{where}: h{i} {col[i]} not inside {seed}")

    h2, c3 = req["c3"] + req["h2_extra"], req["c3"]
    if d == 2:
        conn = ("Interval", max(0, h2 - c3), h2 - c3 + 1)
    else:
        conn = ("Exact", h2 - c3 + 1, h2 - c3 + 1)
    expect("conn_components", out["conn"], conn)

    ext2 = 0 if d <= 2 else d * (d - 1) * (d - 3) // 2
    ext1 = 6 * d * d + 8 * d + 5 + ext2
    if d == 2:
        moduli = (45, ext1, ext2, True, None, 44, chern)
    else:
        moduli = (ext1, ext1, ext2, True, True, ext1, chern)
    expect("moduli_report", out["moduli"], moduli)
    expect("global_gen_resolution", out["resolution"],
           (" + ".join(["O(0)"] * 6), f"TX(-2) + O({-d})", 6, ref.twist(chern, d)))
    degree_c = d * d + 2 * d + 2
    expect("curve_family", out["curve"], (degree_c, (d - 1) * degree_c + 1, d * degree_c, 5))

    custom = req["threefold"]
    for name, X, r in (("p3", P3_DOC, req["r"]), ("quintic", QUINTIC_DOC, req["r"]),
                       ("custom", custom, req["r_custom"])):
        triple = spectrum_chern(X, r)
        want = (triple, _normalized2(triple, X["h3"]), _twist2(triple, req["t"], X["h3"]))
        expect(f"spectrum on {name}", out["spectrum"][name], want)
    f = custom["cX"] - req["r_custom"]
    reason = ("Stable", "RhoBound") if f < 2 * custom["rhoX"] else ("Stable", "TXStable")
    expect("stability on custom", out["stability_custom"], reason)
    return problems
