"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every check
is exact integer equality, no tolerances anywhere.
"""

import random
from contextlib import contextmanager
from math import comb

import pytest
from chow_reference import ch_to_chern, chern_to_ch

from sheafcalc.chow import (
    P3,
    QUINTIC,
    ChernData,
    chi_at_twist,
    line_chern,
    ses_third,
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
)
from sheafcalc.dist import DistributionProfile, conn_components, dist_chern, singular_length
from sheafcalc.errors import NegativeCount
from sheafcalc.modulispec import (
    curve_family,
    ext2_dim,
    global_gen_resolution,
    moduli_report,
    normalize_chern,
    spectrum_point,
)
from sheafcalc.sheafdsl import chern_of, parse, pretty


def comb0(n, k):
    """The binomial, 0 unless 0 <= k <= n: the lemma's h^2 closed form, kept
    apart from the engine's Bott formula."""
    return comb(n, k) if 0 <= k <= n else 0


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_chern_triples():
    with criterion(1, "Chern triple (2-d, d^2+2, d^3+2d^2+2d) on d in [0,50], "
                      "twist route and sequence route"):
        for d in range(0, 51):
            profile = DistributionProfile(P3, 2 - d)
            direct = dist_chern(profile)
            assert direct == ChernData(2, 2 - d, d * d + 2,
                                       d**3 + 2 * d * d + 2 * d)
            # independent route: sequence arithmetic inside the tangent
            # bundle, corrected by the singular-scheme length on c3
            shadow = ses_third(None, P3.tangent_chern, line_chern(d + 2), P3)
            assert (shadow.c1, shadow.n2) == (direct.c1, direct.n2)
            assert shadow.n3 + 2 * singular_length(profile) == direct.n3


def test_criterion_2_moduli_dimension_identity():
    with criterion(2, "(d+1)(d+3)(d+4)/2 - 1 = 6d^2+8d+5 + d(d-1)(d-3)/2 via "
                      "section counts, d in {0,1} u [3,50]"):
        for d in [0, 1] + list(range(3, 51)):
            left = bott_h(1, 0, d + 2) - 1
            assert left == 6 * d * d + 8 * d + 5 + ext2_dim(d)
            assert moduli_report(d).dim_component == left


def test_criterion_3_cohomology_grid():
    with criterion(3, "closed forms match the sequence chaser and the four "
                      "dimension statements on d in [0,6], p in [d-4, 2d+3]"):
        for d in range(0, 7):
            for p in range(d - 4, 2 * d + 4):
                entries = generic_dist_cohom(d, p)
                chased = les_chase(dist_sequence_tables(d, p, p))[2]
                for i in range(4):
                    assert (entries[i].lo, entries[i].hi) == chased.column(p)[i]
                if p <= d - 1:
                    assert entries[0] == DimEntry(0, 0)
                h1 = 1 if p == d - 2 else 0
                assert entries[1] == DimEntry(h1, h1)
                h2 = comb0(2 * d - p - 1, 3)
                assert entries[2] == DimEntry(h2, h2)
                assert entries[3] == DimEntry(0, 0)
                if p >= 2 * d - 3:
                    assert entries[2] == DimEntry(0, 0)


def test_criterion_4_bott_serre_hrr_suite():
    with criterion(4, "Serre duality, the (p,p,0) exceptional value, and "
                      "alternating sums against Riemann-Roch on t in [-15,15]"):
        # the p-th cotangent power of P^3 in the expression language
        for p, src in enumerate(("O(0)", "Omega1", "twist(TX, -4)", "O(-4)")):
            assert bott_h(p, p, 0) == 1
            c = chern_of(parse(src))
            for q in range(4):
                for t in range(-15, 16):
                    assert bott_h(p, q, t) == bott_h(3 - p, 3 - q, -t)
            for t in range(-15, 16):
                alt = sum((-1) ** q * bott_h(p, q, t) for q in range(4))
                assert alt == chi_at_twist(twist_chern(c, t, P3), 0, P3)


def test_criterion_5_known_special_cases():
    with criterion(5, "d=0 null correlation (2,2,2,0) with 5 sections; d=1 "
                      "normalizes to (-1,3,5) with dimension 19; d=2 gives "
                      "component 45 / family 44"):
        d0 = dist_chern(DistributionProfile(P3, 2))
        assert d0 == ChernData(2, 2, 2, 0)
        assert generic_dist_cohom(0, 0)[0] == DimEntry(5, 5)
        assert global_gen_resolution(0).h0_twisted == 5

        report1 = moduli_report(1)
        assert normalize_chern(report1.chern, P3) == ChernData(2, -1, 3, 5)
        assert report1.dim_component == 19

        report2 = moduli_report(2)
        assert report2.dim_component == 45 and report2.family_dim == 44


def test_criterion_6_curve_family():
    with criterion(6, "curve family degree/genus/points and the two c3 "
                      "evaluations agree on d in [1,50]"):
        for d in range(1, 51):
            fam = curve_family(d)
            degree = d * d + 2 * d + 2
            assert fam.degree_C == degree
            assert fam.genus == (d - 1) * degree + 1
            assert fam.points == d * degree
            assert fam.family_dim == 5
            assert fam.points == 2 * fam.genus - 2 + degree * (2 - d)


def test_criterion_7_spectrum():
    with criterion(7, "quintic c3 = 200 + 50r + 5r^3 for r in [2,10]; "
                      "spectrum points on p3 equal the distribution route"):
        for r in range(2, 11):
            triple = spectrum_point(QUINTIC, r).triple
            assert triple.n3 == 200 + 50 * r + 5 * r**3
            assert spectrum_point(P3, r).triple == dist_chern(
                DistributionProfile(P3, 4 - r)
            )


def test_criterion_8_connectedness():
    with criterion(8, "exact count 1 precisely when h^2 equals c3; width-one "
                      "interval in degree 2"):
        p1 = DistributionProfile(P3, 1, generic=False)
        for c3 in (0, 5, 20):
            for h2 in range(max(0, c3 - 1), c3 + 4):
                if h2 - c3 + 1 < 0:
                    with pytest.raises(NegativeCount):
                        conn_components(p1, h2, c3)
                    continue
                report = conn_components(p1, h2, c3)
                assert report.kind == "Exact" and report.lo == report.hi
                assert (report.lo == 1) == (h2 == c3)
        p2 = DistributionProfile(P3, 0, generic=False)
        report = conn_components(p2, 21, 20)
        assert report.kind == "Interval"
        assert report.hi - report.lo == 1


def test_criterion_9_randomized_property_suites():
    with criterion(9, "randomized suites: twist group law, character round "
                      "trip, chaser soundness, parser round trip (100+ cases "
                      "each)"):
        rng = random.Random(20260810)

        for _ in range(150):  # character round trip
            c = ChernData(rng.randint(0, 3), rng.randint(-(10**6), 10**6),
                          rng.randint(-(10**6), 10**6),
                          rng.randint(-(10**6), 10**6))
            assert ch_to_chern(chern_to_ch(c, QUINTIC), QUINTIC) == c

        for _ in range(150):  # twist group law
            c = ChernData(rng.randint(0, 3), rng.randint(-100, 100),
                          rng.randint(-100, 100), rng.randint(-100, 100))
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            assert twist_chern(twist_chern(c, a, P3), b, P3) == twist_chern(
                c, a + b, P3
            )

        for _ in range(120):  # chaser soundness on genuine split sequences
            a_tw = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
            c_tw = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
            truth, masked = _split_ses_tables(a_tw, c_tw, rng)
            chased = les_chase(masked)
            for true_table, out in zip(truth, chased):
                for t in range(true_table.lo, true_table.lo + len(true_table.columns)):
                    for (n, _), (lo, hi) in zip(true_table.column(t), out.column(t)):
                        assert lo <= n and (hi is None or n <= hi)

        for _ in range(150):  # parser round trip
            e = _random_expr(rng, depth=3)
            assert parse(pretty(e)) == e


def _split_ses_tables(a_twists, c_twists, rng):
    def truth_table(twists):
        chern = sum_chern([line_chern(t) for t in twists], P3)
        entries = {
            (i, t): (n, n)
            for i in range(4)
            for t in range(-1, 2)
            for n in [sum(bott_h(0, i, s + t) for s in twists)]
        }
        return CohomTable(P3, chern, entries)

    truth = (
        truth_table(a_twists),
        truth_table(a_twists + c_twists),
        truth_table(c_twists),
    )
    masked = []
    for table in truth:
        entries = {}
        for t in range(table.lo, table.lo + len(table.columns)):
            for i, (lo, hi) in enumerate(table.column(t)):
                mode = rng.random()
                if mode < 0.4:
                    entries[(i, t)] = (lo, hi)
                elif mode < 0.7:
                    entries[(i, t)] = (
                        max(0, lo - rng.randint(0, 2)),
                        hi + rng.randint(0, 2),
                    )
        masked.append(CohomTable(table.X, table.chern, entries))
    return truth, tuple(masked)


def _random_term(rng, depth):
    # terms never carry a Sum at their own top level; that matches the
    # grammar, where + only associates leftward outside parentheses
    from sheafcalc import sheafdsl as dsl

    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                dsl.AtomO(rng.randint(-9, 9)),
                dsl.AtomTX(),
                dsl.AtomOmega1(),
                dsl.AtomNamed(rng.choice(["E", "F_1", "G"])),
            ]
        )
    kind = rng.randint(0, 3)
    child = lambda: _random_expr(rng, depth - 1)
    if kind == 0:
        return dsl.Twist(child(), rng.randint(-9, 9))
    if kind == 1:
        return dsl.Dual(child(), rng.random() < 0.5)
    if kind == 2:
        return dsl.Coker(child(), child())
    return dsl.Ker(child(), child())


def _random_expr(rng, depth):
    from sheafcalc import sheafdsl as dsl

    node = _random_term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        node = dsl.Sum(node, _random_term(rng, depth))
    return node
