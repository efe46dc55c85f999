import pytest

from sheafcalc.chow import (
    P3,
    QUADRIC,
    QUINTIC,
    ChernData,
    ThreefoldData,
    reflexive_dual_rank2,
    ses_third,
    line_chern,
    twist_chern,
)
from sheafcalc.dist import (
    CASE_SPLIT,
    DistributionProfile,
    INCONCLUSIVE,
    RHO_BOUND,
    SEMISTABLE,
    SING1_EMPTY,
    SING1_IRREDUCIBLE_REDUCED,
    SING1_OTHER,
    SPLITS,
    STABLE,
    StabilityVerdict,
    TX_STABLE_REASON,
    Y_EQUALS_SING1,
    conn_components,
    dist_chern,
    singular_length,
    stability_classify,
    subfoliation_analyze,
)
from sheafcalc.errors import (
    DomainError,
    HypothesisError,
    MissingInvariant,
    NegativeCount,
    NegativeCurveClass,
    NegativeLength,
)

RHO_ONE = ThreefoldData("rho-one", 1, 2, 24, 0, rhoX=1, gammaX=1)


def p3_profile(d, generic=True):
    return DistributionProfile(P3, 2 - d, generic=generic)


def test_profile_derived_quantities():
    p = p3_profile(1)
    assert p.kappa == 3 and p.degree == 1
    q = DistributionProfile(QUINTIC, -2)
    assert q.kappa == 2 and q.degree is None


def test_stability_examples():
    assert stability_classify(p3_profile(0)) == StabilityVerdict(STABLE, RHO_BOUND)
    assert stability_classify(DistributionProfile(RHO_ONE, 2)) == StabilityVerdict(
        SEMISTABLE, RHO_BOUND
    )
    verdict = stability_classify(DistributionProfile(RHO_ONE, 3))
    assert verdict.status == INCONCLUSIVE


def test_stability_tangent_bundle_passes_down():
    # above the rho threshold a stable tangent bundle still decides
    assert stability_classify(DistributionProfile(P3, 5)) == StabilityVerdict(
        STABLE, TX_STABLE_REASON
    )


def test_stability_monotone_in_f():
    strength = {STABLE: 2, SEMISTABLE: 1, INCONCLUSIVE: 0}
    for X in (P3, QUINTIC, RHO_ONE):
        verdicts = [
            strength[stability_classify(DistributionProfile(X, f)).status]
            for f in range(-6, 7)
        ]
        assert verdicts == sorted(verdicts, reverse=True)


def test_stability_requires_hypotheses():
    with pytest.raises(HypothesisError):
        stability_classify(p3_profile(2, generic=False))
    with pytest.raises(MissingInvariant):
        stability_classify(DistributionProfile(QUADRIC, 1))
    no_van = ThreefoldData("no-van", 1, 2, 24, 0, rhoX=1, h1_line_vanishing=False)
    with pytest.raises(HypothesisError):
        stability_classify(DistributionProfile(no_van, 0))


def test_dist_chern_on_p3():
    assert dist_chern(p3_profile(1)) == ChernData(2, 1, 3, 5)
    assert dist_chern(p3_profile(0)) == ChernData(2, 2, 2, 0)
    assert dist_chern(p3_profile(2)) == ChernData(2, 0, 6, 20)


def test_dist_chern_degree_formula():
    for d in range(0, 51):
        assert dist_chern(p3_profile(d)) == ChernData(
            2, 2 - d, d * d + 2, d**3 + 2 * d * d + 2 * d
        )


def test_dist_chern_quintic():
    assert dist_chern(DistributionProfile(QUINTIC, -2)) == ChernData(2, -2, 70, 340)


def test_dist_chern_gated_for_nongeneric():
    with pytest.raises(HypothesisError):
        dist_chern(p3_profile(1, generic=False))


def test_dist_chern_two_routes_agree():
    # kernel-of-twisted-form route against sequence arithmetic plus the
    # singular-scheme length correction on the third Chern number
    for d in range(0, 30):
        p = p3_profile(d)
        direct = dist_chern(p)
        shadow = ses_third(None, P3.tangent_chern, line_chern(d + 2), P3)
        assert (shadow.rank, shadow.c1, shadow.n2) == (2, direct.c1, direct.n2)
        assert shadow.n3 + 2 * singular_length(p) == direct.n3


def test_dual_sequence_bookkeeping():
    # the dual of the tangent sheaf is the sheaf twisted back by -f
    for d in range(0, 10):
        c = dist_chern(p3_profile(d))
        assert reflexive_dual_rank2(c) == twist_chern(c, -c.c1, P3)


def test_singular_length_values():
    assert singular_length(p3_profile(2)) == 20
    assert singular_length(p3_profile(0)) == 0
    assert singular_length(p3_profile(3)) == 51


def test_singular_length_negative_profile():
    with pytest.raises(NegativeLength):
        singular_length(DistributionProfile(P3, 4))  # would need degree -2


# ---------------------------------------------------------------------------
# Subfoliations.


def test_subfoliation_generic_example():
    report = subfoliation_analyze(p3_profile(1), tG=-1, sing1F=SING1_EMPTY)
    assert report.lfg_degree == 2
    assert report.y_class == 5
    assert report.split == SPLITS
    assert report.sing_structure == Y_EQUALS_SING1
    assert report.branches == ("Y = sing1(G)",)


def test_subfoliation_trivial_relative_line():
    report = subfoliation_analyze(p3_profile(1), tG=1, sing1F=SING1_EMPTY)
    assert report.lfg_degree == 0


def test_subfoliation_case_split():
    p = DistributionProfile(P3, 1, generic=False)
    report = subfoliation_analyze(p, tG=-1, sing1F=SING1_IRREDUCIBLE_REDUCED)
    assert report.sing_structure == CASE_SPLIT
    assert report.branches == (
        "Y = sing1(G)",
        "sing(G) = Y union sing1(F)",
    )
    # c2 of the tangent sheaf is extra data for non-generic profiles
    assert report.y_class is None
    with_n2 = subfoliation_analyze(
        p, tG=-1, sing1F=SING1_OTHER, n2_tf=7
    )
    assert with_n2.y_class == 7 + 1 + 1


def test_subfoliation_surfaces_both_split_degrees():
    report = subfoliation_analyze(p3_profile(1), tG=-1, sing1F=SING1_EMPTY)
    assert report.split_degree_proof == 2 * 1 - (-1) - 4
    assert report.split_degree_statement == 2 * 1 + (-1) - 4


def test_subfoliation_classification_consistency():
    with pytest.raises(DomainError):
        subfoliation_analyze(p3_profile(1), 0, SING1_IRREDUCIBLE_REDUCED)
    with pytest.raises(DomainError):
        subfoliation_analyze(p3_profile(1, generic=False), 0, SING1_EMPTY)


def test_subfoliation_y_class_nonnegative_below_half_degree():
    # discriminant guarantee: tG <= f/2 and n2 >= f^2 h3 / 4 keep the class
    # of the zero locus effective
    for d in range(0, 12):
        p = p3_profile(d)
        f, n2 = 2 - d, dist_chern(p).n2
        assert 4 * n2 >= f * f
        for tG in range(-10, f // 2 + 1):
            assert subfoliation_analyze(p, tG, SING1_EMPTY).y_class >= 0


def test_subfoliation_negative_class_diagnostic():
    p = DistributionProfile(P3, 4, generic=False)
    with pytest.raises(NegativeCurveClass):
        subfoliation_analyze(p, 2, SING1_OTHER, n2_tf=3)


# ---------------------------------------------------------------------------
# Connected components of the 1-dimensional singular locus.


def test_conn_exact_iff_h2_equals_c3():
    p = DistributionProfile(P3, 1, generic=False)  # degree 1
    report = conn_components(p, 5, 5)
    assert report.kind == "Exact" and (report.lo, report.hi) == (1, 1)
    report = conn_components(p, 7, 5)
    assert report.kind == "Exact" and (report.lo, report.hi) == (3, 3)


def test_conn_degree_two_interval():
    p = DistributionProfile(P3, 0, generic=False)
    report = conn_components(p, 21, 20)
    assert report.kind == "Interval" and (report.lo, report.hi) == (1, 2)
    assert not report.h2_tangent_vanishes


def test_conn_hypotheses_on_p3():
    report = conn_components(DistributionProfile(P3, 1, generic=False), 5, 5)
    assert report.h1_tangent_vanishes and report.h2_tangent_vanishes
    assert report.h1_structure_vanishes


def test_conn_errors():
    p = DistributionProfile(P3, 1, generic=False)
    with pytest.raises(MissingInvariant):
        conn_components(p, None, 5)
    with pytest.raises(NegativeCount):
        conn_components(p, 0, 5)
    with pytest.raises(DomainError):
        conn_components(p, 5, -1)


def test_conn_off_p3_needs_caller_flags():
    p = DistributionProfile(QUINTIC, -2, generic=False)
    with pytest.raises(MissingInvariant):
        conn_components(p, 10, 10)
    report = conn_components(p, 10, 10, tx_h1_vanishes=True, tx_h2_vanishes=True)
    assert report.kind == "Exact" and (report.lo, report.hi) == (1, 1)
    with pytest.raises(HypothesisError):
        conn_components(p, 10, 10, tx_h1_vanishes=True, tx_h2_vanishes=False)
