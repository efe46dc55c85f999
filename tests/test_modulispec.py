import pytest

from sheafcalc.chow import P3, QUADRIC, QUINTIC, ChernData, ThreefoldData
from sheafcalc.cohomology import bott_h
from sheafcalc.dist import DistributionProfile, dist_chern
from sheafcalc.errors import DomainError, HypothesisError, MissingInvariant
from sheafcalc.modulispec import (
    curve_family,
    ext2_dim,
    global_gen_resolution,
    moduli_report,
    normalize,
    normalize_chern,
    pic_act,
    spectrum_point,
)


def test_moduli_degree_one():
    report = moduli_report(1)
    assert report.dim_component == 19
    assert report.chern == ChernData(2, 1, 3, 5)
    assert normalize_chern(report.chern, P3) == ChernData(2, -1, 3, 5)
    assert report.ext2 == 0 and report.rational is True


def test_moduli_degree_zero_is_contact_family():
    report = moduli_report(0)
    assert report.ext1 == 5 and report.dim_component == 5
    assert report.chern == ChernData(2, 2, 2, 0)


def test_moduli_degree_two_is_special():
    report = moduli_report(2)
    assert report.dim_component == 45
    assert report.family_dim == 44
    assert report.ext2 == 0 and report.smooth_point
    assert report.rational is None
    assert report.chern == ChernData(2, 0, 6, 20)


def test_moduli_ext2_values():
    assert [ext2_dim(d) for d in range(7)] == [0, 0, 0, 0, 6, 20, 45]


def test_moduli_ext2_alternating_form():
    # 4 h^0(O(d-3)) - h^0(O(d-2)) written through the section counts
    for d in range(3, 51):
        assert ext2_dim(d) == 4 * bott_h(0, 0, d - 3) - bott_h(0, 0, d - 2)


def test_moduli_dimension_identity():
    for d in list(range(0, 2)) + list(range(3, 51)):
        left = bott_h(1, 0, d + 2) - 1
        assert left == 6 * d * d + 8 * d + 5 + ext2_dim(d)
        assert moduli_report(d).dim_component == left


def test_moduli_rejects_negative_degree():
    with pytest.raises(DomainError):
        moduli_report(-1)


def test_resolution_shapes():
    r0 = global_gen_resolution(0)
    assert r0.h0_twisted == 5 and r0.kernel == "TX(-2)"
    assert r0.chern_twisted == ChernData(2, 2, 2, 0)
    r1 = global_gen_resolution(1)
    assert r1.h0_twisted == 6 and r1.kernel == "TX(-2) + O(-1)"
    r2 = global_gen_resolution(2)
    assert r2.chern_twisted == ChernData(2, 4, 10, 20)


def test_resolution_consistent_with_twist_route():
    # the cokernel of the printed resolution, read back through the DSL, has
    # the twisted Chern data; for d >= 1 both sides are integer polynomials of
    # degree <= 3 in d, so agreement on these points holds for every d
    from sheafcalc.sheafdsl import Coker, chern_of, parse

    for d in range(0, 41):
        report = global_gen_resolution(d)
        coker = Coker(parse(report.kernel), parse(report.middle))
        assert report.chern_twisted == chern_of(coker, P3)


def test_curve_family_values():
    fam = curve_family(1)
    assert (fam.degree_C, fam.genus, fam.points, fam.family_dim) == (5, 1, 5, 5)
    fam = curve_family(2)
    assert (fam.degree_C, fam.genus, fam.points) == (10, 11, 20)
    with pytest.raises(DomainError):
        curve_family(0)


def test_curve_family_identity_range():
    for d in range(1, 51):
        fam = curve_family(d)
        assert fam.points == d * fam.degree_C
        assert fam.genus - 1 == (d - 1) * fam.degree_C
        # c3 of F(d) counted two ways: as the point count and via
        # 2g - 2 + c2.(4 - c1) with (c1, c2) of F(d) = (2 + d, degree_C)
        assert fam.points == 2 * fam.genus - 2 + fam.degree_C * (2 - d)


def test_spectrum_p3():
    assert spectrum_point(P3, 3).triple == ChernData(2, 1, 3, 5)
    with pytest.raises(HypothesisError):
        spectrum_point(P3, 1)


def test_spectrum_matches_distribution_route():
    for r in range(2, 21):
        triple = spectrum_point(P3, r).triple
        assert triple == dist_chern(DistributionProfile(P3, 4 - r))


def test_spectrum_quintic_cubic_growth():
    for r in range(2, 11):
        triple = spectrum_point(QUINTIC, r).triple
        assert triple.c1 == -r
        assert triple.n2 == 50 + 5 * r * r
        assert triple.n3 == 200 + 50 * r + 5 * r**3


def test_spectrum_needs_invariants():
    with pytest.raises(MissingInvariant):
        spectrum_point(QUADRIC, 3)


def test_spectrum_slope_hypothesis():
    fat = ThreefoldData("fat", 1, 6, 12, 0, rhoX=2, gammaX=2)
    with pytest.raises(HypothesisError):
        spectrum_point(fat, 5)


def test_pic_action_group_law():
    point = spectrum_point(QUINTIC, 2)
    for t in range(-4, 5):
        assert pic_act(pic_act(point, t), -t) == point
        assert pic_act(point, t).triple.n3 == point.triple.n3


def test_normalize():
    point = spectrum_point(P3, 3)
    assert normalize(point).triple == ChernData(2, -1, 3, 5)
    assert normalize(normalize(point)) == normalize(point)
    quintic_pt = spectrum_point(QUINTIC, 2)
    assert normalize(quintic_pt).triple == ChernData(2, 0, 65, 340)
