"""Moduli-component numerology for tangent sheaves of generic distributions
on P^3, and the rank-2 stable-spectrum points on general threefolds with the
twisting action of the Picard group.
"""

from __future__ import annotations

from .chow import ChernData, P3, ThreefoldData, twist_chern
from .dist import DistributionProfile, _p3_profile, dist_chern
from .errors import DomainError, HypothesisError, UnsupportedRank
from .record import Record


class ModuliReport(Record):
    """Invariants of the moduli component containing degree-d tangent sheaves."""

    d: int
    chern: ChernData
    dim_component: int
    ext1: int
    ext2: int
    smooth_point: bool
    rational: bool | None  # not asserted for d = 2
    family_dim: int


class CurveFamilyReport(Record):
    """The family of curves through the singular points of a degree-d
    distribution: degree, arithmetic genus, number of points hit, and the
    dimension of the family."""

    d: int
    degree_C: int
    genus: int
    points: int
    family_dim: int


class ResolutionReport(Record):
    """Shape of the globally generated twist: kernel and middle of the
    resolution by trivial bundles, with the twisted Chern data."""

    d: int
    middle: str
    kernel: str
    h0_twisted: int
    chern_twisted: ChernData


class SpectrumPoint(Record):
    """A realized Chern triple in the rank-2 stable spectrum of X."""

    X: ThreefoldData
    r: int
    triple: ChernData


def ext2_dim(d: int) -> int:
    """Dimension of the second self-extension group of a degree-d tangent
    sheaf: zero through degree 2, d(d-1)(d-3)/2 beyond."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    if d <= 2:
        return 0
    return d * (d - 1) * (d - 3) // 2


def moduli_report(d: int) -> ModuliReport:
    """Component dimension, self-extension counts and attributes of the
    moduli component of degree-d tangent sheaves on P^3."""
    chern = dist_chern(_p3_profile(d))
    ext2 = ext2_dim(d)
    ext1 = 6 * d * d + 8 * d + 5 + ext2
    dim_component, rational, family_dim = ext1, True, ext1
    if d == 2:
        # smooth points of a 45-dimensional component, but the sheaves fill
        # only a 44-dimensional family; rationality is not asserted
        dim_component, rational, family_dim = 45, None, 44
    return ModuliReport(
        d=d,
        chern=chern,
        dim_component=dim_component,
        ext1=ext1,
        ext2=ext2,
        smooth_point=True,
        rational=rational,
        family_dim=family_dim,
    )


def global_gen_resolution(d: int) -> ResolutionReport:
    """Resolution of the globally generated twist F(d) by trivial bundles.

    For d >= 1 the kernel is TX(-2) + O(-d) inside O^6; the contact case
    d = 0 needs only O^5 with kernel TX(-2).  The twisted Chern data comes
    from the distribution formulas; the tests check that it is the Chern data
    of the resolution's cokernel.
    """
    chern_twisted = twist_chern(dist_chern(_p3_profile(d)), d, P3)
    if d == 0:
        return ResolutionReport(
            0, " + ".join(["O(0)"] * 5), "TX(-2)", 5, chern_twisted
        )
    return ResolutionReport(
        d, " + ".join(["O(0)"] * 6), f"TX(-2) + O({-d})", 6, chern_twisted
    )


def curve_family(d: int) -> CurveFamilyReport:
    """Degree, genus and point count of the family of smooth connected curves
    through the singular points of a degree-d distribution (d >= 1)."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    degree_c = d * d + 2 * d + 2
    genus = (d - 1) * degree_c + 1
    return CurveFamilyReport(d, degree_c, genus, d * degree_c, 5)


def spectrum_point(X: ThreefoldData, r: int) -> SpectrumPoint:
    """The rank-2 stable-spectrum point realized by the kernel of a generic
    twisted 1-form, available for every twist r at or above gamma."""
    gamma = X.require_gamma()
    rho = X.require_rho()
    if not X.cX < 3 * rho:
        raise HypothesisError(
            f"'{X.name}' needs cX < 3*rhoX, got cX = {X.cX}, rhoX = {rho}"
        )
    if r < gamma:
        raise HypothesisError(f"r = {r} is below gammaX = {gamma}")
    triple = dist_chern(DistributionProfile(X, X.cX - r, generic=True))
    return SpectrumPoint(X, r, triple)


def pic_act(point: SpectrumPoint, t: int) -> SpectrumPoint:
    """Twisting action of the Picard group on a spectrum point.

    Implemented as the honest rank-2 twist (c1 gains 2t); the shorthand that
    adds t to c1 only once is not consistent with twisting and is not used.
    The third Chern number is an orbit invariant.
    """
    if point.triple.rank != 2:
        raise UnsupportedRank("spectrum points have rank 2")
    return SpectrumPoint(
        point.X, point.r, twist_chern(point.triple, t, point.X)
    )


def normalize_chern(c: ChernData, X: ThreefoldData) -> ChernData:
    """Twist representative of a rank-2 triple with c1 in {-1, 0}."""
    if c.rank != 2:
        raise UnsupportedRank("normalization is defined for rank 2")
    return twist_chern(c, -((c.c1 + 1) // 2), X)


def normalize(point: SpectrumPoint) -> SpectrumPoint:
    """Orbit representative with c1 in {-1, 0}."""
    return SpectrumPoint(
        point.X, point.r, normalize_chern(point.triple, point.X)
    )
