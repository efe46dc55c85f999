"""Numerical invariants of codimension-one distributions on threefolds:
stability classification, Chern data and singular-scheme length, subfoliation
analysis, and connected-component counts for 1-dimensional singular loci.
"""

from __future__ import annotations

from .chow import (
    ChernData,
    P3,
    ThreefoldData,
    TX_SEMISTABLE,
    TX_STABLE,
    twist_chern,
)
from .errors import (
    DomainError,
    HypothesisError,
    MissingInvariant,
    NegativeCount,
    NegativeCurveClass,
    NegativeLength,
)
from .record import Record

STABLE = "Stable"
SEMISTABLE = "Semistable"
INCONCLUSIVE = "Inconclusive"

RHO_BOUND = "RhoBound"
TX_STABLE_REASON = "TXStable"
TX_SEMISTABLE_REASON = "TXSemistable"
HYPOTHESIS_FAILS = "HypothesisFails"

SING1_EMPTY = "empty"
SING1_IRREDUCIBLE_REDUCED = "irred"
SING1_OTHER = "other"
_SING1_KINDS = (SING1_EMPTY, SING1_IRREDUCIBLE_REDUCED, SING1_OTHER)

Y_EQUALS_SING1 = "YEqualsSing1G"
CASE_SPLIT = "CaseSplit"

SPLITS = "Splits"
SPLIT_UNKNOWN = "Unknown"

_BRANCH_Y = "Y = sing1(G)"
_BRANCH_UNION = "sing(G) = Y union sing1(F)"


class DistributionProfile(Record):
    """Discrete data of a codimension-one distribution: the threefold, the
    first Chern class f of the tangent sheaf, and whether the singular scheme
    is at most 0-dimensional (generic)."""

    X: ThreefoldData
    f: int
    generic: bool = True

    @property
    def kappa(self) -> int:
        """c1 of the twisted ideal-sheaf quotient in the defining sequence."""
        return self.X.cX - self.f

    @property
    def degree(self) -> int | None:
        """The classical degree 2 - f, defined on P^3 only."""
        return 2 - self.f if self.X.is_p3 else None


def _p3_profile(d: int) -> DistributionProfile:
    # the generic degree-d distribution on P^3
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    return DistributionProfile(P3, 2 - d, generic=True)


class StabilityVerdict(Record):
    status: str
    reason: str


class SubfoliationReport(Record):
    tG: int
    lfg_degree: int
    y_class: int | None
    split: str
    sing_structure: str
    branches: tuple[str, ...]
    split_degree_proof: int
    split_degree_statement: int


class ConnReport(Record):
    """Count of connected components of the pure 1-dimensional singular locus."""

    kind: str  # "Exact", with lo == hi the count, or "Interval"
    lo: int
    hi: int
    h1_tangent_vanishes: bool
    h2_tangent_vanishes: bool
    h1_structure_vanishes: bool


def _require_theorem_hypotheses(p: DistributionProfile) -> None:
    if not p.generic:
        raise HypothesisError(
            "classification needs a singular scheme of dimension <= 0"
        )
    if not p.X.h1_line_vanishing:
        raise HypothesisError(
            f"'{p.X.name}' is not flagged with vanishing h^1 of line bundles"
        )


def stability_classify(p: DistributionProfile) -> StabilityVerdict:
    """Slope-stability verdict for the tangent sheaf of a generic distribution.

    Strongest applicable rule wins: f below twice the cotangent-section
    threshold gives stability outright, equality gives semistability, and a
    (semi)stable tangent bundle of X passes its own verdict down for any f.
    """
    _require_theorem_hypotheses(p)
    rho = p.X.require_rho()
    if p.f < 2 * rho:
        return StabilityVerdict(STABLE, RHO_BOUND)
    if p.X.tx_stable == TX_STABLE:
        return StabilityVerdict(STABLE, TX_STABLE_REASON)
    if p.f == 2 * rho:
        return StabilityVerdict(SEMISTABLE, RHO_BOUND)
    if p.X.tx_stable == TX_SEMISTABLE:
        return StabilityVerdict(SEMISTABLE, TX_SEMISTABLE_REASON)
    return StabilityVerdict(INCONCLUSIVE, HYPOTHESIS_FAILS)


def dist_chern(p: DistributionProfile) -> ChernData:
    """Chern data of the tangent sheaf: rank 2, c1 = f, with c2 and c3 read
    off the defining sequence inside the tangent bundle."""
    if not p.generic:
        raise HypothesisError(
            "Chern formulas hold only for generic distributions"
        )
    X, kappa = p.X, p.kappa
    n2 = X.c2TX_H - kappa * X.cX * X.h3 + kappa * kappa * X.h3
    n3 = -twist_chern(X.tangent_chern, -kappa, X).n3
    return ChernData(2, p.f, n2, n3)


def singular_length(p: DistributionProfile) -> int:
    """Length of the singular scheme of a generic distribution; on P^3 this
    is d^3 + 2d^2 + 2d in the degree d."""
    n3 = dist_chern(p).n3
    if n3 < 0:
        raise NegativeLength(
            f"singular length {n3} < 0: no generic distribution has "
            f"c1 = {p.f} on '{p.X.name}'"
        )
    return n3


def subfoliation_analyze(
    p: DistributionProfile,
    tG: int,
    sing1F: str,
    n2_tf: int | None = None,
) -> SubfoliationReport:
    """Discrete consequences of a rank-1 subfoliation with tangent O(tG).

    The caller asserts that a section of the twisted tangent sheaf vanishing
    in codimension 2 exists; sing1F classifies the 1-dimensional singular
    locus of the ambient distribution.  For non-generic profiles the curve
    class of the section's zero locus needs c2 of the tangent sheaf, which is
    not determined by the profile; pass n2_tf or receive None.
    """
    if sing1F not in _SING1_KINDS:
        raise DomainError(f"sing1F must be one of {_SING1_KINDS}")
    if p.generic and sing1F != SING1_EMPTY:
        raise DomainError(
            "a generic distribution has empty 1-dimensional singular locus"
        )
    if not p.generic and sing1F == SING1_EMPTY:
        raise DomainError(
            "a non-generic distribution has nonempty 1-dimensional singular locus"
        )
    X, f = p.X, p.f
    lfg_degree = f - tG

    if n2_tf is None and p.generic:
        n2_tf = dist_chern(p).n2
    y_class = None
    if n2_tf is not None:
        y_class = n2_tf - tG * f * X.h3 + tG * tG * X.h3
        if y_class < 0:
            raise NegativeCurveClass(
                f"zero-locus class {y_class} < 0: no section with tG = {tG} "
                "can vanish in codimension 2"
            )

    # the splitting criterion from the extension of twisted ideal sheaves;
    # the alternative reading differs by the sign of tG, so both degrees are
    # surfaced in the report
    degree_proof = 2 * f - tG - X.cX
    degree_statement = 2 * f + tG - X.cX
    split = SPLITS if X.h1_line_vanishing else SPLIT_UNKNOWN

    if sing1F == SING1_EMPTY:
        structure = Y_EQUALS_SING1
        branches = (_BRANCH_Y,)
    else:
        structure = CASE_SPLIT
        branches = (_BRANCH_Y, _BRANCH_UNION)

    return SubfoliationReport(
        tG=tG,
        lfg_degree=lfg_degree,
        y_class=y_class,
        split=split,
        sing_structure=structure,
        branches=branches,
        split_degree_proof=degree_proof,
        split_degree_statement=degree_statement,
    )


def conn_components(
    p: DistributionProfile,
    h2_TF_LFdual: int | None,
    c3_TF: int,
    tx_h1_vanishes: bool | None = None,
    tx_h2_vanishes: bool | None = None,
) -> ConnReport:
    """Number of connected components of the 1-dimensional singular locus,
    from h^2 of the twisted tangent sheaf and its c3.

    On P^3 the two vanishing hypotheses on the twisted tangent bundle of the
    ambient space are computed exactly; elsewhere the caller must supply them.
    When the h^2 hypothesis fails on P^3 (degree 2 only) the count is an
    interval of width one instead of an exact value.
    """
    X = p.X
    if not X.h1_line_vanishing:
        raise HypothesisError(
            f"'{X.name}' is not flagged with h^1(O) = 0"
        )
    if c3_TF < 0:
        raise DomainError(f"c3 must be >= 0, got {c3_TF}")
    if h2_TF_LFdual is None:
        raise MissingInvariant(
            "h^2 of the twisted tangent sheaf is required; the engine does "
            "not fabricate it"
        )
    if X.is_p3:
        from .cohomology import tangent_table  # loaded only where it is used

        d = 2 - p.f
        _, tx_h1, tx_h2, _ = tangent_table(-d - 2, -d - 2).columns[0]
        tx_h1_vanishes, tx_h2_vanishes = tx_h1 == (0, 0), tx_h2 == (0, 0)
    else:
        if tx_h1_vanishes is None or tx_h2_vanishes is None:
            raise MissingInvariant(
                f"vanishing of h^1/h^2 of the twisted tangent bundle on "
                f"'{X.name}' must be supplied by the caller"
            )

    h2 = h2_TF_LFdual
    if tx_h1_vanishes and tx_h2_vanishes:
        count = h2 - c3_TF + 1
        if count < 0:
            raise NegativeCount(
                f"component count {count} < 0: inconsistent h^2 = {h2}, "
                f"c3 = {c3_TF}"
            )
        return ConnReport("Exact", count, count, tx_h1_vanishes, tx_h2_vanishes, True)
    if X.is_p3 and tx_h1_vanishes:
        # the connecting map can absorb the one-dimensional obstruction, so
        # the count is pinned only to an interval of width one
        hi = h2 - c3_TF + 1
        if hi < 0:
            raise NegativeCount(
                f"component count <= {hi} < 0: inconsistent h^2 = {h2}, "
                f"c3 = {c3_TF}"
            )
        return ConnReport(
            "Interval", max(0, h2 - c3_TF), hi, tx_h1_vanishes, tx_h2_vanishes, True
        )
    raise HypothesisError(
        "the twisted tangent-bundle vanishing hypotheses fail; no count "
        "formula applies"
    )
