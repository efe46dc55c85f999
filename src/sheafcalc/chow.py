"""Exact numerical intersection theory on Picard-rank-one threefolds.

A sheaf is encoded by the integers that survive pairing against powers of
the ample generator H: (rank, c1, c2.H, deg c3).  Every operation is a pure
function over immutable values; nothing here ever touches floats.  Twists,
sums, third terms of sequences and Riemann-Roch all run on one integer Chern
character (rank, c1, 2.h3.ch_2, 6.h3.ch_3), at every rank.
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path

from .errors import (
    ArityError,
    DomainError,
    MissingInvariant,
    NonIntegralChernClass,
    NonIntegralChi,
    UnsupportedRank,
)
from .record import Record, _set

TX_STABLE = "stable"
TX_SEMISTABLE = "semistable"
TX_UNKNOWN = "unknown"
_TX_FLAGS = (TX_STABLE, TX_SEMISTABLE, TX_UNKNOWN)


class ThreefoldData(Record):
    """Numerical profile of a smooth projective threefold with Pic = Z.H.

    h3 is the degree H^3; cX, c2TX_H, c3TX are c1(TX), c2(TX).H and deg c3(TX);
    rhoX is the smallest twist t with nonzero sections of the twisted cotangent
    bundle, gammaX the smallest twist making it globally generated.  Either may
    be None when not known, in which case operations needing them refuse to run.
    """

    name: str
    h3: int
    cX: int
    c2TX_H: int
    c3TX: int
    rhoX: int | None = None
    gammaX: int | None = None
    tx_stable: str = TX_UNKNOWN
    h1_line_vanishing: bool = True

    def __post_init__(self):
        if self.h3 < 1:
            raise DomainError(f"h3 must be >= 1, got {self.h3}")
        if self.rhoX is not None and self.rhoX < 1:
            raise DomainError(f"rhoX must be >= 1, got {self.rhoX}")
        if (
            self.rhoX is not None
            and self.gammaX is not None
            and self.gammaX < self.rhoX
        ):
            # global generation forces a nonzero section, so gamma >= rho
            raise DomainError(
                f"gammaX={self.gammaX} < rhoX={self.rhoX} is impossible"
            )
        if self.tx_stable not in _TX_FLAGS:
            raise DomainError(f"tx_stable must be one of {_TX_FLAGS}")
        if self.rhoX is not None:
            if self.tx_stable == TX_STABLE and not self.cX < 3 * self.rhoX:
                raise DomainError(
                    f"stable tangent bundle needs cX < 3*rhoX, got "
                    f"cX={self.cX}, rhoX={self.rhoX}"
                )
            if self.tx_stable == TX_SEMISTABLE and not self.cX <= 3 * self.rhoX:
                raise DomainError(
                    f"semistable tangent bundle needs cX <= 3*rhoX, got "
                    f"cX={self.cX}, rhoX={self.rhoX}"
                )

    @property
    def tangent_chern(self) -> "ChernData":
        return ChernData(3, self.cX, self.c2TX_H, self.c3TX)

    @property
    def is_p3(self) -> bool:
        """Whether the numerical profile is the one of projective 3-space."""
        return (self.h3, self.cX, self.c2TX_H, self.c3TX) == (1, 4, 6, 4)

    def require_rho(self) -> int:
        if self.rhoX is None:
            raise MissingInvariant(f"rhoX is not recorded for '{self.name}'")
        return self.rhoX

    def require_gamma(self) -> int:
        if self.gammaX is None:
            raise MissingInvariant(f"gammaX is not recorded for '{self.name}'")
        return self.gammaX


class ChernData(Record):
    """(rank, c1, c2.H, deg c3) of a sheaf, all exact integers."""

    rank: int
    c1: int
    n2: int
    n3: int

    def __init__(self, rank: int, c1: int, n2: int, n3: int):
        # written out, as the engine builds these on its hot paths
        _set(self, "rank", rank)
        _set(self, "c1", c1)
        _set(self, "n2", n2)
        _set(self, "n3", n3)
        for field in self._fields:
            if not isinstance(getattr(self, field), int):
                raise DomainError(f"{field} must be an integer")
        if rank < 0:
            raise DomainError(f"rank must be >= 0, got {rank}")


def line_chern(t: int) -> ChernData:
    """Chern data of the line bundle O(t)."""
    return ChernData(1, t, 0, 0)


def _ch(c: ChernData, h3: int) -> tuple[int, int, int, int]:
    """Integer Chern character (rank, c1, q2, N3) = (ch_0, ch_1, 2.h3.ch_2,
    6.h3.ch_3): the rational character scaled to integers, additive over
    sequences."""
    c1, n2 = c.c1, c.n2
    return (
        c.rank,
        c1,
        c1 * c1 * h3 - 2 * n2,
        c1 * c1 * c1 * h3 - 3 * c1 * n2 + 3 * c.n3,
    )


def _ch_twist(ch, t: int, h3: int) -> tuple[int, int, int, int]:
    """ch . exp(tH) on the integer character."""
    r, c1, q2, N3 = ch
    return (
        r,
        c1 + r * t,
        q2 + h3 * t * (2 * c1 + r * t),
        N3 + 3 * t * q2 + h3 * t * t * (3 * c1 + r * t),
    )


def _chern(ch, h3: int) -> ChernData:
    """Inverse of _ch.  NonIntegralChernClass when the rank is negative: this
    is how a declared sequence that cannot be exact is detected.  Sums,
    differences and twists of the characters of integer Chern data keep the
    Chern numbers integral: c1^2.h3 - q2 stays even, and the numerator of
    deg c3 stays divisible by 3, as x^3 = x (mod 3)."""
    r, c1, q2, N3 = ch
    if r < 0:
        raise NonIntegralChernClass(f"rank = {r} is negative")
    n2 = (c1 * c1 * h3 - q2) // 2
    return ChernData(r, c1, n2, (N3 - c1 * c1 * c1 * h3 + 3 * c1 * n2) // 3)


def chi_at_twist(c: ChernData, t: int, X: ThreefoldData) -> int:
    """chi of the sheaf twisted by O(t): Hirzebruch-Riemann-Roch in closed form.

    chi(E(t)) = deg(ch(E(t)).td(X))_3 is num / 24 on the integer character of
    E(t); t = 0 gives chi(E).
    """
    h3, cX, c2X = X.h3, X.cX, X.c2TX_H
    r, c1, N2, N3 = _ch_twist(_ch(c, h3), t, h3)
    num = 4 * N3 + 6 * cX * N2 + 2 * c1 * (cX * cX * h3 + c2X) + r * cX * c2X
    chi, rem = divmod(num, 24)
    if rem:
        g = gcd(num, 24)
        raise NonIntegralChi(
            f"chi = {num // g}/{24 // g} is not an integer on '{X.name}'"
        )
    return chi


def chi_series(c: ChernData, lo: int, X: ThreefoldData):
    """chi_at_twist(c, t, X) for t = lo, lo + 1, ..., without end.

    num = 24.chi(E(t)) is a cubic in t with int coefficients.  The first four
    values come from chi_at_twist, each when it is yielded, so each may raise
    NonIntegralChi there; they fix the backward differences, and each later
    value is three int additions away.  Later values cannot raise: every value
    of num is an integer combination of four consecutive ones, so 24 divides
    it once it divides those four.
    """
    x0 = chi_at_twist(c, lo, X)
    yield x0
    x1 = chi_at_twist(c, lo + 1, X)
    yield x1
    x2 = chi_at_twist(c, lo + 2, X)
    yield x2
    x = chi_at_twist(c, lo + 3, X)
    yield x
    d1, d2, d3 = x - x2, x - 2 * x2 + x1, x - 3 * x2 + 3 * x1 - x0
    while True:
        d2 += d3
        d1 += d2
        x += d1
        yield x


def twist_chern(c: ChernData, t: int, X: ThreefoldData) -> ChernData:
    """Chern data of the sheaf twisted by O(t), at every rank."""
    return _chern(_ch_twist(_ch(c, X.h3), t, X.h3), X.h3)


def dual_chern(c: ChernData) -> ChernData:
    """Formal dual: odd Chern classes flip sign.  Exact for locally free
    sheaves; rank-2 reflexive sheaves should use reflexive_dual_rank2, whose
    c3 does not flip."""
    return ChernData(c.rank, -c.c1, c.n2, -c.n3)


def reflexive_dual_rank2(c: ChernData) -> ChernData:
    """Dual of a rank-2 reflexive sheaf: isomorphic to the sheaf twisted by
    -c1, so (2, c1, n2, n3) -> (2, -c1, n2, n3).  Independent of the threefold
    because the twist corrections to c2.H cancel exactly at t = -c1."""
    if c.rank != 2:
        raise UnsupportedRank(
            f"reflexive_dual_rank2 needs rank 2, got {c.rank}"
        )
    return ChernData(2, -c.c1, c.n2, c.n3)


def ses_third(
    a: ChernData | None,
    b: ChernData | None,
    c: ChernData | None,
    X: ThreefoldData,
) -> ChernData:
    """Third term of a short exact sequence 0 -> a -> b -> c -> 0.

    Exactly two of the three terms must be given; the missing one is recovered
    from additivity of the Chern character and must be integral.
    """
    known = [x is not None for x in (a, b, c)]
    if known.count(True) != 2:
        raise ArityError(
            "exactly two of the three sequence terms must be given"
        )
    h3 = X.h3
    if b is None:
        ch = [x + y for x, y in zip(_ch(a, h3), _ch(c, h3))]
    else:
        other = _ch(c if a is None else a, h3)
        ch = [x - y for x, y in zip(_ch(b, h3), other)]
    return _chern(ch, h3)


def sum_chern(parts: list[ChernData], X: ThreefoldData) -> ChernData:
    """Whitney sum via additivity of the Chern character."""
    h3 = X.h3
    columns = zip((0, 0, 0, 0), *(_ch(p, h3) for p in parts))
    return _chern([sum(col) for col in columns], h3)


# ---------------------------------------------------------------------------
# Shipped presets and the JSON preset interface.

P3 = ThreefoldData("p3", 1, 4, 6, 4, rhoX=2, gammaX=2, tx_stable=TX_STABLE)
QUINTIC = ThreefoldData(
    "quintic", 5, 0, 50, -200, rhoX=2, gammaX=2, tx_stable=TX_STABLE
)
QUADRIC = ThreefoldData(
    "quadric", 2, 3, 8, 4, rhoX=None, gammaX=None, tx_stable=TX_UNKNOWN
)

PRESETS = {"p3": P3, "quintic": QUINTIC, "quadric": QUADRIC}

_SCHEMA = {
    "name": (str,),
    "h3": (int,),
    "cX": (int,),
    "c2TX_H": (int,),
    "c3TX": (int,),
    "rhoX": (int, type(None)),
    "gammaX": (int, type(None)),
    "tx_stable": (str,),
    "h1_line_vanishing": (bool,),
}


def threefold_from_dict(doc: dict) -> ThreefoldData:
    """Validate and build a ThreefoldData from its JSON document form."""
    if not isinstance(doc, dict):
        raise DomainError("threefold document must be a JSON object")
    missing = sorted(set(_SCHEMA) - set(doc))
    if missing:
        raise DomainError(f"threefold document missing keys: {missing}")
    extra = sorted(set(doc) - set(_SCHEMA))
    if extra:
        raise DomainError(f"threefold document has unknown keys: {extra}")
    for key, types in _SCHEMA.items():
        value = doc[key]
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise DomainError(f"key '{key}' has wrong type {type(value).__name__}")
    return ThreefoldData(**doc)


def threefold_to_dict(X: ThreefoldData) -> dict:
    """Inverse of threefold_from_dict, with the documented key order."""
    return {key: getattr(X, key) for key in _SCHEMA}


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of two values silently
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DomainError(f"threefold document repeats key '{key}'")
        doc[key] = value
    return doc


def load_threefold(path: str | Path) -> ThreefoldData:
    """Load a threefold profile from a JSON preset file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read threefold file: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to decode
        raise DomainError(f"invalid JSON in threefold file: {exc}") from exc
    return threefold_from_dict(doc)
