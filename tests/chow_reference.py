"""The rational Chern-character route: the tests' reference for the engine's
integer character.

Graded classes a0 + a1.H + a2.H^2 + a3.H^3 in Q[H]/(H^4), over exact
fractions.  The engine computes twists, sums, third terms and Riemann-Roch on
the integer character (rank, c1, 2.h3.ch_2, 6.h3.ch_3); the tests compare it
with products and sums of these classes, errors and messages included.
"""

from fractions import Fraction

from sheafcalc.chow import ChernData, ThreefoldData
from sheafcalc.errors import NonIntegralChernClass
from sheafcalc.record import Record


class ChowClass(Record):
    """Graded rational class a0 + a1.H + a2.H^2 + a3.H^3, truncated in degree 3."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction

    @staticmethod
    def of(a0, a1=0, a2=0, a3=0) -> "ChowClass":
        return ChowClass(Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3))

    @staticmethod
    def exp_divisor(t: int) -> "ChowClass":
        """exp(t.H) = 1 + tH + t^2/2 H^2 + t^3/6 H^3."""
        return ChowClass.of(1, t, Fraction(t * t, 2), Fraction(t**3, 6))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(
            self.a0 + other.a0,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(
            self.a0 - other.a0,
            self.a1 - other.a1,
            self.a2 - other.a2,
            self.a3 - other.a3,
        )

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        u, v = self, other
        return ChowClass(
            u.a0 * v.a0,
            u.a0 * v.a1 + u.a1 * v.a0,
            u.a0 * v.a2 + u.a1 * v.a1 + u.a2 * v.a0,
            u.a0 * v.a3 + u.a1 * v.a2 + u.a2 * v.a1 + u.a3 * v.a0,
        )

    def top_degree(self, h3: int) -> Fraction:
        """Degree of the codimension-3 piece: pairing H^3 against the class."""
        return self.a3 * h3


def chern_to_ch(c: ChernData, X: ThreefoldData) -> ChowClass:
    """Chern character of a sheaf with the given Chern data.

    Valid for any rank on a threefold since only c1..c3 enter ch_0..ch_3.
    """
    h3 = X.h3
    return ChowClass(
        Fraction(c.rank),
        Fraction(c.c1),
        Fraction(c.c1**2 * h3 - 2 * c.n2, 2 * h3),
        Fraction(c.c1**3 * h3 - 3 * c.c1 * c.n2 + 3 * c.n3, 6 * h3),
    )


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralChernClass(f"{what} = {x} is not an integer")
    return int(x)


def ch_to_chern(ch: ChowClass, X: ThreefoldData) -> ChernData:
    """Invert chern_to_ch via Newton's identities; bit-exact round trip.

    Raises NonIntegralChernClass, with the engine's messages, when the input
    cannot come from an actual sheaf on X (negative or non-integer rank,
    non-integer Chern numbers).
    """
    h3 = X.h3
    rank = _as_int(ch.a0, "rank")
    if rank < 0:
        raise NonIntegralChernClass(f"rank = {rank} is negative")
    c1 = _as_int(ch.a1, "c1")
    n2 = _as_int(Fraction(c1**2, 2) * h3 - ch.a2 * h3, "c2.H")
    n3 = _as_int(
        2 * ch.a3 * h3 - Fraction(c1**3 * h3 - 3 * c1 * n2, 3), "deg c3"
    )
    return ChernData(rank, c1, n2, n3)


def todd_class(X: ThreefoldData) -> ChowClass:
    """td(X) = 1 + c1/2 + (c1^2 + c2)/12 + c1.c2/24, as a graded class."""
    h3 = X.h3
    return ChowClass(
        Fraction(1),
        Fraction(X.cX, 2),
        Fraction(X.cX**2 * h3 + X.c2TX_H, 12 * h3),
        Fraction(X.cX * X.c2TX_H, 24 * h3),
    )
