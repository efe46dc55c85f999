"""Typed failure modes shared by every engine module.

Each error class carries a stable ``name`` that the CLI prints verbatim on
stderr, so callers can key on it without parsing messages.
"""


class EngineError(Exception):
    """Base class for all typed engine failures."""

    name = "EngineError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            cls.name = cls.__name__


class NonIntegralChernClass(EngineError):
    """An exact conversion produced a non-integer Chern class."""


class NonIntegralChi(EngineError):
    """Riemann-Roch produced a non-integer Euler characteristic."""


class UnsupportedRank(EngineError):
    """Operation defined for one rank only, such as the rank-2 reflexive dual."""


class ArityError(EngineError):
    """Wrong number of known terms handed to a sequence operation."""


class MissingInvariant(EngineError):
    """A required threefold invariant (rho/gamma/...) is not available."""


class NotComputable(EngineError):
    """Requested dimension is outside the engine's exact capabilities."""


class Inconsistent(EngineError):
    """No exact sequence realizes the dimension data: bad input data."""


class RankError(EngineError):
    """A declared kernel or cokernel would have negative rank."""


class UnknownIdentifier(EngineError):
    """Expression references a named sheaf with no declaration."""


class DslSyntaxError(EngineError):
    """Malformed sheaf expression; carries the byte offset of the failure."""

    name = "SyntaxError"

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class HypothesisError(EngineError):
    """A theorem's standing hypothesis is violated by the inputs."""


class NegativeLength(EngineError):
    """Singular-scheme length came out negative: no such distribution."""


class NegativeCount(EngineError):
    """Component count came out negative: inconsistent inputs."""


class NegativeCurveClass(EngineError):
    """Curve class of a section's zero locus came out negative."""


class DomainError(EngineError):
    """Argument outside the operation's domain, or invalid input data."""
