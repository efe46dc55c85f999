"""A small expression language for sheaves built from atoms and declared
short exact sequences.

Grammar (whitespace-insensitive)::

    expr  := term ("+" term)*
    term  := "twist" "(" expr "," int ")"
           | "dual" "(" expr ")"
           | "rdual" "(" expr ")"
           | "coker" "(" expr "->" expr ")"
           | "ker" "(" expr "->" expr ")"
           | atom
    atom  := "O" "(" int ")" | "TX" [ "(" int ")" ] | "Omega1" [ "(" int ")" ]
           | ident

``TX(t)`` and ``Omega1(t)`` are shorthand for twists.  A kernel or cokernel
node declares that an exact sequence with unspecified maps exists; the engine
evaluates the numerical consequences and never checks that a map does.
"""

from __future__ import annotations

import re
import sys

from .chow import (
    P3,
    ChernData,
    ThreefoldData,
    dual_chern,
    line_chern,
    reflexive_dual_rank2,
    ses_third,
    sum_chern,
    twist_chern,
)
from .errors import (
    DomainError,
    DslSyntaxError,
    NotComputable,
    RankError,
    UnknownIdentifier,
)
from .record import Record


class SheafExpr(Record):
    """Base class of all expression nodes."""


class AtomO(SheafExpr):
    t: int


class AtomTX(SheafExpr):
    pass


class AtomOmega1(SheafExpr):
    pass


class AtomNamed(SheafExpr):
    name: str


class Twist(SheafExpr):
    base: SheafExpr
    t: int


class Dual(SheafExpr):
    base: SheafExpr
    reflexive_rank2: bool = False


class Sum(SheafExpr):
    left: SheafExpr
    right: SheafExpr


class Coker(SheafExpr):
    sub: SheafExpr
    ambient: SheafExpr


class Ker(SheafExpr):
    ambient: SheafExpr
    quotient: SheafExpr


class NamedDecl(Record):
    """A user-declared sheaf: Chern data plus optional known dimensions."""

    name: str
    chern: ChernData
    cohom_hints: dict  # (i, twist) -> int

    def __init__(self, name: str, chern: ChernData, cohom_hints: dict | None = None):
        super().__init__(name, chern, {} if cohom_hints is None else cohom_hints)


# Deepest expression tree accepted (the top node is level 1).  The evaluators
# recurse once per level and the parser twice, well inside Python's default
# recursion limit of 1000.
_MAX_DEPTH = 300

_TOKEN_RE = re.compile(
    r"(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>->|[(),+])|(?P<bad>\S)"
)


def _tokenize(src: str):
    # finditer skips the white space between tokens; "bad" catches the rest
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(src)]
    for kind, text, offset in tokens:
        if kind == "bad":
            raise DslSyntaxError(f"unexpected character {text!r}", offset)
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym):
        # only sym tokens have the text "(", ")", "," or "->"
        tok = self.next()
        if tok[1] != sym:
            raise DslSyntaxError(f"expected {sym!r}, found {tok[1]!r}", tok[2])

    def parse_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            raise DslSyntaxError(f"expected an integer, found {tok[1]!r}", tok[2])
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts
            message = f"integer has more than {sys.get_int_max_str_digits()} digits"
            raise DslSyntaxError(message, tok[2]) from None

    def check_depth(self, depth: int, offset: int) -> None:
        if depth > _MAX_DEPTH:
            raise DslSyntaxError(
                f"expression deeper than {_MAX_DEPTH} levels", offset
            )

    # The parse methods take the depth of the node they build and return it
    # with its height, since a "+" puts every term before it one level deeper.

    def parse_expr(self, depth: int) -> tuple[SheafExpr, int]:
        node, height = self.parse_term(depth)
        while self.peek()[:2] == ("sym", "+"):
            self.next()
            offset = self.peek()[2]
            right, right_height = self.parse_term(depth)
            node, height = Sum(node, right), max(height, right_height) + 1
            self.check_depth(depth + height - 1, offset)
        return node, height

    def parse_term(self, depth: int) -> tuple[SheafExpr, int]:
        tok = self.next()
        if tok[0] != "ident":
            raise DslSyntaxError(f"expected a sheaf term, found {tok[1]!r}", tok[2])
        self.check_depth(depth, tok[2])
        word = tok[1]
        if word == "O":
            self.expect("(")
            t = self.parse_int()
            self.expect(")")
            return AtomO(t), 1
        if word in ("TX", "Omega1"):
            atom = AtomTX() if word == "TX" else AtomOmega1()
            if self.peek()[:2] == ("sym", "("):
                self.check_depth(depth + 1, tok[2])
                self.next()
                t = self.parse_int()
                self.expect(")")
                return Twist(atom, t), 2
            return atom, 1
        if word == "twist":
            self.expect("(")
            base, height = self.parse_expr(depth + 1)
            self.expect(",")
            t = self.parse_int()
            self.expect(")")
            return Twist(base, t), height + 1
        if word in ("dual", "rdual"):
            self.expect("(")
            base, height = self.parse_expr(depth + 1)
            self.expect(")")
            return Dual(base, reflexive_rank2=(word == "rdual")), height + 1
        if word in ("coker", "ker"):
            self.expect("(")
            first, first_height = self.parse_expr(depth + 1)
            self.expect("->")
            second, second_height = self.parse_expr(depth + 1)
            self.expect(")")
            height = max(first_height, second_height) + 1
            if word == "coker":
                return Coker(sub=first, ambient=second), height
            return Ker(ambient=first, quotient=second), height
        return AtomNamed(word), 1


def parse(src: str) -> SheafExpr:
    """Parse a sheaf expression; raises SyntaxError-named DslSyntaxError with
    the byte offset of the first offending token, also for a tree deeper than
    _MAX_DEPTH levels."""
    if not src.strip():
        raise DslSyntaxError("empty expression", 0)
    parser = _Parser(src)
    node, _ = parser.parse_expr(1)
    tok = parser.peek()
    if tok[0] != "end":
        raise DslSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def pretty(e: SheafExpr) -> str:
    """Canonical text form; parse(pretty(e)) == e for parser-produced trees."""
    if isinstance(e, AtomO):
        return f"O({e.t})"
    if isinstance(e, AtomTX):
        return "TX"
    if isinstance(e, AtomOmega1):
        return "Omega1"
    if isinstance(e, AtomNamed):
        return e.name
    if isinstance(e, Twist):
        if isinstance(e.base, (AtomTX, AtomOmega1)):
            return f"{pretty(e.base)}({e.t})"
        return f"twist({pretty(e.base)}, {e.t})"
    if isinstance(e, Dual):
        op = "rdual" if e.reflexive_rank2 else "dual"
        return f"{op}({pretty(e.base)})"
    if isinstance(e, Sum):
        return f"{pretty(e.left)} + {pretty(e.right)}"
    if isinstance(e, Coker):
        return f"coker({pretty(e.sub)} -> {pretty(e.ambient)})"
    if isinstance(e, Ker):
        return f"ker({pretty(e.ambient)} -> {pretty(e.quotient)})"
    raise DomainError(f"not a sheaf expression: {e!r}")


def _decl(env, name: str) -> NamedDecl:
    if env is None or name not in env:
        raise UnknownIdentifier(f"no declaration for sheaf '{name}'")
    return env[name]


def chern_of(
    e: SheafExpr, X: ThreefoldData = P3, env: dict[str, NamedDecl] | None = None
) -> ChernData:
    """Compositional Chern-data evaluation of an expression on X."""
    return _facts(e, X, env, {})[0]


def _facts(e, X, env, memo) -> tuple[ChernData, bool]:
    # The Chern data of a node and whether it is locally free by construction,
    # so that Serre duality may be applied to its plain dual.  memo maps
    # id(node) -> facts within one call, so each node is evaluated once.
    found = memo.get(id(e))
    if found is not None:
        return found
    if isinstance(e, AtomO):
        found = line_chern(e.t), True
    elif isinstance(e, AtomTX):
        found = X.tangent_chern, True
    elif isinstance(e, AtomOmega1):
        found = dual_chern(X.tangent_chern), True
    elif isinstance(e, AtomNamed):
        found = _decl(env, e.name).chern, False
    elif isinstance(e, Twist):
        base, free = _facts(e.base, X, env, memo)
        found = twist_chern(base, e.t, X), free
    elif isinstance(e, Dual):
        base, free = _facts(e.base, X, env, memo)
        if e.reflexive_rank2:
            found = reflexive_dual_rank2(base), False
        else:
            found = dual_chern(base), free
    elif isinstance(e, Sum):
        left, left_free = _facts(e.left, X, env, memo)
        right, right_free = _facts(e.right, X, env, memo)
        found = sum_chern([left, right], X), left_free and right_free
    elif isinstance(e, Coker):
        sub = _facts(e.sub, X, env, memo)[0]
        ambient = _facts(e.ambient, X, env, memo)[0]
        if ambient.rank - sub.rank < 0:
            raise RankError(
                f"coker would have rank {ambient.rank - sub.rank} < 0"
            )
        found = ses_third(sub, ambient, None, X), False
    elif isinstance(e, Ker):
        ambient = _facts(e.ambient, X, env, memo)[0]
        quotient = _facts(e.quotient, X, env, memo)[0]
        if ambient.rank - quotient.rank < 0:
            raise RankError(
                f"ker would have rank {ambient.rank - quotient.rank} < 0"
            )
        found = ses_third(None, ambient, quotient, X), False
    else:
        raise DomainError(f"not a sheaf expression: {e!r}")
    memo[id(e)] = found
    return found


def cohom_of(
    e: SheafExpr,
    twist_range: tuple[int, int],
    X: ThreefoldData = P3,
    env: dict[str, NamedDecl] | None = None,
):
    """The CohomTable of the expression over the inclusive twist range.

    Entries are exact at atoms (Bott formula) and carried through declared
    sequences by the dimension chaser, as the projection of the exact chains
    at each twist; whatever a connecting map leaves undetermined stays an
    interval.  Only available on P^3, so the walk runs
    on P3 whatever name X carries.  The range may hold at most 10,000 twists.
    """
    # imported here: parse and chern_of need none of it
    from .cohomology import (
        CohomTable, _check_span, les_chase, line_table, omega1_table, tangent_table,
    )

    if not X.is_p3:
        raise NotComputable(f"cohomology tables are only exact on p3, not '{X.name}'")
    lo, hi = twist_range
    if lo > hi:
        raise DomainError(f"empty twist range {lo}..{hi}")
    _check_span(lo, hi)
    memo = {}  # the _facts memo of the whole call

    def walk(e, lo, hi):
        # Every table of the walk has a column at each twist lo..hi, or none.
        # A node's facts are read where its Chern data decides which error is
        # raised first: before the children at coker, ker and dual, after them
        # at twist and sum.
        if isinstance(e, AtomO):
            return line_table(e.t, lo, hi)
        if isinstance(e, AtomTX):
            return tangent_table(lo, hi)
        if isinstance(e, AtomOmega1):
            return omega1_table(lo, hi)
        if isinstance(e, AtomNamed):
            decl = _decl(env, e.name)
            columns = [
                tuple(_hint(decl, i, t) for i in range(4)) for t in range(lo, hi + 1)
            ]
            return CohomTable.of_columns(P3, decl.chern, lo, columns)
        if isinstance(e, Twist) or isinstance(e, Dual) and e.reflexive_rank2:
            # a twist, or F* = F(-c1) for a rank-2 reflexive F: the base's columns
            shift = e.t if isinstance(e, Twist) else -_facts(e.base, P3, env, memo)[0].c1
            base = walk(e.base, lo + shift, hi + shift)
            return CohomTable.of_columns(P3, _facts(e, P3, env, memo)[0], lo, base.columns)
        if isinstance(e, Dual):
            chern, locally_free = _facts(e, P3, env, memo)
            if not locally_free:
                # duals of non-locally-free shapes get no dimension information
                return CohomTable(P3, chern)
            # h^i(E*(t)) = h^(3-i)(E(-t-4)) by Serre duality
            base = walk(e.base, -hi - 4, -lo - 4)
            columns = [column[::-1] for column in base.columns[::-1]]
            return CohomTable.of_columns(P3, chern, lo, columns)
        if isinstance(e, Sum):
            left = walk(e.left, lo, hi)
            right = walk(e.right, lo, hi)
            # an unknown entry, or a side with no columns, adds unknown entries
            columns = [
                tuple(
                    (0, None) if a[1] is None or b[1] is None
                    else (a[0] + b[0], a[1] + b[1])
                    for a, b in zip(left.column(t), right.column(t))
                )
                for t in range(lo, lo + max(len(left.columns), len(right.columns)))
            ]
            return CohomTable.of_columns(P3, _facts(e, P3, env, memo)[0], lo, columns)
        if isinstance(e, (Coker, Ker)):
            blank = CohomTable(P3, _facts(e, P3, env, memo)[0])  # also the rank check
            ends = (e.sub, e.ambient) if isinstance(e, Coker) else (e.ambient, e.quotient)
            first, second = (walk(end, lo, hi) for end in ends)
            if isinstance(e, Coker):
                return les_chase((first, second, blank))[2]
            return les_chase((blank, first, second))[0]
        raise DomainError(f"not a sheaf expression: {e!r}")

    return walk(e, lo, hi)


def _hint(decl: NamedDecl, i: int, t: int) -> tuple[int, int | None]:
    # h^i at twist t as a pair; a dimension is an int >= 0, and a bool is none
    n = decl.cohom_hints.get((i, t))
    if n is not None and (type(n) is not int or n < 0):
        raise DomainError(f"hint h^{i}({decl.name}({t})) is not a dimension: {n!r}")
    return (0, None) if n is None else (n, n)


def parse_batch(text: str) -> list[SheafExpr]:
    """Parse a batch document: one expression per line, '#' starts a comment."""
    exprs = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            exprs.append(parse(stripped))
    return exprs
