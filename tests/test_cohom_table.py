"""The column layout of CohomTable: its dict constructor, its equality, and
the index arithmetic of twists, rank-2 reflexive duals and Serre duality."""

import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafcalc.chow import P3, line_chern
from sheafcalc.cohomology import (
    CohomTable,
    DimEntry,
    bott_h,
    dist_sequence_tables,
    les_chase,
    line_table,
    omega1_table,
    tangent_table,
)
from sheafcalc.errors import DomainError, EngineError
from sheafcalc.sheafdsl import (
    AtomNamed,
    AtomO,
    AtomOmega1,
    AtomTX,
    Coker,
    Dual,
    Ker,
    NamedDecl,
    SheafExpr,
    Sum,
    Twist,
    chern_of,
    cohom_of,
    parse,
)


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_documents.json"


def _assert_stored_pairs_are_valid(table):
    # the rule the dict constructor checks, which stored pairs keep by
    # construction: an entry is the unknown (0, None) or ints 0 <= lo <= hi
    for column in table.columns:
        assert len(column) == 4
        for lo, hi in column:
            if (lo, hi) != (0, None):
                assert type(lo) is int and type(hi) is int and 0 <= lo <= hi


def _declared(name, src, lo, hi, keep):
    # a named sheaf with the Chern data of src and, as hints, the exact
    # entries of its table at the twists keep chooses
    table = cohom_of(parse(src), (lo, hi))
    hints = {
        (i, t): n
        for t in range(table.lo, table.lo + len(table.columns))
        for i, (n, m) in enumerate(table.column(t))
        if n == m and keep(i, t)
    }
    return NamedDecl(name, table.chern, hints)


ENV = {
    decl.name: decl
    for decl in (
        _declared("L", "O(1) + O(-2)", -6, 6, lambda i, t: True),
        _declared("R", "coker(O(-1) -> TX(-1))", -6, 6, lambda i, t: t % 2 == 0),
        _declared("T", "TX(-1)", -6, 6, lambda i, t: i == 0),
        _declared("F", "coker(O(-2) -> Omega1(1))", -3, 3, lambda i, t: i < 2),
    )
}

leaves = st.one_of(
    st.integers(-4, 4).map(AtomO),
    st.just(AtomTX()),
    st.just(AtomOmega1()),
    st.sampled_from(sorted(ENV)).map(AtomNamed),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.integers(-4, 4)).map(lambda p: Twist(*p)),
        children.map(lambda e: Dual(e, False)),
        children.map(lambda e: Dual(e, True)),
        st.tuples(children, children).map(lambda p: Sum(*p)),
        st.tuples(children, children).map(lambda p: Coker(*p)),
        st.tuples(children, children).map(lambda p: Ker(*p)),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


@given(expressions, st.integers(-6, 3), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_a_wide_range_has_the_columns_of_single_twists(e, lo, width):
    # catches an index off by one, or a reversal, that one twist cannot show
    hi = lo + width
    try:
        table = cohom_of(e, (lo, hi), P3, ENV)
    except EngineError:
        return
    _assert_stored_pairs_are_valid(table)
    for t in range(lo, hi + 1):
        single = cohom_of(e, (t, t), P3, ENV)
        assert single.chern == table.chern
        assert single.column(t) == table.column(t)


def _golden_sheaves():
    # (sheaf, twists) of every golden cohomology --sheaf document that succeeds
    found = set()
    for case in json.loads(GOLDEN.read_text()):
        argv = case["argv"]
        if argv[0] == "cohomology" and "--sheaf" in argv and case["code"] == 0:
            found.add((argv[argv.index("--sheaf") + 1], argv[argv.index("--twists") + 1]))
    return sorted(found)


def _subtrees(e):
    yield e
    for name in e._fields:
        child = getattr(e, name)
        if isinstance(child, SheafExpr):
            yield from _subtrees(child)


@pytest.mark.parametrize("src, twists", _golden_sheaves())
def test_golden_tables_store_only_valid_pairs(src, twists):
    # every node of the expression, at the document's twists: these include
    # a sum of a table without columns and a table with them
    lo, hi = map(int, twists.split(".."))
    for e in _subtrees(parse(src)):
        _assert_stored_pairs_are_valid(cohom_of(e, (lo, hi)))


pairs = st.one_of(
    st.integers(0, 9).map(lambda n: (n, n)),
    st.tuples(st.integers(0, 9), st.integers(1, 5)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    st.just((0, None)),
)


@given(st.integers(-5, 5), st.integers(0, 4), st.data())
def test_a_contiguous_dict_round_trips(lo, width, data):
    twists = list(range(lo, lo + width + 1))
    entries = {(i, t): data.draw(pairs) for t in twists for i in range(4)}
    table = CohomTable(P3, line_chern(0), entries)
    assert (table.lo, len(table.columns)) == (lo, len(twists))
    read = {(i, t): x for t in twists for i, x in enumerate(table.column(t))}
    assert read == entries
    assert CohomTable(P3, line_chern(0), read) == table


def test_a_gap_in_a_sparse_dict_reads_as_unknown():
    entries = {(0, -1): (2, 2), (3, 2): (1, 4)}
    table = CohomTable(P3, line_chern(0), entries)
    assert (table.lo, len(table.columns)) == (-1, 4)
    free = (0, None)
    assert table.column(-1) == ((2, 2), free, free, free)
    assert table.column(0) == table.column(1) == (free,) * 4
    assert table.column(2) == (free, free, free, (1, 4))
    assert table.column(-2) == table.column(3) == (free,) * 4
    assert len(table.columns) == 4


@pytest.mark.parametrize("pair", [(0, None), (0, 0), (7, 7), (10**30, 10**30)])
def test_an_unknown_or_exact_pair_round_trips_through_column(pair):
    table = CohomTable(P3, line_chern(0), {(1, 3): pair})
    assert table.column(3) == ((0, None), pair, (0, None), (0, None))


NOT_PAIRS = [
    DimEntry(1, 1), (-1, 2), (3, 1), (3, None), (1, 2, 3), (1.0, 1.0), (None, None),
    [1, 1],
] + [x for bound in (2.5, True, "3") for x in (bound, (bound, bound), (0, bound), (bound, None))]


@pytest.mark.parametrize("entry", NOT_PAIRS, ids=repr)
def test_the_dict_refuses_anything_but_a_pair(entry):
    for entries in ({(0, 0): entry}, {(1, 0): (1, 1), (0, 0): entry}):
        with pytest.raises(DomainError, match="is not a pair"):
            CohomTable(P3, line_chern(0), entries)


@pytest.mark.parametrize("key", [(7, 0), (4, 0), (-1, 0), (True, 0)], ids=repr)
def test_the_dict_refuses_a_key_with_no_such_cohomology_degree(key):
    # h^7 does not exist: the entry was dropped and the table read unknown
    with pytest.raises(DomainError, match=re.escape(f"key {key!r} is not a pair")):
        CohomTable(P3, line_chern(0), {(0, 0): (1, 1), key: (1, 1)})


@pytest.mark.parametrize("key", [(0, 0.5), (0, True), (0, "1"), (0,), 5], ids=repr)
def test_the_dict_refuses_a_key_whose_twist_is_no_int(key):
    # (0, 0.5) reached range() and raised a bare TypeError
    with pytest.raises(DomainError, match=re.escape(f"key {key!r} is not a pair")):
        CohomTable(P3, line_chern(0), {(0, 0): (1, 1), key: (1, 1)})


def test_the_dict_refuses_a_run_of_more_than_ten_thousand_twists():
    # two far-apart twists built every column in between
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"twists 0\.\.1000000000 span more than 10000"):
        CohomTable(P3, line_chern(0), {(0, 0): (1, 1), (0, 10**9): (1, 1)})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError, match="span more than 10000"):
        CohomTable(P3, line_chern(0), {(0, -5000): (1, 1), (3, 5000): (1, 1)})
    table = CohomTable(P3, line_chern(0), {(0, -5000): (1, 1), (3, 4999): (1, 1)})
    assert (table.lo, len(table.columns)) == (-5000, 10_000)


@pytest.mark.parametrize("far", [10**4, 10**5, 10**9])
def test_les_chase_refuses_a_run_of_more_than_ten_thousand_twists(far):
    # tables far apart chased a column at every twist in between
    a, c = line_table(0, 0, 0), line_table(1, far, far)
    b = CohomTable(P3, line_chern(0))
    start = time.perf_counter()
    with pytest.raises(DomainError, match=rf"^twists 0\.\.{far} span more than 10000 columns$"):
        les_chase((a, b, c))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("src", ["O(1)", "coker(O(-2) -> Omega1(1))"])
def test_cohom_of_refuses_a_range_of_more_than_ten_thousand_twists(src):
    e = parse(src)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^twists 0\.\.1000000000 span more than 10000 columns$"):
        cohom_of(e, (0, 10**9))
    with pytest.raises(DomainError, match=r"^twists -5000\.\.5000 span more than 10000 columns$"):
        cohom_of(e, (-5000, 5000))
    assert time.perf_counter() - start < 1.0
    assert len(cohom_of(e, (-5000, 4999)).columns) == 10_000


BUILDERS = {
    "line_table": lambda lo, hi: line_table(3, lo, hi),
    "omega1_table": omega1_table,
    "tangent_table": tangent_table,
    # its middle table, Omega1(0) at d = 2, has one column per twist too
    "dist_sequence_tables": lambda lo, hi: dist_sequence_tables(2, lo, hi)[1],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_an_atom_table_refuses_a_run_of_more_than_ten_thousand_twists(name):
    # a builder made a column for every twist of any run it was given
    build = BUILDERS[name]
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^twists 0\.\.1000000000 span more than 10000 columns$"):
        build(0, 10**9)
    with pytest.raises(DomainError, match=r"^twists -5000\.\.5000 span more than 10000 columns$"):
        build(-5000, 5000)
    assert time.perf_counter() - start < 1.0
    assert len(build(-5000, 4999).columns) == 10_000


def test_equal_tables_compare_equal():
    chern = line_chern(1)
    entries = {
        (i, t): (n, n)
        for t in range(-2, 3)
        for i in range(4)
        for n in [bott_h(0, i, 1 + t)]
    }
    table = CohomTable(P3, chern, entries)
    assert table == CohomTable(P3, chern, dict(reversed(list(entries.items()))))
    assert table == line_table(1, -2, 2)
    assert table != line_table(1, -1, 2)
    assert table != CohomTable(P3, line_chern(2), entries)
    assert CohomTable(P3, chern) == CohomTable(P3, chern, {})
    # a twist of a table with no columns still has none, at any range
    e = parse("twist(dual(coker(O(-1) -> TX)), 2)")
    assert cohom_of(e, (3, 5)) == CohomTable(P3, chern_of(e))
    assert cohom_of(e, (0, 1)) == cohom_of(e, (3, 5))


def test_a_sequence_of_tables_without_columns_is_unknown_everywhere():
    src = (
        "coker(dual(coker(O(-1) -> O(0) + O(0))) -> "
        "dual(coker(O(-2) -> O(0) + O(0) + O(0))))"
    )
    table = cohom_of(parse(src), (-2, 2))
    assert table.columns == []
    assert all(table.column(t) == ((0, None),) * 4 for t in range(-2, 3))
    blanks = tuple(CohomTable(P3, line_chern(0)) for _ in range(3))
    assert les_chase(blanks) == blanks
