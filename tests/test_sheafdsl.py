import pytest
from chow_reference import chern_to_ch
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafcalc import sheafdsl
from sheafcalc.chow import (
    P3,
    QUINTIC,
    ChernData,
    chi_at_twist,
    ses_third,
)
from sheafcalc.cohomology import (
    CohomTable,
    DimEntry,
    generic_dist_cohom,
    les_chase,
    line_table,
    tangent_table,
)
from sheafcalc.errors import (
    DomainError,
    DslSyntaxError,
    Inconsistent,
    NotComputable,
    RankError,
    UnknownIdentifier,
)
from sheafcalc.cli import _pair_text, main
from sheafcalc.sheafdsl import (
    _MAX_DEPTH,
    AtomNamed,
    AtomO,
    AtomOmega1,
    AtomTX,
    Coker,
    Dual,
    Ker,
    NamedDecl,
    Sum,
    Twist,
    chern_of,
    cohom_of,
    parse,
    parse_batch,
    pretty,
)


def test_parse_examples():
    assert parse("coker(O(-2) -> Omega1(1))") == Coker(
        AtomO(-2), Twist(AtomOmega1(), 1)
    )
    assert parse("O(3)") == AtomO(3)
    assert parse("ker(TX -> O(4))") == Ker(AtomTX(), AtomO(4))


def test_parse_shorthand_twists():
    assert parse("TX(3)") == parse("twist(TX, 3)")
    assert parse("Omega1(-2)") == parse("twist(Omega1, -2)")


def test_parse_is_whitespace_insensitive():
    assert parse("coker(O(-2)->Omega1(1))") == parse(
        " coker( O( -2 ) ->  Omega1( 1 ) ) "
    )


def test_parse_sum_associates_left():
    assert parse("O(1) + O(2) + O(3)") == Sum(
        Sum(AtomO(1), AtomO(2)), AtomO(3)
    )


def test_parse_errors_carry_offsets():
    with pytest.raises(DslSyntaxError) as err:
        parse("coker(O(-2) -> ")
    assert err.value.offset == 15
    with pytest.raises(DslSyntaxError):
        parse("")
    with pytest.raises(DslSyntaxError) as err:
        parse("O(1) %")
    assert err.value.offset == 5
    with pytest.raises(DslSyntaxError):
        parse("twist(TX 3)")


def test_negative_rank_is_an_evaluation_error():
    e = parse("coker(Omega1(1) -> O(-2))")
    with pytest.raises(RankError):
        chern_of(e, P3)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        chern_of(parse("twist(mystery, 3)"), P3)


def _deep(shape, depth):
    """An expression tree exactly `depth` levels deep in one of four shapes."""
    if shape == "sum":
        return " + ".join(["O(1)"] * depth)
    if shape == "coker":
        src = "O(0)"  # ranks alternate 1, 2, 1, ... down the chain
        for _ in range(depth - 1):
            src = f"coker({src} -> TX)"
        return src
    close = ", 1)" if shape == "twist" else ")"
    return f"{shape}(" * (depth - 1) + "O(1)" + close * (depth - 1)


SHAPES = ["twist", "dual", "coker", "sum"]


@pytest.mark.parametrize("shape", SHAPES)
def test_depth_limit_is_reachable(shape, capsys):
    src = _deep(shape, _MAX_DEPTH)
    e = parse(src)
    assert pretty(e) == src
    assert cohom_of(e, (0, 0)).chern == chern_of(e, P3)
    assert main(["cohomology", "--sheaf", src, "--twists", "0..0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("shape", SHAPES)
def test_depth_limit_is_a_syntax_error(shape, capsys):
    src = _deep(shape, _MAX_DEPTH + 1)
    # the offending term is the deepest leaf, or the last term of the sum
    offset = src.rindex("O(1)") if shape == "sum" else src.index("O(")
    with pytest.raises(DslSyntaxError) as err:
        parse(src)
    assert err.value.offset == offset
    assert main(["cohomology", "--sheaf", src, "--twists", "0..0"]) == 3
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text == (
        f"SyntaxError: expression deeper than {_MAX_DEPTH} levels "
        f"(at byte {offset})\n"
    )


def test_depth_counts_every_level_on_the_way_down():
    # a sum under twists and a shorthand twist each add to the depth
    def twisted_sum(terms):
        k = _MAX_DEPTH - 10
        return "twist(" * k + " + ".join(["O(1)"] * terms) + ", 1)" * k

    parse(twisted_sum(10))
    with pytest.raises(DslSyntaxError):
        parse(twisted_sum(11))
    with pytest.raises(DslSyntaxError):
        parse(_deep("dual", _MAX_DEPTH).replace("O(1)", "TX(1)"))
    parse(_deep("dual", _MAX_DEPTH).replace("O(1)", "TX"))
    # deep nesting far past the limit fails fast, without a RecursionError
    for shape in SHAPES:
        with pytest.raises(DslSyntaxError):
            parse(_deep(shape, 3000))


def _chain(leaf, wrapper, times):
    for _ in range(times):
        leaf = wrapper.format(leaf)
    return leaf


# (leaf, its depth, wrapper, the levels one wrapper adds)
CHAINS = [
    ("O(-500)", 1, "coker({} -> TX)", 1),
    ("O(0)", 1, "coker({} -> TX)", 1),
    ("O(0)", 1, "ker({} + TX -> O(4))", 2),
    ("O(2) + O(0)", 2, "rdual(coker(O(-1) -> {} + O(0)))", 4),
    ("TX", 1, "dual({})", 1),
    ("TX", 1, "twist({}, 1)", 1),
]

CHERN_HELPERS = [
    "twist_chern", "dual_chern", "sum_chern", "reflexive_dual_rank2", "ses_third",
]


@pytest.mark.parametrize("leaf,leaf_depth,wrapper,levels", CHAINS)
def test_cohom_of_evaluates_chern_data_once_per_node(
    leaf, leaf_depth, wrapper, levels, monkeypatch
):
    # every coker, ker and dual in the walk needs its subtree's Chern data;
    # computing it again at each level made cohom_of quadratic in depth
    calls = []

    def counted(helper):
        def call(*args):
            calls.append(args)
            return helper(*args)

        return call

    for name in CHERN_HELPERS:
        monkeypatch.setattr(sheafdsl, name, counted(getattr(sheafdsl, name)))
    times = (_MAX_DEPTH - 1 - leaf_depth) // levels
    depth = leaf_depth + times * levels
    assert depth > _MAX_DEPTH - 1 - levels
    e = parse(_chain(leaf, wrapper, times))
    if leaf == "O(-500)":
        # no exact sequence realizes this chain past a few levels
        with pytest.raises(Inconsistent):
            cohom_of(e, (0, 0))
    else:
        cohom_of(e, (0, 0))
    assert 0 < len(calls) <= depth


def test_deep_coker_chain_matches_the_sequence_chased_step_by_step():
    # at depth 75 the walk gives what chasing each sequence in turn gives
    lo, hi = -3, 3
    expected = line_table(0, lo, hi)
    for _ in range(74):
        tx = tangent_table(lo, hi)
        quotient = CohomTable(P3, ses_third(expected.chern, tx.chern, None, P3), {})
        expected = les_chase((expected, tx, quotient))[2]
    table = cohom_of(parse(_chain("O(0)", "coker({} -> TX)", 74)), (lo, hi))
    assert table.chern == expected.chern
    assert (table.lo, table.columns) == (expected.lo, expected.columns)


@pytest.mark.parametrize(
    "leaf,leaf_depth,error,message",
    [
        ("O(-500)", 1, Inconsistent, "no exact sequence realizes these dimensions"),
        ("coker(O(0) + O(0) -> O(1))", 3, RankError, "coker would have rank -1 < 0"),
        ("coker(O(0) -> mystery)", 2, UnknownIdentifier,
         "no declaration for sheaf 'mystery'"),
    ],
)
def test_deep_coker_chain_errors(leaf, leaf_depth, error, message):
    # the Chern data of a coker is evaluated before its children are walked,
    # so a rank error or an unknown name deep down wins over a chase failure
    src = _chain(leaf, "coker({} -> TX)", 75 - leaf_depth)
    with pytest.raises(error) as err:
        cohom_of(parse(src), (0, 0))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "src,expected",
    [
        ("coker(O(1) -> O(0)) + mystery",
         "Inconsistent: no exact sequence realizes these dimensions"),
        ("mystery + coker(O(1) -> O(0))",
         "UnknownIdentifier: no declaration for sheaf 'mystery'"),
        ("rdual(coker(O(1) -> O(0)))",
         "Inconsistent: no exact sequence realizes these dimensions"),
        ("coker(O(0) + O(0) -> coker(O(1) -> O(0)))",
         "RankError: coker would have rank -2 < 0"),
        ("dual(coker(O(1) -> O(0)))", "? ? ? ?"),
    ],
)
def test_walk_order_decides_which_error_wins(src, expected):
    # a sum's Chern data is read after both terms are walked, an rdual's after
    # its base is walked, and a coker's before; coker(O(1) -> O(0)) is
    # Chern-valid but no exact sequence realizes it, and a dual of a shape
    # that is not locally free is not chased at all
    try:
        table = cohom_of(parse(src), (0, 0))
    except (Inconsistent, RankError, UnknownIdentifier) as exc:
        outcome = f"{exc.name}: {exc}"
    else:
        outcome = " ".join(_pair_text(x) for x in table.column(0))
    assert outcome == expected


names = st.sampled_from(["E", "F_1", "G"])
leaves = st.one_of(
    st.integers(-9, 9).map(AtomO),
    st.just(AtomTX()),
    st.just(AtomOmega1()),
    names.map(AtomNamed),
)


def _extend(children):
    single = st.one_of(
        st.tuples(children, st.integers(-9, 9)).map(lambda p: Twist(*p)),
        children.map(lambda e: Dual(e, False)),
        children.map(lambda e: Dual(e, True)),
        st.tuples(children, children).map(lambda p: Coker(*p)),
        st.tuples(children, children).map(lambda p: Ker(*p)),
    )
    # sums fold left, matching what the parser can produce
    return st.one_of(
        single,
        st.lists(single, min_size=2, max_size=3).map(
            lambda es: Sum(Sum(es[0], es[1]), es[2]) if len(es) == 3
            else Sum(es[0], es[1])
        ),
    )


expressions = st.recursive(leaves, _extend, max_leaves=12)


@given(expressions)
@settings(max_examples=150)
def test_pretty_print_round_trip(e):
    assert parse(pretty(e)) == e


# the DSL's words and symbols, white space, and characters no token starts with
# (a lone surrogate among them), joined so that valid expressions come up too
fragments = st.sampled_from([
    "O", "TX", "Omega1", "twist", "dual", "rdual", "coker", "ker", "E", "(", ")",
    ",", "+", "->", "-", "3", "-2", " ", "\t", "\n", "#", "%", "é", "٣", "𝟙",
    "\x00", "\u2003", "\ud800",
])
any_text = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.lists(fragments, max_size=24).map("".join),
)


@given(any_text)
@settings(max_examples=300)
def test_any_text_parses_or_is_refused_at_an_offset(src):
    try:
        e = parse(src)
    except DslSyntaxError as err:
        assert 0 <= err.offset <= len(src)
    else:
        assert parse(pretty(e)) == e


def test_chern_of_examples():
    assert chern_of(parse("coker(O(-2) -> Omega1(1))"), P3) == ChernData(2, 1, 3, 5)
    assert chern_of(parse("rdual(coker(O(-2) -> Omega1(1)))"), P3) == ChernData(
        2, -1, 3, 5
    )
    assert chern_of(parse("TX + O(0)"), P3) == ChernData(4, 4, 6, 4)


def test_chern_of_euler_sequence():
    tx = chern_of(parse("coker(O(0) -> O(1) + O(1) + O(1) + O(1))"), P3)
    assert tx == ChernData(3, 4, 6, 4)


def test_chern_of_on_other_threefolds():
    assert chern_of(parse("TX"), QUINTIC) == ChernData(3, 0, 50, -200)
    assert chern_of(parse("Omega1"), QUINTIC) == ChernData(3, 0, 50, 200)


def test_twist_of_wide_sum_is_the_sum_of_twists():
    four = " + ".join(["O(1)"] * 4)
    for src, same in [
        (f"twist({four}, 2)", " + ".join(["O(3)"] * 4)),
        (f"dual({four})", " + ".join(["O(-1)"] * 4)),
    ]:
        assert chern_of(parse(src), P3) == chern_of(parse(same), P3)
        table = cohom_of(parse(src), (-5, 5))
        other = cohom_of(parse(same), (-5, 5))
        assert (table.lo, table.columns) == (other.lo, other.columns)
        assert all(lo == hi for column in table.columns for lo, hi in column)
    # declared sheaves of any rank evaluate
    env = {"E": NamedDecl("E", ChernData(5, 5, 10, 10))}
    assert chern_of(parse("twist(E, -1)"), P3, env) == ChernData(5, 0, 0, 0)


decls = st.builds(
    ChernData,
    rank=st.integers(1, 3),
    c1=st.integers(-20, 20),
    n2=st.integers(-200, 200),
    n3=st.integers(-200, 200),
)


@given(decls, decls)
def test_whitney_additivity_of_sums(ca, cb):
    env = {"A": NamedDecl("A", ca), "B": NamedDecl("B", cb)}
    total = chern_of(parse("A + B"), P3, env)
    assert chern_to_ch(total, P3) == chern_to_ch(ca, P3) + chern_to_ch(cb, P3)


@given(decls)
def test_rdual_is_involution_on_rank2(c):
    env = {"E": NamedDecl("E", ChernData(2, c.c1, c.n2, c.n3))}
    assert chern_of(parse("rdual(rdual(E))"), P3, env) == env["E"].chern


# ---------------------------------------------------------------------------
# Cohomology evaluation.


def test_cohom_of_matches_generic_grid():
    table = cohom_of(parse("coker(O(-2) -> Omega1(1))"), (-1, 3))
    for p in range(-1, 4):
        expected = generic_dist_cohom(1, p)
        for i in range(4):
            assert table.column(p)[i] == (expected[i].lo, expected[i].hi)


def test_cohom_of_canonical_bundle():
    table = cohom_of(parse("O(-4)"), (0, 0))
    assert table.column(0)[3] == (1, 1)
    assert table.column(0)[0] == (0, 0)


def test_cohom_of_sums_add():
    table = cohom_of(parse("O(1) + O(-4)"), (0, 1))
    assert table.column(0)[0] == (4, 4)
    assert table.column(0)[3] == (1, 1)
    assert table.column(1)[3] == (0, 0)


def test_cohom_of_dual_tangent_is_cotangent():
    dual = cohom_of(parse("dual(TX)"), (-3, 3))
    direct = cohom_of(parse("Omega1"), (-3, 3))
    for t in range(-3, 4):
        assert dual.column(t) == direct.column(t)


def test_cohom_of_rdual_shifts_by_c1():
    expr = "coker(O(-2) -> Omega1(1))"  # c1 = 1
    dual = cohom_of(parse(f"rdual({expr})"), (-1, 2))
    plain = cohom_of(parse(expr), (-2, 1))
    for t in range(-1, 3):
        assert dual.column(t) == plain.column(t - 1)


def test_cohom_of_chi_consistency():
    for src in ["TX(-2)", "coker(O(-4) -> Omega1(0))", "ker(TX -> O(4))"]:
        table = cohom_of(parse(src), (-3, 3))
        for t in range(-3, 4):
            col = table.column(t)
            if all(lo == hi for lo, hi in col):
                alt = sum((-1) ** i * col[i][0] for i in range(4))
                assert alt == chi_at_twist(table.chern, t, P3)


def test_locally_free_shadow_of_ideal_quotient():
    # replacing the twisted ideal quotient by the full line bundle drops the
    # singular-scheme contribution: chi shifts by the length 20 at every
    # twist, h^2 at twist 0 loses the point contribution, and the entries
    # with an undetermined section count stay boxed
    shadow = cohom_of(parse("ker(TX -> O(4))"), (0, 0))
    assert shadow.chern == ChernData(2, 0, 6, -20)
    true_chern = ChernData(2, 0, 6, 20)
    for t in (-4, 0, 2):
        assert chi_at_twist(shadow.chern, t, P3) == chi_at_twist(true_chern, t, P3) - 20
    generic = generic_dist_cohom(2, 0)
    assert generic[2] == DimEntry(1, 1)
    assert shadow.column(0)[2] == (0, 0)
    assert shadow.column(0)[0] == (0, 15)
    assert shadow.column(0)[1] == (20, 35)


def test_cohom_of_off_p3_is_gated():
    with pytest.raises(NotComputable):
        cohom_of(parse("O(1)"), (0, 1), QUINTIC)


def test_named_hints_enter_the_chase():
    # a declared sheaf with known h^0 pins down the quotient's sections
    env = {
        "E": NamedDecl("E", ChernData(2, 0, 6, 20), {(i, 0): v for i, v in
                                                     [(0, 0), (1, 1), (2, 1), (3, 0)]})
    }
    table = cohom_of(parse("E"), (0, 0), P3, env)
    assert table.column(0)[1] == (1, 1)
    assert table.column(0)[2] == (1, 1)


@pytest.mark.parametrize("hint", [-1, 2.5, True, "3"])
def test_a_hint_that_is_no_dimension_is_refused(hint):
    env = {"E": NamedDecl("E", ChernData(2, 0, 6, 20), {(0, 0): hint})}
    with pytest.raises(DomainError):
        cohom_of(parse("E"), (0, 0), P3, env)


def test_a_none_hint_is_unknown():
    env = {"E": NamedDecl("E", ChernData(2, 0, 6, 20), {(0, 0): None, (1, 0): 0})}
    table = cohom_of(parse("E"), (0, 0), P3, env)
    assert table.column(0)[0] == (0, None)
    assert table.column(0)[1] == (0, 0)


def test_parse_batch_skips_comments():
    text = """
    # a comment line
    O(1)            # trailing comment
    coker(O(-2) -> Omega1(1))

    """
    exprs = parse_batch(text)
    assert exprs == [AtomO(1), Coker(AtomO(-2), Twist(AtomOmega1(), 1))]
