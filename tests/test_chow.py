import json
import re
from fractions import Fraction

import pytest
from chow_reference import ChowClass, ch_to_chern, chern_to_ch, todd_class
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafcalc.chow import (
    P3,
    QUADRIC,
    QUINTIC,
    ChernData,
    ThreefoldData,
    chi_at_twist,
    chi_series,
    dual_chern,
    line_chern,
    load_threefold,
    reflexive_dual_rank2,
    ses_third,
    sum_chern,
    threefold_from_dict,
    threefold_to_dict,
    twist_chern,
    _chern,
)
from sheafcalc.errors import (
    ArityError,
    DomainError,
    EngineError,
    NonIntegralChernClass,
    NonIntegralChi,
    UnsupportedRank,
)

TX = ChernData(3, 4, 6, 4)

chern_data = st.builds(
    ChernData,
    rank=st.integers(0, 3),
    c1=st.integers(-(10**6), 10**6),
    n2=st.integers(-(10**6), 10**6),
    n3=st.integers(-(10**6), 10**6),
)
threefolds = st.sampled_from([P3, QUINTIC, QUADRIC])
random_threefolds = st.builds(
    ThreefoldData,
    name=st.sampled_from(["x", "weird one"]),
    h3=st.integers(1, 60),
    cX=st.integers(-30, 30),
    c2TX_H=st.integers(-500, 500),
    c3TX=st.integers(-500, 500),
)
wide_chern_data = st.builds(
    ChernData,
    rank=st.integers(0, 8),
    c1=st.integers(-(10**4), 10**4),
    n2=st.integers(-(10**6), 10**6),
    n3=st.integers(-(10**6), 10**6),
)

# sums of line bundles: Chern data guaranteed to come from an actual sheaf,
# so Euler characteristics are defined on every preset
line_sums = st.lists(st.integers(-8, 8), min_size=1, max_size=3).map(
    lambda ts: [line_chern(t) for t in ts]
)


def _sheaf_like(parts, X):
    return sum_chern(parts, X)


def test_ch_of_trivial_bundle():
    assert chern_to_ch(line_chern(0), P3) == ChowClass.of(1, 0, 0, 0)


def test_ch_of_line_bundle_is_exp():
    for t in range(-5, 6):
        assert chern_to_ch(line_chern(t), P3) == ChowClass.exp_divisor(t)


def test_ch_of_tangent_top_piece():
    assert chern_to_ch(TX, P3).a3 == Fraction(2, 3)


def test_euler_sequence_recovers_tangent_bundle():
    four_lines = sum_chern([line_chern(1)] * 4, P3)
    assert ses_third(line_chern(0), four_lines, None, P3) == TX


def test_ch_round_trip_example():
    c = ChernData(2, 1, 3, 5)
    assert ch_to_chern(chern_to_ch(c, P3), P3) == c


def test_fractional_rank_rejected():
    with pytest.raises(NonIntegralChernClass):
        ch_to_chern(ChowClass.of(Fraction(3, 2)), P3)


@given(chern_data, threefolds)
def test_ch_round_trip(c, X):
    assert ch_to_chern(chern_to_ch(c, X), X) == c


def test_hrr_line_bundles_match_binomials():
    # chi(O(t)) on P^3 is the cubic (t+1)(t+2)(t+3)/6 for every t
    for t in range(-20, 21):
        expected = (t + 1) * (t + 2) * (t + 3) // 6
        assert chi_at_twist(line_chern(t), 0, P3) == expected


def test_hrr_presets_trivial_bundle():
    assert chi_at_twist(line_chern(0), 0, P3) == 1
    assert chi_at_twist(line_chern(0), 0, QUINTIC) == 0
    assert chi_at_twist(line_chern(0), 0, QUADRIC) == 1


def test_hrr_tangent_bundle():
    assert chi_at_twist(TX, 0, P3) == 15


def test_hrr_quadric_hyperplane():
    assert chi_at_twist(line_chern(1), 0, QUADRIC) == 5


def test_twist_examples():
    assert twist_chern(ChernData(2, 1, 3, 5), -1, P3) == ChernData(2, -1, 3, 5)
    assert twist_chern(TX, -2, P3) == ChernData(3, -2, 2, 0)
    c = ChernData(2, 7, -3, 11)
    assert twist_chern(c, 0, P3) == c


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.integers(-20, 20), threefolds)
def test_twist_of_rank_4_is_the_sum_of_twisted_lines(ts, t, X):
    twisted = twist_chern(sum_chern([line_chern(s) for s in ts], X), t, X)
    assert twisted == sum_chern([line_chern(s + t) for s in ts], X)


@given(chern_data, st.integers(-20, 20), st.integers(-20, 20), threefolds)
def test_twist_group_law(c, a, b, X):
    assert twist_chern(twist_chern(c, a, X), b, X) == twist_chern(c, a + b, X)


@given(wide_chern_data, st.integers(-20, 20), threefolds)
def test_twist_matches_character_route(c, t, X):
    # closed formulas against multiplication by exp(tH) in the graded ring
    ch = chern_to_ch(c, X) * ChowClass.exp_divisor(t)
    assert ch_to_chern(ch, X) == twist_chern(c, t, X)


@given(st.integers(-50, 50), st.integers(-(10**6), 10**6),
       st.integers(-(10**6), 10**6), st.integers(-20, 20), threefolds)
def test_rank2_c3_twist_invariance(c1, n2, n3, t, X):
    c = ChernData(2, c1, n2, n3)
    assert twist_chern(c, t, X).n3 == c.n3


def test_dual_examples():
    assert dual_chern(ChernData(2, 1, 3, 5)) == ChernData(2, -1, 3, -5)
    assert dual_chern(line_chern(7)) == line_chern(-7)


@given(chern_data)
def test_dual_is_involution(c):
    assert dual_chern(dual_chern(c)) == c


def test_reflexive_dual_examples():
    assert reflexive_dual_rank2(ChernData(2, 1, 3, 5)) == ChernData(2, -1, 3, 5)
    assert reflexive_dual_rank2(ChernData(2, 0, 9, 4)) == ChernData(2, 0, 9, 4)
    assert reflexive_dual_rank2(ChernData(2, 2, 2, 0)) == ChernData(2, -2, 2, 0)


def test_reflexive_dual_rejects_other_ranks():
    with pytest.raises(UnsupportedRank):
        reflexive_dual_rank2(TX)


@given(st.integers(-30, 30), st.integers(-(10**4), 10**4),
       st.integers(-(10**4), 10**4), threefolds)
def test_reflexive_dual_is_the_minus_c1_twist(c1, n2, n3, X):
    c = ChernData(2, c1, n2, n3)
    assert reflexive_dual_rank2(c) == twist_chern(c, -c.c1, X)
    assert reflexive_dual_rank2(reflexive_dual_rank2(c)) == c


def test_ses_third_middle_from_ends():
    # direct sum with the zero sheaf is the degenerate sequence
    a = ChernData(2, 1, 3, 5)
    zero = ChernData(0, 0, 0, 0)
    assert ses_third(a, None, zero, P3) == a


def test_ses_third_quotient_of_cotangent():
    # O(-4) inside the cotangent bundle leaves the degree-2 tangent sheaf
    omega1 = dual_chern(TX)
    f = ses_third(line_chern(-4), omega1, None, P3)
    assert f == ChernData(2, 0, 6, 20)


def test_ses_third_arity():
    with pytest.raises(ArityError):
        ses_third(TX, None, None, P3)
    with pytest.raises(ArityError):
        ses_third(TX, TX, TX, P3)


@given(line_sums, line_sums, threefolds)
def test_hrr_additive_over_sequences(a_parts, c_parts, X):
    a, c = _sheaf_like(a_parts, X), _sheaf_like(c_parts, X)
    b = ses_third(a, None, c, X)
    assert chi_at_twist(b, 0, X) == chi_at_twist(a, 0, X) + chi_at_twist(c, 0, X)


@given(line_sums, st.integers(-15, 15), threefolds)
def test_chi_at_twist_matches_twist_chern(parts, t, X):
    c = _sheaf_like(parts, X)
    assert chi_at_twist(c, t, X) == chi_at_twist(twist_chern(c, t, X), 0, X)


# ---------------------------------------------------------------------------
# Presets and the JSON document interface.


def test_preset_invariants():
    assert P3.is_p3
    assert not QUINTIC.is_p3
    assert QUINTIC.h3 == 5 and QUINTIC.cX == 0
    assert QUADRIC.rhoX is None and QUADRIC.gammaX is None


def test_threefold_json_round_trip(tmp_path):
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps(threefold_to_dict(QUINTIC)))
    assert load_threefold(path) == QUINTIC


def test_threefold_document_validation():
    doc = threefold_to_dict(P3)
    with pytest.raises(DomainError):
        threefold_from_dict({**doc, "extra": 1})
    incomplete = dict(doc)
    del incomplete["rhoX"]
    with pytest.raises(DomainError):
        threefold_from_dict(incomplete)
    with pytest.raises(DomainError):
        threefold_from_dict({**doc, "h3": "one"})


def test_threefold_consistency_checks():
    with pytest.raises(DomainError):
        ThreefoldData("bad", 0, 4, 6, 4)
    with pytest.raises(DomainError):
        ThreefoldData("bad", 1, 4, 6, 4, rhoX=2, gammaX=1)
    with pytest.raises(DomainError):
        # stability forces cX < 3 rho
        ThreefoldData("bad", 1, 7, 6, 4, rhoX=2, tx_stable="stable")


# ---------------------------------------------------------------------------
# chi_at_twist is a closed integer formula; the product of graded classes it
# expands is kept here as the reference.


def _chi_by_characters(c, t, X):
    val = (
        chern_to_ch(c, X) * ChowClass.exp_divisor(t) * todd_class(X)
    ).top_degree(X.h3)
    if val.denominator != 1:
        raise NonIntegralChi(f"chi = {val} is not an integer on '{X.name}'")
    return int(val)


def _outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return exc.name, str(exc)


@given(st.data())
@settings(max_examples=500)
def test_chi_at_twist_matches_character_product(data):
    # ranks 0-8 on presets and random profiles: arbitrary Chern data is
    # mostly non-integral, sums of up to 8 line bundles are integral on the
    # presets
    X = data.draw(st.one_of(threefolds, random_threefolds))
    c = data.draw(
        st.one_of(
            wide_chern_data,
            st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(
                lambda ts: sum_chern([line_chern(t) for t in ts], X)
            ),
        )
    )
    t = data.draw(st.integers(-200, 200))
    assert _outcome(chi_at_twist, c, t, X) == _outcome(
        _chi_by_characters, c, t, X
    )


def test_non_integral_chi_message():
    # ch_3 of (0, 0, 0, 1) on P^3 is 1/2, so chi is 1/2
    with pytest.raises(NonIntegralChi) as info:
        chi_at_twist(ChernData(0, 0, 0, 1), 0, P3)
    assert str(info.value) == "chi = 1/2 is not an integer on 'p3'"


def _first_outcomes(step, n):
    # n calls of step, or up to and including the first that raises
    out = []
    for _ in range(n):
        out.append(_outcome(step))
        if isinstance(out[-1], tuple):
            break
    return out


@given(st.data())
@settings(max_examples=500)
def test_chi_series_steps_the_closed_form(data):
    # random Chern data often has a non-integral chi; the series must raise
    # the same message at the same twist, and not before.  On the presets
    # chi is integral at every twist or at none, so the random profiles are
    # where it first fails after lo
    X = data.draw(st.one_of(threefolds, random_threefolds))
    c = data.draw(st.one_of(chern_data, line_sums.map(lambda parts: sum_chern(parts, X))))
    lo = data.draw(st.one_of(st.integers(-60, 60), st.integers(-(10**12), 10**12)))
    n = data.draw(st.integers(0, 12))
    series, twists = chi_series(c, lo, X), iter(range(lo, lo + n))
    assert _first_outcomes(lambda: next(series), n) == _first_outcomes(
        lambda: chi_at_twist(c, next(twists), X), n
    )


# numerators of up to 4,001 digits, below the digit limit of int to str
wide_ints = st.one_of(st.integers(-5000, 5000), st.integers(-(10**4000), 10**4000))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_non_integral_messages_match_the_rational_route(data):
    # the engine writes each message from integers; the reference divides
    # exact fractions.  Characters of integer Chern data keep c2.H and deg c3
    # integral (test_integer_chern_data_stays_integral), so a negative rank is
    # _chern's one refusal
    X = data.draw(st.one_of(threefolds, random_threefolds))
    r, c1 = data.draw(st.integers(-8, -1)), data.draw(st.integers(-(10**4), 10**4))
    q2, N3 = data.draw(wide_ints), data.draw(wide_ints)
    ch = ChowClass(Fraction(r), Fraction(c1), Fraction(q2, 2 * X.h3), Fraction(N3, 6 * X.h3))
    assert _outcome(_chern, (r, c1, q2, N3), X.h3) == _outcome(ch_to_chern, ch, X)
    c = ChernData(data.draw(st.integers(0, 8)), c1, data.draw(wide_ints), data.draw(wide_ints))
    t = data.draw(st.integers(-200, 200))
    assert _outcome(chi_at_twist, c, t, X) == _outcome(_chi_by_characters, c, t, X)


# ---------------------------------------------------------------------------
# ses_third and sum_chern add integer characters; the rational route through
# ChowClass is kept here as the reference.


def _ses_third_by_characters(a, b, c, X):
    if b is None:
        ch = chern_to_ch(a, X) + chern_to_ch(c, X)
    elif a is None:
        ch = chern_to_ch(b, X) - chern_to_ch(c, X)
    else:
        ch = chern_to_ch(b, X) - chern_to_ch(a, X)
    return ch_to_chern(ch, X)


def _sum_by_characters(parts, X):
    ch = ChowClass.of(0)
    for p in parts:
        ch = ch + chern_to_ch(p, X)
    return ch_to_chern(ch, X)


@given(st.data())
@settings(max_examples=500)
def test_ses_third_and_sum_match_character_route(data):
    # arbitrary data: the missing term is often non-integral or of negative
    # rank, so the error name and message are compared as well
    X = data.draw(st.one_of(threefolds, random_threefolds))
    terms = data.draw(st.lists(wide_chern_data, min_size=3, max_size=3))
    terms[data.draw(st.integers(0, 2))] = None
    assert _outcome(ses_third, *terms, X) == _outcome(
        _ses_third_by_characters, *terms, X
    )
    parts = data.draw(st.lists(wide_chern_data, max_size=6))
    assert _outcome(sum_chern, parts, X) == _outcome(_sum_by_characters, parts, X)


# ranks 0-8, every entry up to 10^4 in size
small_chern_data = st.builds(
    ChernData,
    rank=st.integers(0, 8),
    c1=st.integers(-(10**4), 10**4),
    n2=st.integers(-(10**4), 10**4),
    n3=st.integers(-(10**4), 10**4),
)


@given(st.data())
@settings(max_examples=500)
def test_integer_chern_data_stays_integral(data):
    # c1^2.h3 - q2 = 2.c2.H stays even under sums, differences and twists of
    # characters, and the numerator of deg c3 divisible by 3, as x^3 = x
    # (mod 3): the rational route, which checks both fractions, agrees with
    # the engine and refuses only a negative rank
    X = data.draw(st.one_of(threefolds, random_threefolds))
    c, t = data.draw(small_chern_data), data.draw(st.integers(-(10**4), 10**4))
    terms = data.draw(st.lists(small_chern_data, min_size=3, max_size=3))
    terms[data.draw(st.integers(0, 2))] = None
    parts = data.draw(st.lists(small_chern_data, max_size=6))
    twisted = chern_to_ch(c, X) * ChowClass.exp_divisor(t)
    for engine, rational in [
        (_outcome(twist_chern, c, t, X), _outcome(ch_to_chern, twisted, X)),
        (_outcome(ses_third, *terms, X), _outcome(_ses_third_by_characters, *terms, X)),
        (_outcome(sum_chern, parts, X), _outcome(_sum_by_characters, parts, X)),
    ]:
        assert engine == rational
        assert isinstance(engine, ChernData) or (
            engine[0] == "NonIntegralChernClass"
            and re.fullmatch(r"rank = -[1-9]\d* is negative", engine[1])
        )
