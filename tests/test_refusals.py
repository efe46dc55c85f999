"""The refusals and verdicts that no other in-process test reaches, each with
its class and message: the typed error names and their messages are part of
what the library and the command line promise."""

import io
from contextlib import redirect_stderr

import pytest

from sheafcalc import chow, cohomology, dist, modulispec, sheafdsl
from sheafcalc.chow import P3, QUINTIC, TX_SEMISTABLE, ThreefoldData, line_chern
from sheafcalc.cli import main


def _threefold(**fields):
    # P^3's numbers under another name, with some fields changed
    return ThreefoldData(**{"name": "x", "h3": 1, "cX": 4, "c2TX_H": 6, "c3TX": 4, **fields})


def _tables_on_two_threefolds():
    return (
        cohomology.line_table(0, 0, 0),
        cohomology.CohomTable(QUINTIC, line_chern(0)),
        cohomology.line_table(0, 0, 0),
    )


def _cli_exit(*argv):
    # the exit code and the last line of stderr of one in-process run
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().splitlines()[-1]


CASES = {
    # chow
    "threefold with rhoX 0": (
        lambda: _threefold(rhoX=0),
        "DomainError", "rhoX must be >= 1, got 0",
    ),
    "semistable tangent bundle with cX > 3 rhoX": (
        lambda: _threefold(rhoX=1, tx_stable=TX_SEMISTABLE),
        "DomainError", "semistable tangent bundle needs cX <= 3*rhoX, got cX=4, rhoX=1",
    ),
    "threefold document that is a list": (
        lambda: chow.threefold_from_dict([]),
        "DomainError", "threefold document must be a JSON object",
    ),
    # cohomology
    "bott_h past the cotangent powers": (
        lambda: cohomology.bott_h(4, 0, 0),
        "DomainError", "(p, q) = (4, 0) out of range 0..3",
    ),
    "les_chase over two threefolds": (
        lambda: cohomology.les_chase(_tables_on_two_threefolds()),
        "DomainError", "the three tables must live on the same threefold",
    ),
    "dist_sequence_tables of a negative degree": (
        lambda: cohomology.dist_sequence_tables(-1, 0, 0),
        "DomainError", "degree must be >= 0, got -1",
    ),
    "generic_dist_cohom of a negative degree": (
        lambda: cohomology.generic_dist_cohom(-1, 0),
        "DomainError", "degree must be >= 0, got -1",
    ),
    # dist
    "semistable verdict from a semistable tangent bundle": (
        lambda: dist.stability_classify(
            dist.DistributionProfile(_threefold(cX=3, rhoX=1, tx_stable=TX_SEMISTABLE), 3)
        ),
        "returns", dist.StabilityVerdict("Semistable", "TXSemistable"),
    ),
    "subfoliation with an unknown sing1F": (
        lambda: dist.subfoliation_analyze(dist.DistributionProfile(P3, 0), 0, "nodes"),
        "DomainError", "sing1F must be one of ('empty', 'irred', 'other')",
    ),
    "components where h^1 of line bundles may not vanish": (
        lambda: dist.conn_components(
            dist.DistributionProfile(_threefold(h1_line_vanishing=False), 0), 0, 0
        ),
        "HypothesisError", "'x' is not flagged with h^1(O) = 0",
    ),
    "negative top of the width-one interval": (
        lambda: dist.conn_components(dist.DistributionProfile(P3, 0), 0, 5),
        "NegativeCount", "component count <= -4 < 0: inconsistent h^2 = 0, c3 = 5",
    ),
    # modulispec
    "ext2_dim of a negative degree": (
        lambda: modulispec.ext2_dim(-1),
        "DomainError", "degree must be >= 0, got -1",
    ),
    "global_gen_resolution of a negative degree": (
        lambda: modulispec.global_gen_resolution(-1),
        "DomainError", "degree must be >= 0, got -1",
    ),
    "pic_act at rank 1": (
        lambda: modulispec.pic_act(modulispec.SpectrumPoint(P3, 1, line_chern(1)), 1),
        "UnsupportedRank", "spectrum points have rank 2",
    ),
    "normalize_chern at rank 1": (
        lambda: modulispec.normalize_chern(line_chern(1), P3),
        "UnsupportedRank", "normalization is defined for rank 2",
    ),
    # sheafdsl
    "a twist that is no integer": (
        lambda: sheafdsl.parse("O(x)"),
        "DslSyntaxError", "expected an integer, found 'x' (at byte 2)",
    ),
    "a character no token starts with": (
        lambda: sheafdsl.parse("O(1) %"),
        "DslSyntaxError", "unexpected character '%' (at byte 5)",
    ),
    "a minus sign with no digits or arrow": (
        lambda: sheafdsl.parse("O(1) - O(2)"),
        "DslSyntaxError", "unexpected character '-' (at byte 5)",
    ),
    "a token after a whole expression": (
        lambda: sheafdsl.parse("O(1) )"),
        "DslSyntaxError", "trailing input ')' (at byte 5)",
    ),
    "an expression of white space only": (
        lambda: sheafdsl.parse(" \t\n"),
        "DslSyntaxError", "empty expression (at byte 0)",
    ),
    "input that ends before a term": (
        lambda: sheafdsl.parse("coker(O(-2) -> "),
        "DslSyntaxError", "expected a sheaf term, found '' (at byte 15)",
    ),
    "a twist with no comma": (
        lambda: sheafdsl.parse("twist(TX 3)"),
        "DslSyntaxError", "expected ',', found '3' (at byte 9)",
    ),
    "an empty twist range": (
        lambda: sheafdsl.cohom_of(sheafdsl.parse("O(1)"), (1, 0)),
        "DomainError", "empty twist range 1..0",
    ),
    "pretty of no expression": (
        lambda: sheafdsl.pretty(5),
        "DomainError", "not a sheaf expression: 5",
    ),
    "chern_of of no expression": (
        lambda: sheafdsl.chern_of(5),
        "DomainError", "not a sheaf expression: 5",
    ),
    "cohom_of of no expression": (
        lambda: sheafdsl.cohom_of(5, (0, 0)),
        "DomainError", "not a sheaf expression: 5",
    ),
    # record
    "a record given too many fields": (
        lambda: dist.StabilityVerdict("Stable", "RhoBound", "extra"),
        "TypeError", "StabilityVerdict() takes 2 fields",
    ),
    "a record given an unknown keyword": (
        lambda: dist.StabilityVerdict("Stable", mood="calm"),
        "TypeError", "StabilityVerdict() got a bad field 'mood'",
    ),
    "a record missing a field": (
        lambda: dist.StabilityVerdict("Stable"),
        "TypeError", "StabilityVerdict() is missing ['reason']",
    ),
    # cli
    "--twists with a colon": (
        lambda: _cli_exit("cohomology", "--sheaf", "O(1)", "--twists", "0:3"),
        "returns", (2, "sheafcalc: error: --twists must look like lo..hi, got '0:3'"),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_refusal_has_its_class_and_message(case):
    call, kind, expected = CASES[case]
    try:
        outcome = ("returns", call())
    except Exception as exc:
        outcome = (type(exc).__name__, str(exc))
    assert outcome == (kind, expected)
