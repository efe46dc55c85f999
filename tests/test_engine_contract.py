"""What the benchmark under bench/ reads from the engine.

The benchmark's worker looks names up at run time, some behind hasattr, and
its span metrics are named after the public functions that its tracer wraps.
A name that goes missing drops a metric or fails a run without any other
test failing, so the names and shapes it relies on are pinned here.
"""

import types
from importlib import import_module
from pathlib import Path

import pytest

from sheafcalc import chow, cli, cohomology
from sheafcalc.chow import P3, line_chern, sum_chern
from sheafcalc.cohomology import (
    CohomTable, bott_h, dist_sequence_tables, les_chase, line_table,
)
from sheafcalc.sheafdsl import cohom_of, parse

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# the spans bench/run.py turns into metrics, each <home module>.<function>
SPANS = [
    "cli.main",
    "sheafdsl.parse",
    "sheafdsl.chern_of",
    "sheafdsl.cohom_of",
    "cohomology.les_chase",
    "cohomology.line_table",
    "cohomology.omega1_table",
    "cohomology.tangent_table",
    "cohomology.dist_sequence_tables",
    "cohomology.generic_dist_cohom",
    "cohomology.bott_h",
    "chow.chi_at_twist",
    "chow.twist_chern",
    "chow.ses_third",
    "chow.sum_chern",
]


def test_the_traced_methods_exist():
    # the worker times the single-twist chase only if it finds it
    assert isinstance(cohomology._chase_single_twist, types.FunctionType)
    assert isinstance(cli.OutputDocument.__dict__["render"], types.FunctionType)


@pytest.mark.parametrize("span", SPANS)
def test_each_span_names_a_public_function_of_its_home_module(span):
    # the tracer wraps public functions and names each span after the module
    # that defines the function
    home, name = span.split(".")
    fn = getattr(import_module(f"sheafcalc.{home}"), name)
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == f"sheafcalc.{home}" and fn.__name__ == name
    # run.py names the span whole, or the function in a loop over its module
    text = RUN_PY.read_text(encoding="utf-8")
    assert f'"{span}"' in text or f'"{name}"' in text


def test_les_chase_calls_the_single_twist_chase_once_per_twist(monkeypatch):
    # the worker wraps the module's _chase_single_twist as the
    # cohomology.chase_twist span, from which les_chase.twists and
    # us_per_twist are read, so les_chase looks it up at every twist
    calls = []
    chase = cohomology._chase_single_twist

    def counting(xs, chis):
        calls.append(len(xs))
        return chase(xs, chis)

    monkeypatch.setattr(cohomology, "_chase_single_twist", counting)
    cohom_of(parse("ker(TX(1) -> O(40))"), (-25, 25))
    assert calls == [12] * 51
    # runs -3..0 and -1..2, and a quotient without columns: twists -3..2
    calls.clear()
    o, o1 = line_chern(0), line_chern(1)
    middle = CohomTable(P3, sum_chern([o, o1], P3), {
        (i, t): (n, n)
        for t in range(-1, 3)
        for i in range(4)
        for n in [bott_h(0, i, t) + bott_h(0, i, t + 1)]
    })
    tables = (line_table(0, -3, 0), middle, CohomTable(P3, o1))
    les_chase(tables)
    assert calls == [12] * 6


def test_cohomology_calls_chow_chi_at_twist_by_its_own_name():
    # so that the chi span also covers the calls from generic_dist_cohom
    assert cohomology.chi_at_twist is chow.chi_at_twist


def test_the_probed_chase_returns_three_tables():
    chased = les_chase(dist_sequence_tables(10, -20, -20))
    assert isinstance(chased, tuple) and len(chased) == 3
    assert all(isinstance(table, CohomTable) for table in chased)


@pytest.mark.parametrize("d,p", [(0, 0), (3, -5), (10, 6)])
def test_generic_dist_cohom_gives_four_entries_with_a_status(d, p):
    entries = cohomology.generic_dist_cohom(d, p)
    assert isinstance(entries, dict) and sorted(entries) == [0, 1, 2, 3]
    for entry in entries.values():
        assert isinstance(entry.lo, int)
        assert entry.hi is None or isinstance(entry.hi, int)
        assert entry.status in {"known", "bounded", "unknown"}
