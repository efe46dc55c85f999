"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json

import checks
import pytest
import reference as ref
import worker
import workloads as w
from spans import Tracer

SEEDS = range(6)


def test_generators_are_deterministic_per_seed():
    for seed in SEEDS:
        for i in range(5):
            assert w.batch_request(seed, i) == w.batch_request(seed, i)
            assert w.grid_request(seed, i) == w.grid_request(seed, i)
            assert w.cli_request(seed, i) == w.cli_request(seed, i)
    assert w.batch_request(0, 0) != w.batch_request(1, 0)
    assert w.grid_request(0, 0) != w.grid_request(1, 0)


def _rank_rule_holds(e):
    """Every twisted or dualised subexpression has rank <= 3, rdual rank 2,
    and kernels and cokernels have rank >= 0."""
    for sub in w.nodes(e):
        kind = sub[0]
        if kind in ("twist", "dual") and w.rank(sub[1]) > 3:
            return False
        if kind == "rdual" and w.rank(sub[1]) != 2:
            return False
        if kind in ("coker", "ker") and ref.chern_of(sub)[0] < 0:
            return False
    return True


def test_generated_expressions_obey_the_rank_rule():
    count = 0
    for seed in SEEDS:
        for i in range(40):
            exprs, (lo, hi) = w.batch_request(seed, i)
            for e in exprs:
                assert _rank_rule_holds(e), w.text(e)
                w.check_expr(e, lo, hi)
                count += 1
            _, cohom = w.cli_request(seed, i)
            if cohom is not None:
                assert _rank_rule_holds(cohom[0])
                assert cohom[2] - cohom[1] + 1 <= w.CLI_TWIST_WIDTH
    assert count == 2 * 40 * len(SEEDS)


def test_rule_check_rejects_bad_expressions():
    rank4 = ("sum", w.TX, ("O", 0))
    with pytest.raises(ValueError):
        w.check_expr(("twist", rank4, 1), -5, 5)
    with pytest.raises(ValueError):
        w.check_expr(("rdual", w.TX), -5, 5)
    with pytest.raises(ValueError):  # O(-3) has sections at twist 5
        w.check_expr(("coker", ("O", -3), w.TX), -5, 5)
    with pytest.raises(ValueError):  # O(1) has top cohomology at twist -5
        w.check_expr(("ker", w.TX, ("O", 1)), -5, 5)
    w.check_expr(("coker", ("O", -6), w.TX), -5, 5)


def _batch_output(seed, i):
    exprs, (lo, hi) = w.batch_request(seed, i)
    results = []
    for e in exprs:
        code, out, err, _ = worker.call_cli(
            ["cohomology", "--sheaf", w.text(e), "--twists", f"{lo}..{hi}", "--format", "json"])
        assert code == 0, err
        results.append(json.loads(out))
    return exprs, (lo, hi), results


def test_checks_pass_on_engine_outputs():
    for seed in (0, 1):
        exprs, (lo, hi), results = _batch_output(seed, 0)
        for e, result in zip(exprs, results):
            assert checks.check_cohom(result, e, lo, hi, True) == []
    job = worker.DistGrid(3, None)
    req = job.request(0)
    assert job.check(req, job.execute(req)[1], True) == []


def _corrupt(result, mutate):
    """Apply mutate to the first row it accepts; the result must change."""
    for row in result["table"]:
        if mutate(row):
            return
    raise AssertionError("no row to corrupt")


def _flip_known(row):
    for i in range(4):
        if row[f"h{i}"]["status"] == "known":
            row[f"h{i}"]["value"] += 1
            return True
    return False


def _flip_bounded(row):
    for i in range(4):
        if row[f"h{i}"]["status"] == "bounded":
            row[f"h{i}"]["hi"] += 1
            return True
    return False


def _flip_chi(row):
    row["chi"] += 1
    return True


@pytest.mark.parametrize("mutate", [_flip_known, _flip_bounded, _flip_chi])
def test_corrupted_entry_is_a_failure(mutate):
    for seed in range(20):
        exprs, (lo, hi), results = _batch_output(seed, 0)
        for e, result in zip(exprs, results):
            try:
                _corrupt(result, mutate)
            except AssertionError:
                continue
            assert checks.check_cohom(result, e, lo, hi, True) != []
            return
    raise AssertionError("no output had an entry of that kind")


def test_corrupted_grid_cell_is_a_failure():
    job = worker.DistGrid(3, None)
    req = job.request(0)
    out = job.execute(req)[1]
    lo = req["p"][0]
    out["cells"][lo][2] = type(out["cells"][lo][2])(0, None)  # chased h^2 widened
    assert job.check(req, out, True) != []


def test_run_counts_corrupted_outputs_as_failed(tmp_path, monkeypatch):
    execute = worker.CohomBatch.execute

    def corrupted(self, req):
        seconds, (code, out, err) = execute(self, req)
        doc = json.loads(out)
        doc["results"][0]["table"][0]["chi"] += 1
        return seconds, (code, json.dumps(doc), err)

    monkeypatch.setattr(worker.CohomBatch, "execute", corrupted)
    result = worker.run("cohom_batch", {"seed": 0, "seconds": 0.3, "trace": 0,
                                         "workdir": str(tmp_path)})
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t

    # request [0, 10] holds a [1, 6] and c [7, 9]; a holds b [2, 3] and b [4, 5]
    at(0), tracer.enter("request")
    at(1), tracer.enter("a")
    at(2), tracer.enter("b")
    at(3), tracer.exit()
    at(4), tracer.enter("b")
    at(5), tracer.exit()
    at(6), tracer.exit()
    at(7), tracer.enter("c")
    at(9), tracer.exit()
    at(10), tracer.exit()
    assert tracer.stats == {
        "b": [2, 2.0, 2.0],
        "a": [1, 5.0, 3.0],
        "c": [1, 2.0, 2.0],
        "request": [1, 10.0, 3.0],
    }


def test_installed_spans_wrap_cross_module_calls_and_uninstall():
    from sheafcalc import chow, cohomology, sheafdsl

    original = cohomology.chi_at_twist
    tracer = Tracer()
    tracer.install()
    try:
        assert cohomology.chi_at_twist is not original
        assert cohomology.chi_at_twist is chow.chi_at_twist
        sheafdsl.cohom_of(sheafdsl.parse("coker(O(-9) -> TX)"), (0, 1))
    finally:
        tracer.uninstall()
    assert cohomology.chi_at_twist is original
    assert tracer.stats["sheafdsl.cohom_of"][0] == 1
    assert tracer.stats["cohomology.les_chase"][0] == 1
    assert tracer.stats["chow.chi_at_twist"][0] >= 6
