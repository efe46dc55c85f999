"""The sheafcalc benchmark.

    python3 bench/run.py --workload {cohom_batch,dist_grid,cli_cold} \
        --seed N --seconds S --trace {0,1}

Run it from the root of the repository.  It starts the workload's worker
(``bench/worker.py``) several times to time set-up, runs the workload in the
last one, checks every output, prints a summary, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a run
with spans around every engine module with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cohom_batch", "dist_grid", "cli_cold")
SETUPS = 15  # worker launches per run; setup_s is their median
WORKER_TIMEOUT = 170


class WorkerError(Exception):
    pass


def launch(workload, env):
    """Start a worker; return (process, seconds until it reported ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not start (exit {proc.returncode})")
    return proc, seconds


def run_worker(workload, params, env):
    """Launch the worker SETUPS times, each followed by a bare interpreter;
    return the median ratio of the two start times in nominal seconds, the
    number of launches and the last worker's results."""
    ratios = []
    proc = None
    try:
        for _ in range(SETUPS if not params["trace"] else 1):
            if proc is not None:
                proc.communicate("exit\n", timeout=WORKER_TIMEOUT)
            proc, seconds = launch(workload, env)
            ratios.append(seconds / speed.start_sample(env))
        out, _ = proc.communicate(json.dumps(params) + "\n", timeout=WORKER_TIMEOUT)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker failed (exit {proc.returncode})")
    setup_s = speed.NOMINAL_START_S * statistics.median(ratios)
    return setup_s, len(ratios), json.loads(out.strip().splitlines()[-1])


def end_to_end(setup_s, launches, raw):
    lat = [1e3 * s for s in raw["latencies"]]
    return {
        "setup_s": (setup_s, "s", launches),
        "cells_per_s": (statistics.median(raw["rates"]), "1/s", len(lat)),
        "latency_p50_ms": (statistics.median(lat), "ms", len(lat)),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms",
                           len(lat)),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB", 1),
    }


def per_layer(raw):
    layer = raw["layer"]
    n = layer["requests"]
    stats = layer["stats"]
    request_s = layer["request_s"]

    def stat(name, k):
        return stats.get(name, [0, 0.0, 0.0])[k]

    def calls(*names):
        return sum(stat(name, 0) for name in names) / n

    def self_ms(*names):
        return 1e3 * sum(stat(name, 2) for name in names) / n

    def layer_self(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix + "."))

    def layer_calls(prefix):
        return sum(v[0] for k, v in stats.items() if k.startswith(prefix + "."))

    tables = ["cohomology.line_table", "cohomology.omega1_table",
              "cohomology.tangent_table", "cohomology.dist_sequence_tables"]
    chi_calls = stat("chow.chi_at_twist", 0)
    twists = stat("cohomology.chase_twist", 0)
    traced_s, untraced_s = layer["overhead"]
    sharp = layer["sharpness"]
    m = {
        "cli.import_ms": (layer["probes"]["cli.import_ms"], "ms"),
        "cli.overhead_ms": (layer["probes"]["cli.overhead_ms"], "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/req"),
        "cli.render.self_ms": (self_ms("cli.render"), "ms/req"),
        "cli.render.bytes": (layer["render_bytes"] / n, "B/req"),
        "cli.self_ms": (1e3 * layer_self("cli") / n, "ms/req"),
        "sheafdsl.parse.calls": (calls("sheafdsl.parse"), "1/req"),
        "sheafdsl.parse.self_ms": (self_ms("sheafdsl.parse"), "ms/req"),
        "sheafdsl.chern_of.calls": (calls("sheafdsl.chern_of"), "1/req"),
        "sheafdsl.chern_of.self_ms": (self_ms("sheafdsl.chern_of"), "ms/req"),
        "sheafdsl.cohom_of.calls": (calls("sheafdsl.cohom_of"), "1/req"),
        "sheafdsl.cohom_of.self_ms": (self_ms("sheafdsl.cohom_of"), "ms/req"),
        "sheafdsl.nodes": (layer["subtrees"] / n, "1/req"),
        "sheafdsl.repeat_share": (
            layer["repeats"] / layer["subtrees"] if layer["subtrees"] else 0.0, "share"),
        "sheafdsl.self_ms": (1e3 * layer_self("sheafdsl") / n, "ms/req"),
        "cohomology.les_chase.calls": (calls("cohomology.les_chase"), "1/req"),
        "cohomology.les_chase.twists": (twists / n, "1/req"),
        # the chaser's own time, its single-twist steps included
        "cohomology.les_chase.self_ms": (
            self_ms("cohomology.les_chase", "cohomology.chase_twist"), "ms/req"),
        "cohomology.les_chase.us_per_twist": (
            1e6 * stat("cohomology.les_chase", 1) / twists if twists else 0.0, "us"),
        "cohomology.tables.calls": (calls(*tables), "1/req"),
        "cohomology.tables.self_ms": (self_ms(*tables), "ms/req"),
        "cohomology.generic_dist_cohom.calls": (calls("cohomology.generic_dist_cohom"), "1/req"),
        "cohomology.generic_dist_cohom.chased_share": (
            layer["chased_cells"] / layer["grid_cells"] if layer["grid_cells"] else 0.0,
            "share"),
        "cohomology.bott_h.calls": (calls("cohomology.bott_h"), "1/req"),
        "cohomology.known_entries": (sharp["known"], "count"),
        "cohomology.bounded_entries": (sharp["bounded"], "count"),
        "cohomology.unknown_entries": (sharp["unknown"], "count"),
        "cohomology.self_ms": (1e3 * layer_self("cohomology") / n, "ms/req"),
        "chow.chi_at_twist.calls": (chi_calls / n, "1/req"),
        "chow.chi_at_twist.self_ms": (self_ms("chow.chi_at_twist"), "ms/req"),
        "chow.chi_at_twist.us_per_call": (
            1e6 * stat("chow.chi_at_twist", 1) / chi_calls if chi_calls else 0.0, "us"),
    }
    for name in ("twist_chern", "ses_third", "sum_chern"):
        m[f"chow.{name}.calls"] = (calls(f"chow.{name}"), "1/req")
        m[f"chow.{name}.self_ms"] = (self_ms(f"chow.{name}"), "ms/req")
    m["chow.self_ms"] = (1e3 * layer_self("chow") / n, "ms/req")
    m["chow.share"] = (layer_self("chow") / request_s, "share")
    for name in ("dist", "modulispec"):
        m[f"{name}.calls"] = (layer_calls(name) / n, "1/req")
        m[f"{name}.self_ms"] = (1e3 * layer_self(name) / n, "ms/req")
    covered = sum(layer_self(x) for x in
                  ("cli", "sheafdsl", "cohomology", "chow", "dist", "modulispec"))
    m["trace.covered_share"] = (covered / request_s, "share")
    m["trace.overhead_share"] = ((traced_s - untraced_s) / traced_s, "share")
    for name, value in layer["probes"].items():
        if name.startswith("probe."):
            m[name] = (value, name.rsplit("_", 1)[1])
    return {name: (value * layer["speed"] if unit in ("ms", "ms/req", "us") else value, unit)
            for name, (value, unit) in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sheafcalc", "cli.py")):
        print("run.py: no src/sheafcalc under the current directory; run it from "
              "the root of the repository", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    params = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workdir": workdir}
    try:
        setup_s, launches, raw = run_worker(args.workload, params, env)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted, failed = raw["attempted"], raw["failed"]
    for problem in raw["problems"]:
        print(f"check failed: {problem}")
    print(f"{args.workload}: seed {args.seed}, {attempted} requests, {failed} failed, "
          f"error_rate {failed / attempted:.4g}")
    if len(raw["latencies"]) < 2:
        metrics = {}  # too little succeeded to be measured; the run is not correct
    elif args.trace:
        metrics = per_layer(raw)
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
    else:
        e2e = end_to_end(setup_s, launches, raw)
        for name, (value, unit, count) in e2e.items():
            print(f"  {name:16s} {value:12.6g} {unit:4s} (n={count})")
        print(f"  raw latency p50 {1e3 * statistics.median(raw['raw_latencies']):.4g} ms "
              f"(at the machine's speed of the moment, not scaled)")
        if args.workload == "cli_cold" and raw["bare"]:
            print(f"  bare python p50 {1e3 * statistics.median(raw['bare']):.4g} ms "
                  f"(n={len(raw['bare'])})")
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
