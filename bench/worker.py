"""One workload's worker process: ``python3 bench/worker.py <workload>``.

It imports the engine (``PYTHONPATH=src``), warms up on a fixed input and
prints ``ready``.  Then it reads one line from stdin: ``exit``, or the run's
parameters as JSON.  It runs the workload closed-loop with one client,
checks every output, and prints one JSON line with the raw results.
"""

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import sheafcalc.cli as cli
from sheafcalc import chow, cohomology, dist, modulispec, sheafdsl

# The benchmark's own modules are imported where they are used, after the
# worker has reported ready, so that set-up time is the engine's.

# Every REFERENCE_EVERY-th request is also checked entry by entry against the
# seed engine's intervals, until that checking has taken REFERENCE_SHARE of
# the run's length; the cheaper checks run on every request.
REFERENCE_EVERY = 4
REFERENCE_SHARE = 0.3
SHARPNESS_REQUESTS = 20  # sharpness is counted on this fixed prefix
OVERHEAD_REQUESTS = 10  # requests timed both with and without spans
SPEED_EVERY_S = 0.05  # request time between two samples of the machine's speed
PROBE_EXPR = "ker(twist(coker(O(-30) -> TX), 1) -> O(40))"


def call_cli(argv):
    """Run the CLI in-process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed request, not a crash
            traceback.print_exc()
            code = "traceback"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def warm_up(workload):
    if workload == "dist_grid":
        cohomology.generic_dist_cohom(3, -5)
        modulispec.moduli_report(3)
    else:
        call_cli(["cohomology", "--sheaf", "coker(O(-9) -> TX)", "--twists", "0..1",
                  "--format", "json"])


# ---------------------------------------------------------------------------
# Workloads.  Each is a class with request(i) (generation, untimed),
# execute(req) -> (seconds, output) and check(req, output, full) -> problems.


class CohomBatch:
    def __init__(self, seed, workdir):
        import workloads

        self.w = workloads
        self.seed = seed
        self.path = os.path.join(workdir, "batch.txt")

    def request(self, i):
        exprs, (lo, hi) = self.w.batch_request(self.seed, i)
        with open(self.path, "w") as fh:
            fh.write("".join(self.w.text(e) + "\n" for e in exprs))
        argv = ["cohomology", "--batch", self.path, "--twists", f"{lo}..{hi}",
                "--format", "json"]
        return {"argv": argv, "exprs": exprs, "range": (lo, hi),
                "cells": len(exprs) * (hi - lo + 1)}

    def execute(self, req):
        code, out, err, seconds = call_cli(req["argv"])
        return seconds, (code, out, err)

    def check(self, req, output, full):
        import checks

        code, out, err = output
        if code != 0 or err:
            return [f"exit {code}: {err.strip()[-300:]}"]
        results = json.loads(out)["results"]
        if len(results) != len(req["exprs"]):
            return [f"{len(results)} results for {len(req['exprs'])} expressions"]
        problems = []
        for result, e in zip(results, req["exprs"]):
            problems += checks.check_cohom(result, e, *req["range"], full)
        return problems

    def sharpness(self, req, output):
        import checks

        return checks.sharpness(json.loads(output[1])["results"])


class DistGrid:
    def __init__(self, seed, workdir):
        import workloads

        self.w = workloads
        self.seed = seed

    def request(self, i):
        req = self.w.grid_request(self.seed, i)
        lo, hi = req["p"]
        req["cells"] = hi - lo + 1
        return req

    def execute(self, req):
        d = req["d"]
        lo, hi = req["p"]
        start = time.perf_counter()
        cells = {p: cohomology.generic_dist_cohom(d, p) for p in range(lo, hi + 1)}
        profile = dist.DistributionProfile(chow.P3, 2 - d, generic=True)
        out = {
            "dist_chern": dist.dist_chern(profile),
            "singular_length": dist.singular_length(profile),
            "stability": dist.stability_classify(profile),
            "conn": dist.conn_components(
                dist.DistributionProfile(chow.P3, 2 - d, generic=False),
                req["c3"] + req["h2_extra"], req["c3"]),
            "moduli": modulispec.moduli_report(d),
            "resolution": modulispec.global_gen_resolution(d),
            "curve": modulispec.curve_family(d),
        }
        custom = chow.threefold_from_dict(req["threefold"])
        spectra = {}
        for name, X, r in (("p3", chow.P3, req["r"]), ("quintic", chow.QUINTIC, req["r"]),
                           ("custom", custom, req["r_custom"])):
            point = modulispec.spectrum_point(X, r)
            spectra[name] = (point, modulispec.normalize(point),
                             modulispec.pic_act(point, req["t"]))
        out["spectrum"] = spectra
        out["stability_custom"] = dist.stability_classify(
            dist.DistributionProfile(custom, custom.cX - req["r_custom"], generic=True))
        seconds = time.perf_counter() - start
        out["cells"] = cells
        return seconds, out

    def check(self, req, out, full):
        import checks

        def chern(c):
            return (c.rank, c.c1, c.n2, c.n3)

        m, g, c = out["moduli"], out["resolution"], out["curve"]
        plain = {
            "cells": {p: tuple((e.lo, e.hi) for e in (col[0], col[1], col[2], col[3]))
                      for p, col in out["cells"].items()},
            "dist_chern": chern(out["dist_chern"]),
            "singular_length": out["singular_length"],
            "stability": (out["stability"].status, out["stability"].reason),
            "conn": (out["conn"].kind, out["conn"].lo, out["conn"].hi),
            "moduli": (m.dim_component, m.ext1, m.ext2, m.smooth_point, m.rational,
                       m.family_dim, chern(m.chern)),
            "resolution": (g.middle, g.kernel, g.h0_twisted, chern(g.chern_twisted)),
            "curve": (c.degree_C, c.genus, c.points, c.family_dim),
            "spectrum": {k: tuple(chern(pt.triple) for pt in v)
                         for k, v in out["spectrum"].items()},
            "stability_custom": (out["stability_custom"].status,
                                 out["stability_custom"].reason),
        }
        return checks.check_grid(req, plain, full)

    def sharpness(self, req, output):
        counts = {"known": 0, "bounded": 0, "unknown": 0}
        for col in output["cells"].values():
            for e in col.values():
                counts[e.status] += 1
        return counts


class CliCold:
    """One fresh ``python -m sheafcalc.cli`` process per request, each
    followed by the start of a bare interpreter, which is both the baseline
    and the measure of the machine's speed for the request.  Traced runs
    execute the same argv in-process only."""

    def __init__(self, seed, workdir):
        import speed
        import workloads

        self.w = workloads
        self.seed = seed
        self.bare = [speed.start_sample(None)]  # bare starts: one first, then one per request

    def request(self, i):
        argv, cohom = self.w.cli_request(self.seed, i)
        req = {"argv": argv, "cohom": cohom, "exprs": [], "cells": 1}
        if cohom is not None:
            req["exprs"], req["range"] = [cohom[0]], cohom[1:]
        return req

    def execute(self, req):
        import speed

        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "sheafcalc.cli"] + req["argv"],
                               capture_output=True)
        seconds = time.perf_counter() - start
        self.bare.append(speed.start_sample(None))
        return seconds, (child.returncode, child.stdout, child.stderr)

    def execute_traced(self, req):
        code, out, err, seconds = call_cli(req["argv"])
        return seconds, (code, out.encode(), err.encode())

    def _json(self, req):
        """The cohomology request's table as JSON, from in-process cli.main."""
        e, lo, hi = req["cohom"]
        code, out, err, _ = call_cli(["cohomology", "--sheaf", self.w.text(e), "--twists",
                                      f"{lo}..{hi}", "--format", "json"])
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()[-300:]}")
        return json.loads(out)

    def check(self, req, output, full):
        """Byte-identity with in-process cli.main; cohomology tables are also
        checked in full, as their width is small."""
        import checks

        code, out, err = output
        if code != 0 or err:
            return [f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"]
        in_code, in_out, in_err, _ = call_cli(req["argv"])
        if (in_code, in_out.encode(), in_err.encode()) != (code, out, err):
            return [f"{req['argv']}: process output differs from in-process cli.main"]
        if req["cohom"] is None:
            return []
        return checks.check_cohom(self._json(req), req["cohom"][0], *req["range"], True)

    def sharpness(self, req, output):
        import checks

        return checks.sharpness([self._json(req)] if req["cohom"] else [])


WORKLOADS = {"cohom_batch": CohomBatch, "dist_grid": DistGrid, "cli_cold": CliCold}


# ---------------------------------------------------------------------------
# The run.


def _spanned(tracer, methods, execute, req):
    tracer.install(methods=methods)
    tracer.enter("request")
    try:
        return execute(req)
    finally:
        tracer.exit()
        tracer.uninstall()


def _account(layer, seen, job, req, output, dt):
    """Per-layer counts of one traced request that spans cannot see."""
    layer["requests"] += 1
    layer["request_s"] += dt
    for e in req.get("exprs", ()):
        for sub in job.w.nodes(e):
            layer["subtrees"] += 1
            layer["repeats"] += (sub, req["range"]) in seen
            seen.add((sub, req["range"]))
    if isinstance(job, DistGrid):
        lo, hi = req["p"]
        layer["grid_cells"] += hi - lo + 1
        layer["chased_cells"] += max(0, min(hi + 1, req["d"] - 4) - lo)
    else:
        layer["render_bytes"] += len(output[1])


def run(workload, params):
    import speed

    seed, seconds, traced = params["seed"], params["seconds"], params["trace"]
    job = WORKLOADS[workload](seed, params["workdir"])
    execute = job.execute
    if traced:
        from spans import Tracer

        tracer = Tracer()
        methods = [(cli.OutputDocument, "render", "cli.render")]
        if hasattr(cohomology, "_chase_single_twist"):
            methods.append((cohomology, "_chase_single_twist", "cohomology.chase_twist"))
        execute = getattr(job, "execute_traced", job.execute)
        layer = {"requests": 0, "request_s": 0.0, "render_bytes": 0,
                 "sharpness": {"known": 0, "bounded": 0, "unknown": 0},
                 "grid_cells": 0, "chased_cells": 0, "subtrees": 0, "repeats": 0}
        seen = set()  # (subtree, twist range) pairs met so far
        traced_time = untraced_time = 0.0
    # process starts are scaled by bare starts, all other times by the kernel
    by_bare_start = workload == "cli_cold" and not traced
    raw, cells, after, problems = [], [], [], []
    kernels = [speed.sample()]  # speed samples: at the start, then every SPEED_EVERY_S
    attempted = failed = 0
    busy = reference_time = sampled_at = 0.0
    i = 0
    while busy < seconds or (traced and i < SHARPNESS_REQUESTS):
        req = job.request(i)
        start = time.perf_counter()
        try:
            if not traced:
                dt, output = execute(req)
            elif i < OVERHEAD_REQUESTS:
                # alternate the order so that neither side always runs second
                if i % 2 == 0:
                    untraced_time += execute(req)[0]
                dt, output = _spanned(tracer, methods, execute, req)
                traced_time += dt
                if i % 2 == 1:
                    untraced_time += execute(req)[0]
            else:
                dt, output = _spanned(tracer, methods, execute, req)
        except Exception:  # an engine error or a traceback fails the request
            busy += time.perf_counter() - start
            attempted += 1
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            i += 1
            continue
        busy += dt
        raw.append(dt)
        cells.append(req["cells"])
        after.append(len(job.bare) - 1 if by_bare_start else len(kernels))
        full = i % REFERENCE_EVERY == 0 and reference_time < REFERENCE_SHARE * seconds
        start = time.perf_counter()
        try:
            found = job.check(req, output, full)
        except Exception:  # a malformed output fails its check
            found = [traceback.format_exc(limit=3)]
        if full:
            reference_time += time.perf_counter() - start
        attempted += 1
        if found:
            failed += 1
            problems += found[:3]
        if traced:
            _account(layer, seen, job, req, output, dt)
            if i < SHARPNESS_REQUESTS and not found:
                for k, v in job.sharpness(req, output).items():
                    layer["sharpness"][k] += v
        if busy - sampled_at >= SPEED_EVERY_S:
            kernels.append(speed.sample())
            sampled_at = busy
        i += 1
    kernels.append(speed.sample())
    if by_bare_start:
        latencies = speed.scaled(raw, job.bare, after, speed.NOMINAL_START_S)
    else:
        latencies = speed.scaled(raw, kernels, after, speed.NOMINAL_S)
    result = {"attempted": attempted, "failed": failed, "problems": problems[:20],
              "latencies": latencies, "rates": [c / t for c, t in zip(cells, latencies)],
              "raw_latencies": raw}
    if workload == "cli_cold":
        # the largest child's peak: the sheafcalc processes outgrow bare python
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["bare"] = job.bare[1:]
    else:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        layer["stats"] = tracer.stats
        layer["overhead"] = (traced_time, untraced_time)
        layer["probes"] = probes(kernels)
        # per-layer times are scaled by the run's median speed sample
        layer["speed"] = speed.NOMINAL_S / statistics.median(kernels)
        result["layer"] = layer
    return result


# ---------------------------------------------------------------------------
# Probes on fixed inputs.


def _per_call(fn, number, repeat=5):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return sorted(times)[len(times) // 2]


def _child_seconds(code, repeat):
    times = []
    for _ in range(repeat):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             check=True, text=True).stdout
        times.append(float(out))
    return sorted(times)[len(times) // 2]


def probes(kernels):
    """Layer timings on fixed inputs; appends a speed sample after each."""
    import speed

    timed_import = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    result = {
        "probe.import_ms": 1e3 * _child_seconds(timed_import.format("sheafcalc"), 5),
        "cli.import_ms": 1e3 * _child_seconds(timed_import.format("sheafcalc.cli"), 5),
    }
    kernels.append(speed.sample())
    cli_times, bare_times = [], []
    for _ in range(9):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "sheafcalc.cli", "presets", "list"],
                       capture_output=True, check=True)
        cli_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare_times.append(time.perf_counter() - start)
    result["cli.overhead_ms"] = 1e3 * (sorted(cli_times)[4] - sorted(bare_times)[4])
    kernels.append(speed.sample())

    tree = sheafdsl.parse(PROBE_EXPR)
    chern = chow.ChernData(2, -1, 11, 51)
    tables = cohomology.dist_sequence_tables(10, -20, -20)
    wide = sheafdsl.parse("coker(O(-2) -> Omega1(1))")
    result["probe.parse_us"] = 1e6 * _per_call(lambda: sheafdsl.parse(PROBE_EXPR), 200)
    result["probe.chern_of_us"] = 1e6 * _per_call(lambda: sheafdsl.chern_of(tree), 200)
    result["probe.chi_at_twist_us"] = 1e6 * _per_call(
        lambda: chow.chi_at_twist(chern, 7, chow.P3), 500)
    result["probe.les_chase_us"] = 1e6 * _per_call(lambda: cohomology.les_chase(tables), 100)
    result["probe.cohom_of_ms"] = 1e3 * _per_call(
        lambda: sheafdsl.cohom_of(wide, (-100, 100)), 1, 3)
    kernels.append(speed.sample())

    def grid():
        for d in range(30):
            for p in range(-40, 40):
                cohomology.generic_dist_cohom(d, p)

    result["probe.dist_grid_ms"] = 1e3 * _per_call(grid, 1, 3)
    kernels.append(speed.sample())
    return result


def main():
    workload = sys.argv[1]
    proto = sys.stdout
    warm_up(workload)
    print("ready", file=proto, flush=True)
    line = sys.stdin.readline().strip()
    if line in ("", "exit"):
        return 0
    result = run(workload, json.loads(line))
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
