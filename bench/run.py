"""frieze-lab benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics: it executes whole request
cycles until S seconds have passed, checks each output right after its
request, outside its latency, and prints a report followed, on the last
line, by one JSON object.  With --trace 1 it replays requests with spans
around every package function, counts hot scalar operations in a separate
pass, runs the layer probes, and prints the per-layer metrics instead.  See
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy

import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 15


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    init = ROOT / "src" / "frieze_lab" / "__init__.py"
    if not init.is_file():
        fail(f"no package source at {init.relative_to(ROOT)}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("FRIEZE_LAB_NODES", None)  # every stage at its default resolution
    import frieze_lab

    if Path(frieze_lab.__file__).resolve() != init.resolve():
        fail(f"imported frieze_lab from {frieze_lab.__file__}, not from this checkout")
    return frieze_lab


def make_workload(name, fl):
    if name == "cli":
        return workloads.Cli(fl, str(ROOT))
    return {"exact-charts": workloads.ExactCharts, "continuum-study": workloads.ContinuumStudy}[name](fl)


def request_cycles(wl, seed):
    """Request cycles drawn from the seed; cycle k is the same in every run.

    Cycles are made one at a time and dropped once they have run, so that
    memory does not grow with the number of requests a run completes.
    """
    rng = random.Random(seed)
    for k in itertools.count():
        yield wl.cycle(rng, k)


def setup(name, seed):
    """Import, generation of the first inputs and warm-up: what a run pays once."""
    fl = import_package()
    wl = make_workload(name, fl)
    cycles = request_cycles(wl, seed)
    first = next(cycles)
    wl.warmup(random.Random(seed + 1))
    return fl, wl, itertools.chain([first], cycles)


def calibration_kernel(floats, array):
    """Fixed work owned by the benchmark, mixed like the workloads: float math
    through Python calls, Fractions, and passes over a list, a dict and an
    array large enough to leave the caches."""
    def f(x):
        return math.sin(x) * math.cos(2.0 * x) + math.sqrt(1.0 + x * x)

    acc = 0.0
    for i in range(3000):
        acc += f(i * 1e-3)
    q = Fraction(0)
    for i in range(1, 150):
        q += Fraction(i, i + 1) * Fraction(1, i)
    for x in floats[::8]:
        acc += x
    acc += float((numpy.sin(array) * array).sum())
    return acc, q


class SpeedProbe:
    """Samples the calibration kernel through a run to track machine speed.

    The machine is shared, and its speed moves by tens of percent within
    minutes, uniformly across everything it runs.  A latency is reported at
    reference speed: scaled by REFERENCE_S over the median kernel time of
    the samples taken nearest to the request.
    """

    REFERENCE_S = 7.0e-3
    EVERY_S = 0.1
    WINDOW = 2  # samples on each side of a request

    def __init__(self):
        self.samples = []  # (time, kernel seconds)
        self._last = -math.inf
        self._floats = [float(i) for i in range(200_000)]
        self._array = numpy.arange(200_000, dtype=float)

    def sample(self):
        t0 = perf_counter()
        calibration_kernel(self._floats, self._array)
        self._last = perf_counter()
        self.samples.append((t0, self._last - t0))

    def maybe_sample(self):
        if perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self, t):
        i = bisect.bisect_left(self.samples, (t,))
        near = [d for _, d in self.samples[max(0, i - self.WINDOW): i + self.WINDOW]]
        return self.REFERENCE_S / statistics.median(near)


def timed_loop(cycles, seconds, min_cycles, execute, check, probe, setups=None):
    """Whole cycles until `seconds` have passed and `min_cycles` are done.

    Each output is checked right after its request, outside its latency,
    and then dropped.  `setups`, when given, runs its set-up processes
    between requests.  Returns (kind, failure reason or None, latency, start
    time) per request, and the number of cycles run.
    """
    done = []
    start = perf_counter()
    k = 0
    for cycle in cycles:
        if k >= min_cycles and perf_counter() - start >= seconds:
            break
        for req in cycle:
            if setups is not None:
                setups.maybe_run(perf_counter() - start)
            probe.maybe_sample()
            t0 = perf_counter()
            try:
                out = execute(req)
            except Exception as exc:  # a failed request is recorded, not fatal
                out = exc
            latency = perf_counter() - t0
            done.append((req.kind, failure(check, req, out), latency, t0))
        k += 1
    return done, k


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n, fixed):
    """The workload's fixed tail percentile, lowered if fewer than ten samples lie beyond it."""
    pct = fixed
    while pct > 50.0 and n * (100.0 - pct) / 100.0 < 10:
        pct -= 5.0
    return pct


def failure(check, req, out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return check(req, out)


def failures_of(done):
    return [(kind, reason) for kind, reason, _, _ in done if reason]


class SetupTimer:
    """Fresh processes that only set up, timed from process start.

    They run spread through the timed loop, one every `seconds` /
    SETUP_REPEATS, so that each is taken to reference speed by the same
    kernel samples as the requests around it; `finish` runs any left over.
    """

    def __init__(self, name, seed, seconds):
        self.argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"]
        self.every = seconds / SETUP_REPEATS
        self.times = []  # (wall seconds, start time)

    def run(self):
        t0 = perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True)
        self.times.append((perf_counter() - t0, t0))
        if proc.returncode != 0:
            fail(f"setup child failed: {proc.stderr.strip()}")

    def maybe_run(self, elapsed):
        if len(self.times) < SETUP_REPEATS and elapsed >= self.every * (len(self.times) + 0.5):
            self.run()

    def finish(self, probe):
        while len(self.times) < SETUP_REPEATS:
            probe.sample()
            self.run()
        probe.sample()


INFORMATIONAL = (
    "continuous.liouville_residual_max",
    "kirillov.line_gap_max",
    "hill.monodromy_dev_max",
    "limit.order_dev_max",
)


def reference_panel(fl, informational):
    """Accuracy on fixed inputs, so that it can be gated run against run.

    The values are deterministic: a truncation error that moves means the
    numerics changed.  `informational` adds the roundoff-level residuals.
    """
    wl = workloads.ContinuumStudy(fl)
    params = {"s": 0.4, "c": 0.5, "xi": "bump2", "eta": "bump4"}
    curv = wl.execute(workloads.Request("curvature", {**params, "grid": 128}))
    study = wl.execute(workloads.Request("study", params))
    out = {
        "curvature_dev_max": curv["max"],
        "limit_rel_err": study.final_relative_error(),
    }
    if informational:
        hill = wl.execute(workloads.Request("hill", params))
        liou = wl.execute(workloads.Request("liouville", {**params, "grid": 128}))
        kir = wl.execute(workloads.Request("kirillov", params))
        out.update(zip(INFORMATIONAL, (
            liou["max"],
            abs(kir["line1"] - kir["line2"]),
            float(abs(hill["mono"] + [[1.0, 0.0], [0.0, 1.0]]).max()),
            abs(study.observed_orders[-1] - 2.0),
        )))
    return out


def source_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(load_start):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "frieze_lab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": source_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "cpu_pinning": "not controlled",
        "cpu_frequency": "not controlled",
    }


def emit(report, result):
    """Report lines, then the result object alone on the last line."""
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))


def write_out(name, payload):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload))


# ---------------------------------------------------------------------------


def run_untraced(args, load_start):
    fl, wl, stream = setup(args.workload, args.seed)
    problems = [f"self-test: {p}" for p in inputs.self_test(fl)]

    probe = SpeedProbe()
    setups = SetupTimer(args.workload, args.seed, args.seconds)
    done, cycles = timed_loop(stream, args.seconds, wl.min_cycles, wl.execute, wl.check, probe, setups)
    setups.finish(probe)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.max_rss_kb
    contract = workloads.run_defect_probes(wl) if args.workload == "cli" else []
    wl.close()

    failures = failures_of(done)
    raw = sorted(t for _, _, t, _ in done)
    lat = sorted(t * probe.scale(t0) for _, _, t, t0 in done)
    by_kind = {}
    for kind, _, t, t0 in done:
        by_kind.setdefault(kind, []).append(t * probe.scale(t0))
    tail = tail_percentile(len(lat), wl.tail_pct)
    panel = reference_panel(fl, informational=False)

    metrics = {
        "setup_s": (statistics.median(t * probe.scale(t0) for t, t0 in setups.times), "s"),
        "throughput_rps": (len(done) / sum(lat), "req/s"),
        "latency_p50_ms": (1e3 * percentile(lat, 50.0), "ms"),
        "latency_tail_ms": (1e3 * percentile(lat, tail), "ms"),
        "success_ratio": ((len(done) - len(failures)) / len(done), "1"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "curvature_dev_max": (panel["curvature_dev_max"], "1"),
        "limit_rel_err": (panel["limit_rel_err"], "1"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": cycles,
        "samples": len(lat),
        "tail_percentile": tail,
        "kind_p50_ms": {k: round(1e3 * statistics.median(v), 3) for k, v in sorted(by_kind.items())},
        "metrics": {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()},
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups.times),
            "throughput_rps": len(done) / sum(raw),
            "latency_p50_ms": 1e3 * percentile(raw, 50.0),
            "latency_tail_ms": 1e3 * percentile(raw, tail),
            "kernel_ms": 1e3 * statistics.median(d for _, d in probe.samples),
        },
        "failed_requests": [f"{args.workload} {kind}: {reason}" for kind, reason in failures],
        "problems": problems,
    }
    if args.workload == "cli":
        report["contract_probe_failures"] = [f"cli {name}: {reason}" for name, reason in contract]
    report["environment"] = environment(load_start)
    result = {
        "correct": not failures and not problems,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = {
        "requests": [(kind, t, t0) for kind, _, t, t0 in done],
        "setups": setups.times,
        "kernel": probe.samples,
    }
    write_out(f"result-{args.workload}-seed{args.seed}.json", {"report": report, "result": result, "samples": samples})
    emit(report, result)


def run_traced(args, load_start):
    fl, wl, stream = setup(args.workload, args.seed)
    wl.close()
    if wl.in_process:
        execute = wl.execute
    else:
        from frieze_lab import cli as cli_module

        def execute(req):
            # look main up at call time, so that the traced replay uses its wrapper
            return wl.replay(lambda argv: cli_module.main(argv), req)

    # untraced, then the same requests with spans; both passes are taken at
    # reference speed, so that the ratio is the tracing overhead alone
    probe = SpeedProbe()
    done, cycles = timed_loop(stream, args.seconds / 3, 1, execute, wl.check, probe)
    replay = itertools.chain.from_iterable(itertools.islice(request_cycles(wl, args.seed), cycles))
    spans = tracing.Spans()
    traced = []
    restore = tracing.instrument(fl, spans)
    try:
        for i, req in enumerate(replay):
            probe.maybe_sample()
            t0 = perf_counter()
            try:
                spans.run_request(i, req.kind, lambda: execute(req))
            except Exception:
                pass  # recorded as a raised span
            traced.append((perf_counter() - t0, t0))
    finally:
        restore()
    overhead = sum(t * probe.scale(t0) for t, t0 in traced) / sum(t * probe.scale(t0) for _, _, t, t0 in done)
    layers, func_busy, request_s = tracing.summarize(spans.records)
    failures = failures_of(done)

    counter = tracing.CallCounter(fl.curves.__file__, fl.jets.__file__)
    jet_ops = curve_calls = kappa_calls = kappa_points = kappa_distinct = hill_requests = 0
    first = next(request_cycles(wl, args.seed))
    for req in first:
        counter.reset()
        try:
            counter.run(lambda: execute(req))
        except Exception:
            pass
        jet_ops += counter.jet_ops()
        curve_calls += counter.curve_calls()
        if req.kind == "hill":
            calls, points, distinct = counter.kappa()
            hill_requests += 1
            kappa_calls += calls
            kappa_points += points
            kappa_distinct += distinct

    metrics = {}
    for layer in tracing.MODULES:
        st = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0})
        metrics[f"{layer}.calls"] = (st["calls"], "count")
        metrics[f"{layer}.busy_s"] = (st["busy_s"], "s")
        metrics[f"{layer}.self_s"] = (st["self_s"], "s")
        metrics[f"{layer}.failures"] = (st["failures"], "count")

    def busy(*names):
        return (sum(func_busy.get(n, 0.0) for n in names), "s")

    metrics.update({
        "frieze.check_busy_s": busy("frieze.FriezePattern.check"),
        "cluster.omega_rank_busy_s": busy("cluster.omega_rank"),
        "continuous.liouville_busy_s": busy("continuous.liouville_residual_field"),
        "continuous.curvature_busy_s": busy("continuous.curvature_conformal"),
        "kirillov.fields_busy_s": busy("kirillov.kirillov_form_fields_both"),
        "kirillov.curve_busy_s": busy("kirillov.kirillov_form_curve"),
        "limit.sample_busy_s": busy("limit.sample_polygon"),
        "limit.tangent_busy_s": busy("limit.lift_polygon_tangent", "limit.tangent_lift"),
        "limit.discrete_form_busy_s": busy("limit.discrete_form_value"),
        "limit.integral_busy_s": busy("limit.continuum_integral"),
        "jets.ops": (jet_ops, "count"),
        "curves.evaluator_calls": (curve_calls, "count"),
        "hill.kappa_calls": (kappa_calls / hill_requests if hill_requests else 0, "count"),
        "hill.kappa_distinct_ratio": (kappa_distinct / kappa_points if kappa_points else 0.0, "1"),
        "trace.request_s": (request_s, "s"),
        "trace.remainder_s": (request_s - sum(st["self_s"] for st in layers.values()), "s"),
        "trace.overhead_ratio": (overhead, "1"),
    })
    metrics.update(probes(fl, wl, args.seed))
    panel = reference_panel(fl, informational=True)
    for key in INFORMATIONAL:
        metrics[key] = (panel[key], "1")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_requests": len(done),
        "counted_requests": len(first),
        "failed_requests": [f"{args.workload} {kind}: {reason}" for kind, reason in failures],
        "environment": environment(load_start),
    }
    result = {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_out(f"spans-{args.workload}-seed{args.seed}.json", spans.dump())
    emit(report, result)


def probes(fl, wl, seed):
    """Workload-independent layer measurements, run in every traced run."""
    rng = random.Random(seed + 2)
    cli = wl if isinstance(wl, workloads.Cli) else workloads.Cli(fl, str(ROOT))

    def child_median(args, k=5):
        times = []
        for _ in range(k):
            t0 = perf_counter()
            cli.spawn(args, None)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def jacobian_time(w, repeats):
        src = fl.DiagonalCoords(base=w + 2, values=inputs.positive_diagonal(rng, w))
        path = fl.ZigzagPath(start=0, moves=tuple(("SE", "SW")[k % 2] for k in range(w - 1)), width=w)
        best = math.inf
        for _ in range(repeats):
            t0 = perf_counter()
            fl.chart_jacobian(src, path)
            best = min(best, perf_counter() - t0)
        return best

    jac = {w: jacobian_time(w, r) for w, r in ((16, 3), (24, 2), (32, 2))}
    xs = [math.log(w) for w in jac]
    ys = [math.log(t) for t in jac.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    charts = workloads.ExactCharts(fl)
    sweep = charts.sweep(rng, 5, integer=True)
    t0 = perf_counter()
    for req in sweep:
        charts.execute(req)
    per_path = (perf_counter() - t0) / len(sweep)

    try:
        children = {
            "cli.startup_s": (child_median(["-c", "import frieze_lab.cli"]), "s"),
            "cli.interp_s": (child_median(["-c", "pass"]), "s"),
            "cli.contract_violations": (len(workloads.run_defect_probes(cli)), "count"),
        }
    finally:
        cli.close()
    return {
        **children,
        "cluster.jacobian_w16_s": (jac[16], "s"),
        "cluster.jacobian_w32_s": (jac[32], "s"),
        "cluster.jacobian_growth_exp": (slope, "1"),
        "cluster.sweep_per_path_ms": (1e3 * per_path, "ms"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cli", "exact-charts", "continuum-study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    load_start = list(os.getloadavg())
    if args.setup_only:
        setup(args.workload, args.seed)[1].close()
        return
    if args.trace:
        run_traced(args, load_start)
    else:
        run_untraced(args, load_start)


if __name__ == "__main__":
    main()
