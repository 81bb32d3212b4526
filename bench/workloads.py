"""The three benchmark workloads: request cycles, execution and output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has completed.  Requests come in cycles with fixed
shares of each kind and size; the seed draws the values inside each request,
never its kind or size, so a run's cost does not depend on the seed.  A run
executes whole cycles, which keeps the shares exact in every run.

Each output is checked right after its request, outside its latency.
``check`` returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import inputs

PRESETS = ("bump1", "bump2", "bump3", "bump4")
STUDY_NS = [100, 200, 400, 800, 1600, 3200, 6400]


@dataclass
class Request:
    kind: str
    args: dict = field(default_factory=dict)


class Workload:
    in_process = True

    def close(self):
        """Stop what the workload started; in-process workloads start nothing."""


def _draw_pair(rng):
    return rng.sample(PRESETS, 2)


def _curve_params(rng):
    return {"s": rng.uniform(-0.4, 0.4), "c": rng.uniform(0.25, 2.0)}


# ---------------------------------------------------------------------------
# exact-charts


class ExactCharts(Workload):
    """Tangent pairs pushed from a diagonal chart to zigzag charts, in process.

    A sweep takes one source at w = 5 or 6 to every one of its 2^(w-1) n
    zigzag charts, the pattern of the exhaustive tests; a wide request takes a
    source at w in {12, 16, 24, 32} to one random chart.  Per cycle: 128 + 288
    sweep requests, 8 at w = 12, 12 at w = 16, 2 at w = 24 and 1 at w = 32.
    """

    name = "exact-charts"
    min_cycles = 2
    tail_pct = 98.0

    def __init__(self, fl):
        self.fl = fl
        self._frieze = (None, None)  # (source key, frieze); a sweep shares one source

    def _source(self, rng, w, integer):
        n = w + 3
        base = rng.randrange(n)
        if integer:
            values = inputs.Oracle(inputs.random_quiddity(rng, w)).diagonal(base)
        else:
            values = inputs.positive_diagonal(rng, w)
        return self.fl.DiagonalCoords(base=base, values=values)

    def _request(self, rng, src, start, moves, shape):
        w = src.width
        path = self.fl.ZigzagPath(start=start, moves=moves, width=w)
        vectors = (inputs.small_vector(rng, w), inputs.small_vector(rng, w))
        return Request(shape, {"source": src, "path": path, "vectors": vectors})

    def sweep(self, rng, w, integer):
        src = self._source(rng, w, integer)
        return [
            self._request(rng, src, start, moves, f"sweep-w{w}")
            for start in range(w + 3)
            for moves in inputs.all_moves(w)
        ]

    def _wide(self, rng, w, sources, paths_each):
        out = []
        for integer in sources:
            src = self._source(rng, w, integer)
            for _ in range(paths_each):
                start = rng.randrange(w + 3)
                out.append(self._request(rng, src, start, inputs.random_moves(rng, w), f"wide-w{w}"))
        return out

    def cycle(self, rng, k):
        return [
            *self.sweep(rng, 5, integer=True),
            *self._wide(rng, 12, (True, False), 4),
            *self._wide(rng, 16, (True, False), 6),
            *self.sweep(rng, 6, integer=False),
            *self._wide(rng, 24, (True, False), 1),
            *self._wide(rng, 32, (k % 2 == 0,), 1),
        ]

    def warmup(self, rng):
        src = self._source(rng, 3, True)
        self.execute(self._request(rng, src, 0, (inputs.SE, inputs.SW), "warmup"))

    def execute(self, req):
        a = req.args
        return self.fl.cluster.pushforward_many(a["source"], a["path"], a["vectors"])

    def check(self, req, out):
        fl = self.fl
        src, path = req.args["source"], req.args["path"]
        xi, eta = req.args["vectors"]
        t_xi, t_eta = out
        if fl.omega_zigzag(t_xi.base, t_xi, t_eta) != fl.omega_diagonal(src, xi, eta):
            return "omega_zigzag at the target differs from omega_diagonal at the source"
        key = (src.base, src.values)
        if self._frieze[0] != key:
            self._frieze = (key, fl.diagonal_to_frieze(src.values, base=src.base))
        if fl.read_zigzag(self._frieze[1], path).values != t_xi.base.values:
            return "target chart values differ from read_zigzag of diagonal_to_frieze"
        return None


# ---------------------------------------------------------------------------
# continuum-study


class ContinuumStudy(Workload):
    """Float stages of the continuous side, in process, on the tan family.

    Per cycle: 2 boundary, 3 hill, 4 curvature (grid 104, 112, 112, 120),
    2 liouville (grid 128), 3 kirillov (4096 nodes) and 1 convergence study
    (n = 100..6400, doubling).
    """

    name = "continuum-study"
    min_cycles = 5
    tail_pct = 80.0

    ORDER = (
        ("boundary", None), ("hill", None), ("curvature", 104), ("liouville", 128),
        ("kirillov", None), ("hill", None), ("curvature", 112), ("boundary", None),
        ("kirillov", None), ("study", None), ("hill", None), ("curvature", 112),
        ("liouville", 128), ("kirillov", None), ("curvature", 120),
    )

    def __init__(self, fl):
        self.fl = fl
        from frieze_lab.cli import VARIATIONS

        self.variations = VARIATIONS

    def cycle(self, rng, k):
        out = []
        for kind, grid in self.ORDER:
            args = _curve_params(rng)
            if grid is not None:
                args["grid"] = grid
            if kind in ("kirillov", "study"):
                args["xi"], args["eta"] = _draw_pair(rng)
            out.append(Request(kind, args))
        return out

    def warmup(self, rng):
        for kind, grid in self.ORDER[:10]:
            args = {"s": 0.1, "c": 0.5, "grid": 32, "xi": "bump1", "eta": "bump2"}
            self.execute(Request(kind, args), small=True)

    def _variation(self, name):
        return self.fl.curves.trig_poly(math.pi, self.variations[name])

    def execute(self, req, small=False):
        fl, a = self.fl, req.args
        curve = fl.curves.curve_family("tan", s=a["s"], c=a["c"])
        curve.require_admissible()
        lift = fl.curves.lift_curve(curve)
        pot = fl.hill.HillPotential(kappa=lift.kappa, c=curve.c, period=curve.period, dkappa=curve.dkappa)
        if req.kind == "hill":
            _, mono = fl.hill.hill_solve(pot, steps=64 if small else None)
            return {"mono": mono, "nonosc": fl.hill.is_nonoscillating(pot, steps=64 if small else 4096)}
        frieze = fl.continuous.frieze_from_curve(lift)
        if req.kind == "liouville":
            vals, _ = fl.continuous.liouville_residual_field(frieze, grid=a["grid"])
            return {"max": float(vals.max())}
        if req.kind == "curvature":
            ks, _ = fl.continuous.curvature_conformal(frieze, grid=a["grid"])
            return {"max": float(abs(ks + 1.0).max())}
        if req.kind == "boundary":
            return fl.continuous.boundary_check(frieze, curve.period)
        xi, eta = self._variation(a["xi"]), self._variation(a["eta"])
        nodes = 64 if small else 4096
        if req.kind == "kirillov":
            X = fl.kirillov.field_from_variation(curve, xi)
            Y = fl.kirillov.field_from_variation(curve, eta)
            line1, line2 = fl.kirillov.kirillov_form_fields_both(pot, X, Y, nodes=nodes)
            return {"line1": line1, "line2": line2, "curve": fl.kirillov.kirillov_form_curve(curve, xi, eta, nodes=nodes)}
        if req.kind == "study":
            return fl.limit.convergence_study(curve, xi, eta, [8, 16] if small else STUDY_NS, nodes=nodes)
        raise ValueError(req.kind)

    def check(self, req, out):
        return check_continuum(req.kind, out)


# tolerances of the float checks; residuals at roundoff level are gated here,
# never by a relative bound
TOL = {
    "monodromy": 1e-6,  # is_antiperiodic's own tolerance
    "liouville": 1e-12,
    "curvature": 1e-4,  # finite-difference truncation is about 5e-5
    "boundary": 1e-10,
    "kirillov_gap": 1e-8,
    "ratio": 1e-8,
    "zero_form": 1e-12,
    "study_rel": 1e-2,  # the CLI's own pass rule
    "order": 0.1,  # final observed order at n = 6400 (0.013 at most seen)
    "order_cli": 0.25,  # at n = 800 (0.09 at most seen)
}


def kirillov_problem(line1, line2, curve):
    if abs(line1 - line2) > TOL["kirillov_gap"] * max(1.0, abs(line1), abs(line2)):
        return f"field lines disagree: {line1!r} vs {line2!r}"
    if max(abs(line1), abs(curve)) <= TOL["zero_form"]:
        return None  # the pair's form vanishes; the ratio is roundoff over roundoff
    if abs(curve / line1 - 2.0) > TOL["ratio"]:
        return f"curve_over_fields = {curve / line1!r}, expected 2"
    return None


def study_problem(ref, discrete, err_kirillov, orders, order_tol):
    """Convergence of a study: the discrete sums approach the scaled orbit form.

    A vanishing form is the trivial case: the final sum must be near 0.
    Otherwise the errors must shrink, and at second order at the finest pair.
    Whether a small but nonzero form is reached to 1e-2 at the last n is the
    CLI's pass rule (see `cli_study_exit`), not a correctness condition.
    """
    if abs(ref) <= TOL["zero_form"]:
        if abs(discrete[-1]) > 1e-6:
            return f"zero form but final discrete sum {discrete[-1]!r}"
        return None
    if not all(a > b for a, b in zip(err_kirillov, err_kirillov[1:])):
        return "errors against the scaled orbit form do not decrease"
    if abs(orders[-1] - 2.0) > order_tol:
        return f"observed order {orders[-1]!r}, expected 2"
    return None


def cli_study_exit(ref, discrete, err_kirillov):
    """Exit code of `limit study` for the report it printed, by the CLI's rule.

    0 in the trivial case, where the reference and every discrete sum are
    below 1e-14 in magnitude.  Otherwise 0 when the errors decrease and the
    final relative error is below 1e-2 (the final sum itself when the
    reference is exactly 0), and 3 when they do not.  A zero form whose
    sums are not yet below 1e-14 at n = 800 therefore exits 3.
    """
    if abs(ref) < 1e-14 and all(abs(d) < 1e-14 for d in discrete):
        return 0
    decreasing = all(a > b for a, b in zip(err_kirillov, err_kirillov[1:]))
    final = abs(discrete[-1]) if ref == 0.0 else err_kirillov[-1] / abs(ref)
    return 0 if decreasing and final < TOL["study_rel"] else 3


def check_continuum(kind, out):
    if kind == "hill":
        dev = float(abs(out["mono"] + [[1.0, 0.0], [0.0, 1.0]]).max())
        if dev > TOL["monodromy"]:
            return f"monodromy deviates from -I by {dev!r}"
        return None if out["nonosc"] else "not nonoscillating"
    if kind in ("liouville", "curvature"):
        return None if out["max"] <= TOL[kind] else f"max residual {out['max']!r}"
    if kind == "boundary":
        worst = max(out.values())
        return None if worst <= TOL["boundary"] else f"closure residual {worst!r}"
    if kind == "kirillov":
        return kirillov_problem(out["line1"], out["line2"], out["curve"])
    if kind == "study":
        recs = out.records
        return study_problem(
            out.kirillov_scaled, [r.discrete for r in recs], [r.err_kirillov for r in recs],
            out.observed_orders, TOL["order"],
        )
    return f"unknown kind {kind}"


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """Fresh `python -m frieze_lab.cli` subprocesses, one per request.

    Per cycle: 12 exact commands (gen at w 4/32/60, diag at 8/24, check at
    10/35/60, mutate at 6/20, moduli at 24/60), 8 float commands at default
    resolution (hill three times, liouville, curvature, kirillov, frieze2d,
    limit study) and 2 malformed inputs that must exit 2 with a JSON error.
    """

    name = "cli"
    min_cycles = 4
    tail_pct = 85.0
    in_process = False

    def __init__(self, fl, root):
        self.fl = fl
        self.root = root
        env = {k: v for k, v in os.environ.items() if k != "FRIEZE_LAB_NODES"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self.max_rss_kb = 0  # peak over the request children
        self._spawner = None

    # -- request generation ------------------------------------------------

    def _exact(self, rng):
        out = []
        for w in (4, 32, 60):
            q = inputs.random_quiddity(rng, w)
            out.append(Request("gen", {"argv": ["frieze", "gen", "--quiddity", _join(q)], "quiddity": q}))
        for w in (8, 24):
            vals = inputs.positive_diagonal(rng, w)
            base = rng.randrange(w + 3)
            argv = ["frieze", "diag", "--values", _join(vals), "--base", str(base)]
            out.append(Request("diag", {"argv": argv, "values": vals, "base": base}))
        for w in (10, 35, 60):
            doc = inputs.frieze_doc(inputs.random_quiddity(rng, w))
            out.append(Request("check", {"argv": ["frieze", "check", "-"], "stdin": json.dumps(doc)}))
        for w in (6, 20):
            out.append(self._mutate(rng, w))
        for w in (24, 60):
            q = inputs.random_quiddity(rng, w)
            out.append(Request("moduli", {"argv": ["frieze", "moduli", "--quiddity", _join(q)], "quiddity": q}))
        return out

    def _mutate(self, rng, w):
        q = inputs.random_quiddity(rng, w)
        start = rng.randrange(w + 3)
        moves = inputs.random_moves(rng, w)
        corners = [p for p in range(1, w - 1) if moves[p - 1] != moves[p]]
        pos = rng.choice([0, w - 1, *corners])
        argv = [
            "frieze", "mutate", "--values", _join(inputs.Oracle(q).along(start, moves)),
            "--start", str(start), "--moves", ",".join(moves), "--position", str(pos),
        ]
        return Request("mutate", {"argv": argv, "quiddity": q, "start": start, "moves": moves, "position": pos})

    def _float(self, rng):
        out = []
        for sub in ("hill", "liouville", "curvature", "hill", "kirillov", "frieze2d", "hill"):
            p = _curve_params(rng)
            argv = ["continuum", sub, "--family", "tan", "--s", repr(p["s"]), "--c", repr(p["c"])]
            if sub == "kirillov":
                xi, eta = _draw_pair(rng)
                argv += ["--xi", xi, "--eta", eta]
            out.append(Request(sub, {"argv": argv}))
        p = _curve_params(rng)
        xi, eta = _draw_pair(rng)
        argv = ["limit", "study", "--family", "tan", "--s", repr(p["s"]), "--c", repr(p["c"]), "--xi", xi, "--eta", eta]
        out.append(Request("study", {"argv": argv}))
        return out

    def _malformed(self, rng, k):
        def bad_doc():
            doc = inputs.frieze_doc(inputs.random_quiddity(rng, 6))
            doc["rows"][2][rng.randrange(9)] = "7/3"
            return json.dumps(doc)

        w = rng.randint(3, 8)
        cases = [  # (argv, stdin)
            (["frieze", "gen", "--quiddity", _join(rng.randint(2, 5) for _ in range(w + 3))], None),
            (["frieze", "gen", "--quiddity", "1,2"], None),
            (["frieze", "gen", "--quiddity", f"1,{rng.choice('xyz')},2"], None),
            (["frieze", "diag", "--values", _join([*inputs.positive_diagonal(rng, w), 0])], None),
            (["frieze", "mutate", "--values", "1,2,3", "--start", "0", "--moves", "SE,SE", "--position", "1"], None),
            (["frieze", "check", "-"], bad_doc()),
            (["continuum", "hill", "--s", repr(rng.uniform(0.6, 0.95))], None),
            (["limit", "study", "--n", "400,200,100"], None),
        ]
        return [
            Request("malformed", {"argv": argv, "stdin": stdin})
            for argv, stdin in (cases[(2 * k) % 8], cases[(2 * k + 1) % 8])
        ]

    def cycle(self, rng, k):
        exact, floats, bad = self._exact(rng), self._float(rng), self._malformed(rng, k)
        # interleave so that a cycle mixes cheap and costly commands evenly
        order = []
        while exact or floats or bad:
            for pool, take in ((exact, 2), (floats, 1), (bad, 1)):
                order.extend(pool[:take])
                del pool[:take]
        return order

    def warmup(self, rng):
        self.spawn(["-c", "import frieze_lab.cli"], None)

    # -- execution ---------------------------------------------------------

    def spawn(self, args, stdin):
        """Run a child through bench/spawner.py; see there for why."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=self.root, text=True,
            )
        self._spawner.stdin.write(json.dumps({"argv": [sys.executable, *args], "stdin": stdin}) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        self.max_rss_kb = reply["max_rss_kb"]
        return reply["code"], reply["stdout"], reply["stderr"]

    def close(self):
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=150)
            self._spawner.stdout.close()
            self._spawner = None

    def execute(self, req):
        return self.spawn(["-m", "frieze_lab.cli", *req.args["argv"]], req.args.get("stdin"))

    def replay(self, cli_main, req):
        """The same argv in this process, through frieze_lab.cli.main."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(req.args.get("stdin") or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(req.args["argv"])
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    # -- checks ------------------------------------------------------------

    def check(self, req, out):
        code, stdout, stderr = out
        if "Traceback" in stderr:
            return f"traceback, exit {code}: {stderr.strip().splitlines()[-1]}"
        if req.kind == "malformed":
            return _expect_json_error(code, stdout)
        if req.kind == "study":
            return self._check_study(code, stdout)
        if code != 0:
            return f"exit {code}: {stdout.strip()[:120]}"
        if req.kind == "frieze2d":
            return self._check_frieze2d(stdout)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        return getattr(self, f"_check_{req.kind}")(req, doc)

    def _check_gen(self, req, doc):
        q = req.args["quiddity"]
        if doc["quiddity"] != [str(x) for x in q]:
            return "quiddity not echoed"
        return _rows_problem(doc)

    def _check_diag(self, req, doc):
        problem = _rows_problem(doc)
        if problem:
            return problem
        oracle = inputs.Oracle([Fraction(x) for x in doc["quiddity"]])
        if oracle.diagonal(req.args["base"]) != req.args["values"]:
            return "diagonal at the base differs from the input values"
        return None

    def _check_check(self, req, doc):
        if doc.get("valid") is not True or not all(v for k, v in doc.items() if k != "period"):
            return f"valid document reported invalid: {doc}"
        return None

    def _check_mutate(self, req, doc):
        a = req.args
        start, moves = inputs.flipped_path(a["start"], a["moves"], a["position"])
        if doc["start"] != start or tuple(doc["moves"]) != moves:
            return f"path after the flip at {a['position']} is {doc['start']} {doc['moves']}, expected {start} {moves}"
        # the flipped path shares every vertex but one with the input path, so
        # this also requires the other values to be unchanged
        if tuple(Fraction(v) for v in doc["values"]) != inputs.Oracle(a["quiddity"]).along(start, moves):
            return "mutated chart values differ from the frieze along the flipped path"
        return None

    def _check_moduli(self, req, doc):
        w = len(req.args["quiddity"]) - 3
        if doc["omega_rank"] != (w if w % 2 == 0 else w - 1):
            return f"omega_rank {doc['omega_rank']} at w={w}"
        if len(doc["cross_ratios"]) != w:
            return "wrong number of cross-ratios"
        polygon = [(Fraction(x), Fraction(y)) for x, y in doc["polygon"]]
        if polygon != inputs.Oracle(req.args["quiddity"]).polygon():
            return "polygon differs from the oracle's solution vectors"
        return None

    def _check_hill(self, req, doc):
        if doc["max_dev_from_minus_id"] > TOL["monodromy"] or doc["antiperiodic"] is not True:
            return f"monodromy not -I: {doc['max_dev_from_minus_id']!r}"
        return None if doc["nonoscillating"] is True else "not nonoscillating"

    def _check_liouville(self, req, doc):
        return None if doc["max_residual"] <= TOL["liouville"] else f"residual {doc['max_residual']!r}"

    def _check_curvature(self, req, doc):
        v = doc["max_abs_K_plus_1"]
        return None if v <= TOL["curvature"] else f"max |K+1| = {v!r}"

    def _check_kirillov(self, req, doc):
        return kirillov_problem(doc["fields_line1"], doc["fields_line2"], doc["curve_formula"])

    def _check_frieze2d(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["x", "y", "value"] or len(rows) != 1 + 48 * 48:
            return "frieze2d CSV has the wrong shape"
        values = {(x, y): float(v) for x, y, v in rows[1:]}
        for (x, y), v in values.items():
            if (x == y and v != 0.0) or abs(v + values[(y, x)]) > 1e-12:
                return f"F is not antisymmetric at ({x}, {y})"
        return None

    def _check_study(self, code, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if [int(r["n"]) for r in rows] != [100, 200, 400, 800]:
            return f"exit {code}; study CSV has the wrong rows"
        ref = float(rows[0]["kirillov_scaled"])
        discrete = [float(r["discrete"]) for r in rows]
        errors = [float(r["err_kirillov"]) for r in rows]
        expected = cli_study_exit(ref, discrete, errors)
        if code != expected:
            return f"exit {code}, the pass rule gives {expected}"
        orders = [float(r["observed_order"]) for r in rows[1:]]
        return study_problem(ref, discrete, errors, orders, TOL["order_cli"])


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _expect_json_error(code, stdout):
    if code != 2:
        return f"exit {code}, expected 2"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "no JSON error object on stdout"
    return None if isinstance(doc, dict) and "error" in doc else "JSON without an error key"


def _rows_problem(doc):
    oracle = inputs.Oracle([Fraction(x) for x in doc["quiddity"]])
    rows = [[Fraction(x) for x in row] for row in doc["rows"]]
    if rows != oracle.rows() or doc["width"] != oracle.n - 3 or doc["period"] != oracle.n:
        return "frieze rows differ from the oracle's brackets"
    return None


# Documented error cases that break the exit-code contract at the time the
# benchmark was written.  They run apart from the request stream, so that
# the stream has no failing operation, and every run reports how many still
# misbehave.  The contract asks each to exit 2 with a JSON error object.
def defect_probes(root):
    missing = os.path.join(root, "bench", "out", "missing-dir", "x.json")
    return [
        ("check-empty-doc", ["frieze", "check", "-"], "{}"),
        ("check-rows-not-list", ["frieze", "check", "-"], json.dumps({**inputs.frieze_doc((1, 1, 1)), "rows": 5})),
        ("study-open-family", ["limit", "study", "--family", "linear", "--n", "100,200,400"], None),
        ("frieze2d-grid-0", ["continuum", "frieze2d", "--grid", "0"], None),
        ("output-dir-missing", ["frieze", "gen", "--quiddity", "1,2,2,1,3", "-o", missing], None),
    ]


def run_defect_probes(cli):
    failures = []
    for name, argv, stdin in defect_probes(cli.root):
        code, out, err = cli.spawn(["-m", "frieze_lab.cli", *argv], stdin)
        if "Traceback" in err:
            failures.append((name, f"exit {code} with a traceback: {err.strip().splitlines()[-1]}"))
        elif _expect_json_error(code, out):
            failures.append((name, _expect_json_error(code, out)))
    return failures
