"""One workload in one fresh process; started by run.py, not by hand.

Role `setup` imports, builds the inputs and warms up, then reports how long
that took.  Role `main` does the same and then runs whole timed passes for the
requested seconds.  With --trace 1 the passes alternate untraced and traced
over the same draw: the traced passes give the per-layer metrics, and the
pooled rates of the two kinds give the tracing overhead.  The last stdout
line is one JSON object.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from oracle import CLASSES, is_identity_quadratic, pairing_class  # noqa: E402
from tracer import Tracer  # noqa: E402

SCHEMES = ("eckstein", "ss", "ips", "pls", "rs")
FORMS = ("ss", "ips", "pls")
CLASS_DIMS = (1, 8, 64)
WARMUP_SEED = 0

PER_LAYER = (
    [("numerics.as_vector.calls", "count"), ("numerics.self_ms", "ms"),
     ("legendre.calls", "count"), ("legendre.self_ms", "ms"),
     ("operators.coord_box.calls", "count"), ("operators.value_box.calls", "count"),
     ("operators.self_ms", "ms")]
    + [(f"resolvent.protoresolvent_ms.{c}_d{d}", "ms") for c in CLASSES for d in CLASS_DIMS]
    + [("resolvent.solve_inclusion.calls", "count")]
    + [(f"resolvent.radius_search_ms.{form}", "ms") for form in FORMS]
    + [("resolvent.self_ms", "ms"), ("reference.brute_force_ms", "ms"), ("reference.self_ms", "ms")]
    + [(f"algorithms.iterations.{s}", "count") for s in SCHEMES]
    + [(f"algorithms.ms_per_iter.{s}", "ms") for s in SCHEMES]
    + [("algorithms.bregman_project_ms.euclidean", "ms"), ("algorithms.bregman_project_ms.dual", "ms"),
       ("algorithms.steps_attempted", "count"), ("algorithms.steps_accepted", "count"),
       ("algorithms.self_ms", "ms"),
       ("cli.parse_config_ms", "ms"), ("cli.write_trace_ms", "ms"), ("cli.trace_bytes", "B"),
       ("trace.ops_per_s_untraced", "1/s"), ("trace.ops_per_s_traced", "1/s"),
       ("trace.overhead_pct", "%")]
)


def environment():
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


class Inputs:
    """The cases of each pass: a fresh draw of inputs every `every` passes."""

    def __init__(self, workload, seed, scratch, every):
        self.workload, self.seed, self.scratch, self.every = workload, seed, scratch, every
        self.draw, self.cases = None, None

    def for_pass(self, pass_no):
        draw = pass_no // self.every
        if draw != self.draw:
            self.draw = draw
            self.cases = workloads.build(self.workload, (self.seed, draw), self.scratch)
        return self.cases


def measure(inputs, seconds, tracer=None):
    """Whole passes until `seconds` have gone by; the time of every operation.

    Without a tracer, one run.  With one, two runs, untraced and traced: the
    passes alternate between them over the same draw, and the last pass is a
    traced one.  The tracer is installed for the traced passes only and
    counts spans only inside the timed call, not in building or checking."""
    runs = [{"latencies": [], "passes": 0, "attempted": 0, "errors": [], "problems": []}
            for _ in range(1 if tracer is None else 2)]
    start = perf_counter()
    pass_no = 0
    while True:
        run = runs[pass_no % len(runs)]
        traced = run is not runs[0]
        cases = inputs.for_pass(pass_no)
        if traced:
            tracer.install()
        try:
            for case in cases:
                run["attempted"] += 1
                if traced:
                    tracer.active = True
                t0 = perf_counter()
                try:
                    out = case.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    run["errors"].append(f"{case.label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    t1 = perf_counter()
                    if traced:
                        tracer.active = False
                run["latencies"].append(t1 - t0)
                problem = case.check(out)
                if problem:
                    run["problems"].append(f"{case.label}: {problem}")
        finally:
            if traced:
                tracer.uninstall()
        run["passes"] += 1
        pass_no += 1
        if pass_no % len(runs) == 0 and perf_counter() - start >= seconds:
            break
    for run in runs:
        run["latencies"] = np.array(run["latencies"])
    return runs


def summary(run):
    """Throughput and latency percentiles over every timed operation of a run.

    Each pass draws fresh inputs, so pooling the passes averages many draws;
    a median over passes would keep one draw's cost."""
    ms = 1e3 * run["latencies"]
    return {"ops_per_s": 1e3 * ms.size / ms.sum(),
            "latency_p50_ms": float(np.percentile(ms, 50)),
            "latency_p90_ms": float(np.percentile(ms, 90))}


class LayerProbe:
    """Per-layer readings fed by tracer hooks on the public calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.acc = defaultdict(lambda: [0.0, 0])   # key -> [seconds or amount, count]
        self.first_iterations = {}                 # trace path -> (scheme, iterations) of draw 0
        hooks = tracer.hooks
        hooks[("resolvent", "protoresolvent")] = self._proto
        hooks[("resolvent", "radius_search")] = self._radius
        hooks[("reference", "brute_force_protoresolvent")] = self._add("brute")
        hooks[("algorithms", "run")] = self._run
        hooks[("algorithms", "bregman_project")] = self._project
        for step in ("eckstein_step", "ss_step", "ips_step", "pls_step", "rs_step"):
            hooks[("algorithms", step)] = self._step
        hooks[("cli", "parse_config")] = self._add("parse_config")
        hooks[("cli", "write_trace")] = self._write

    def _add(self, key):
        return lambda args, kwargs, result, seconds: self._bump(key, seconds)

    def _bump(self, key, amount):
        self.acc[key][0] += amount
        self.acc[key][1] += 1

    def _proto(self, args, kwargs, result, seconds):
        f, op = args[0], args[1]
        self._bump(("proto", pairing_class(f, op), f.dim), seconds)

    def _radius(self, args, kwargs, result, seconds):
        self._bump(("radius", args[4].label.split("(")[0]), seconds)

    def _run(self, args, kwargs, result, seconds):
        scheme = args[0].scheme
        self._bump(("run_s", scheme), seconds)
        self._bump(("iters", scheme), result.iterations)

    def _project(self, args, kwargs, result, seconds):
        self._bump(("project", "euclidean" if is_identity_quadratic(args[0]) else "dual"), seconds)

    def _step(self, args, kwargs, result, seconds):
        self._bump("steps", 1)
        if getattr(result, "status", "accepted") != "reject":
            self._bump("accepted", 1)

    def _write(self, args, kwargs, result, seconds):
        trace, cfg = args[0], args[1]
        self._bump("write_trace", seconds)
        path = cfg.output_path
        self.first_iterations.setdefault(path, (cfg.scheme, trace.iterations))
        self._bump("trace_bytes", os.path.getsize(path) + os.path.getsize(path + ".json"))

    def metrics(self, ops):
        t, acc = self.tracer, self.acc

        def per_op(value):
            return value / ops

        def mean_ms(key):
            total, count = acc.get(key, (0.0, 0))
            return 1e3 * total / count if count else 0.0

        out = {
            "numerics.as_vector.calls": per_op(t.layer_calls("numerics", "as_vector")),
            "legendre.calls": per_op(t.layer_calls("legendre")),
            "operators.coord_box.calls": per_op(t.layer_calls("operators", "coord_box")),
            "operators.value_box.calls": per_op(t.layer_calls("operators", "value_box")),
            "resolvent.solve_inclusion.calls": per_op(t.layer_calls("resolvent", "solve_inclusion")),
            "reference.brute_force_ms": mean_ms("brute"),
            "algorithms.bregman_project_ms.euclidean": mean_ms(("project", "euclidean")),
            "algorithms.bregman_project_ms.dual": mean_ms(("project", "dual")),
            "algorithms.steps_attempted": per_op(acc["steps"][0]),
            "algorithms.steps_accepted": per_op(acc["accepted"][0]),
            "cli.parse_config_ms": 1e3 * per_op(acc["parse_config"][0]),
            "cli.write_trace_ms": 1e3 * per_op(acc["write_trace"][0]),
            "cli.trace_bytes": per_op(acc["trace_bytes"][0]),
        }
        for layer in ("numerics", "legendre", "operators", "resolvent", "reference", "algorithms"):
            out[f"{layer}.self_ms"] = 1e3 * per_op(t.self_s.get(layer, 0.0))
        for cls in CLASSES:
            for dim in CLASS_DIMS:
                out[f"resolvent.protoresolvent_ms.{cls}_d{dim}"] = mean_ms(("proto", cls, dim))
        for form in FORMS:
            out[f"resolvent.radius_search_ms.{form}"] = mean_ms(("radius", form))
        for scheme in SCHEMES:
            # from the first draw only, which every traced run starts with, so
            # the count repeats exactly for a seed
            first = [n for s, n in self.first_iterations.values() if s == scheme]
            out[f"algorithms.iterations.{scheme}"] = sum(first) / len(first) if first else 0.0
            iters = acc.get(("iters", scheme), (0, 0))[0]
            seconds = acc.get(("run_s", scheme), (0.0, 0))[0]
            out[f"algorithms.ms_per_iter.{scheme}"] = 1e3 * seconds / iters if iters else 0.0
        return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch):
    # warm-up runs on inputs of a fixed seed, so set-up costs the same for every seed
    for case in workloads.build(args.workload, (WARMUP_SEED, 0), scratch):
        if case.warm:
            try:
                case.run()
            except Exception:  # noqa: BLE001 - the timed passes count it
                pass
    # a traced run keeps each draw for an untraced and a traced pass
    every = 2 if args.trace else workloads.PASSES_PER_DRAW.get(args.workload, 1)
    inputs = Inputs(args.workload, args.seed, scratch, every)
    inputs.for_pass(0)
    setup_s = perf_counter() - T_START
    result = {"setup_s": setup_s, "env": environment()}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    if args.trace:
        tracer = Tracer()
        probe = LayerProbe(tracer)
        runs = measure(inputs, args.seconds, tracer)
        plain, traced = runs
        layers = probe.metrics(traced["latencies"].size)
        untraced, traced_rate = summary(plain)["ops_per_s"], summary(traced)["ops_per_s"]
        layers["trace.ops_per_s_untraced"] = untraced
        layers["trace.ops_per_s_traced"] = traced_rate
        layers["trace.overhead_pct"] = 100.0 * (untraced / traced_rate - 1.0)
        result["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        runs = measure(inputs, args.seconds)
        timed = runs[0]
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in summary(timed).items()}
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    result["passes"] = [r["passes"] for r in runs]
    result["timed_ops"] = [int(r["latencies"].size) for r in runs]
    problems = [p for r in runs for p in r["problems"]]
    errors = [e for r in runs for e in r["errors"]]
    result.update(attempted=sum(r["attempted"] for r in runs), failed=len(errors),
                  correct=not problems, problems=problems[:20], errors=errors[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero, printing no result
        traceback.print_exc()
        sys.exit(3)
