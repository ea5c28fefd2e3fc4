"""Benchmark of k3tk: three workloads, checked outputs, yardstick-scaled timings.

Run from the root of a checkout:

    python3 k3bench/run.py --workload algebra --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a traced run prints the
per-layer ones.  Lines above it give the raw figures beside the scaled ones.
``--calibrate`` measures the yardsticks' nominal times again (see README.md).
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import yardstick
from spans import NULL, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("algebra", "analytic", "cli")
SETUP_SAMPLES = 5           # cold start-ups per run; setup_s is their median
HILB_COLD_INDEX = 619       # largest Euler index of the cli workload
PROBES = 3                  # fresh processes per probe metric of the traced run


class Context:
    """Paths and environment shared by a run and the children it spawns."""

    def __init__(self, root: str, tag: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = os.path.join(HERE, "out", f"work-{tag}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONDONTWRITEBYTECODE="1")
        self.child_maxrss_kb = 0


def _import_program(ctx: Context):
    sys.path.insert(0, ctx.src)
    import k3tk
    if not os.path.abspath(k3tk.__file__).startswith(ctx.src + os.sep):
        raise SystemExit(f"k3tk was imported from {k3tk.__file__}, not from {ctx.src}")
    return k3tk


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _needed_ok(pct: int) -> int:
    """Samples that leave at least ten beyond the pct-th percentile."""
    return math.ceil(10 / (1 - pct / 100)) + 1


class Stream:
    """Timed operations of one workload, each followed by one yardstick."""

    def __init__(self, wl, k3, ops, orc, tracer, yard):
        self.wl, self.k3, self.ops, self.orc = wl, k3, ops, orc
        self.tracer, (self.yard, self.slowness) = tracer, yard
        self.raw, self.ys, self.ok, self.failures = [], [], [], []

    def run(self, seconds: float, min_rounds: int, min_ok: int = 0) -> None:
        """Whole rounds until the time, the rounds and the successful samples suffice."""
        start = time.perf_counter()
        rounds = 0
        while (rounds < min_rounds or time.perf_counter() - start < seconds
               or sum(self.ok) < min_ok):
            for op in self.ops:
                self._one(op)
            rounds += 1

    def _one(self, op) -> None:
        tr = self.tracer
        tr.op = len(self.raw)
        reason = None
        with tr.span("op"):
            t0 = time.perf_counter()
            try:
                out = self.wl.run_op(self.k3, op, tr)
            except Exception as exc:        # the program failed this operation
                out, reason = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.ys.append(self.yard())
        self.raw.append(t1 - t0)
        if reason is None:
            try:
                self.wl.check(op, out, self.orc)
            except Exception as exc:        # a wrong or malformed answer
                reason = f"{type(exc).__name__}: {exc}"
        self.ok.append(reason is None)
        if reason is not None and not op.get("fault"):
            self.failures.append(reason)

    def factors(self) -> list[float]:
        """Nominal speed over the host's speed during each operation.

        The speed is read from the two yardsticks that bracket the operation,
        taking the slower: a burst of contention long enough to stretch the
        operation usually reaches one of them.
        """
        ys, ops = self.ys, self.ops
        return [1 / max(self.slowness(ops[i % len(ops)], ys[i - 1] if i else ys[i]),
                        self.slowness(ops[i % len(ops)], ys[i])) for i in range(len(ys))]


def _prepare(name: str, seed: int, ctx: Context, k3):
    wl = importlib.import_module(f"wl_{name}")
    ops = wl.build(seed, ctx)
    wl.warm(k3, ops)
    return wl, ops


def _setup_probe(name: str, seed: int, root: str) -> None:
    """Fresh interpreter: import k3tk, build the inputs, warm the caches."""
    ctx = Context(root, f"probe-{name}")
    try:
        k3 = _import_program(ctx)
        _prepare(name, seed, ctx, k3)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def _start_part(ctx: Context) -> float:
    total, compute = yardstick.child(ctx.env)
    return total - compute


def _setup_samples(name: str, seed: int, ctx: Context, nominal: dict):
    """Median raw and scaled seconds of cold start-ups, each bracketed by CLI yardsticks."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    before = _start_part(ctx)
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=ctx.env, cwd=ctx.root, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = _start_part(ctx)
        raw.append(elapsed)
        scaled.append(elapsed * nominal["child_start_s"] / max(before, after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def _yard_for(wl, ctx: Context, nominal: dict):
    """(yardstick, slowness of the host for an operation given a yardstick reading)."""
    if hasattr(wl, "slowness"):             # cli: the blended child yardstick
        return (lambda: yardstick.child(ctx.env)), (lambda op, y: wl.slowness(op, y, nominal))
    return yardstick.inproc, (lambda op, y: y / nominal["inproc_s"])


def _readings(ys: list) -> str:
    if isinstance(ys[0], tuple):            # CLI yardstick: (whole, computing part)
        return (f"start-up {1000 * statistics.median(t - c for t, c in ys):.4f} ms, "
                f"compute {1000 * statistics.median(c for _, c in ys):.4f} ms")
    return f"{1000 * statistics.median(ys):.4f} ms"


def _latency_figures(times: list[float], ok: list[bool], pct: int) -> dict:
    good = [t for t, k in zip(times, ok) if k]
    tail = _percentile(good, pct)
    beyond = sum(t > tail for t in good)
    if beyond < 10:
        raise SystemExit(f"only {beyond} samples beyond p{pct}")
    return {"throughput_ops_s": len(times) / sum(times),
            "latency_p50_ms": 1000 * statistics.median(good),
            "latency_tail_ms": 1000 * tail, "samples": len(good), "beyond": beyond}


def _end_to_end(name, seed, seconds, ctx, k3, nominal):
    wl, ops = _prepare(name, seed, ctx, k3)
    orc = wl.oracle(ops, ctx)
    setup_raw, setup_scaled = _setup_samples(name, seed, ctx, nominal)
    yard = _yard_for(wl, ctx, nominal)
    warm_up = Stream(wl, k3, ops, orc, NULL, yard)
    for op in ops[:2]:
        warm_up._one(op)                                        # untimed
    stream = Stream(wl, k3, ops, orc, NULL, yard)
    stream.run(seconds, wl.MIN_ROUNDS, _needed_ok(wl.TAIL_PCT))
    scaled = [t * f for t, f in zip(stream.raw, stream.factors())]
    fig = _latency_figures(scaled, stream.ok, wl.TAIL_PCT)
    raw = _latency_figures(stream.raw, stream.ok, wl.TAIL_PCT)
    if name == "cli":
        rss_kb = ctx.child_maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_ops_s": (fig["throughput_ops_s"], "ops/s"),
        "latency_p50_ms": (fig["latency_p50_ms"], "ms"),
        "latency_tail_ms": (fig["latency_tail_ms"], "ms"),
        "setup_s": (setup_scaled, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print(f"# {name} seed={seed}: {len(stream.raw)} ops, {fig['samples']} ok, "
          f"tail = p{wl.TAIL_PCT} with {fig['beyond']} samples beyond")
    print(f"# yardstick raw median {_readings(stream.ys)}; nominal {json.dumps(nominal)}")
    for key in ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms"):
        print(f"# {key}: scaled {fig[key]:.4f}  raw {raw[key]:.4f}")
    print(f"# setup_s: scaled {setup_scaled:.4f}  raw {setup_raw:.4f}")
    return stream, metrics


def _child_probe(code: str, ctx: Context) -> dict:
    out = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


_PROBE_TAIL = ("import sys, json, statistics; sys.path.insert(0, {here!r}); import yardstick; "
               "print(json.dumps({{'t': t, 'ys': statistics.median(yardstick.inproc() "
               "for _ in range(9))}}))")


def _probe_metrics(ctx: Context, nominal: dict, int_argv: list[str]) -> dict:
    """Fresh-process figures: cold hilb_euler, cold import, modules an int command loads."""
    def scaled_ms(code):
        doc = _child_probe(code, ctx)
        return 1000 * doc["t"] * nominal["inproc_s"] / doc["ys"]

    tail = _PROBE_TAIL.format(here=HERE)
    hilb = ("import time; from k3tk.qseries import hilb_euler; s = time.perf_counter(); "
            f"hilb_euler({HILB_COLD_INDEX}); t = time.perf_counter() - s; " + tail)
    imp = "import time; s = time.perf_counter(); import k3tk; t = time.perf_counter() - s; " + tail
    modules = ("import sys, io, contextlib, json; before = len(sys.modules); "
               "from k3tk.cli import main\n"
               f"with contextlib.redirect_stdout(io.StringIO()): main({int_argv!r})\n"
               "print(json.dumps({'count': len(sys.modules) - before}))")
    return {
        "qseries.hilb_euler_cold_ms": (statistics.median(scaled_ms(hilb) for _ in range(PROBES)),
                                       "ms"),
        "cli.import_ms": (statistics.median(scaled_ms(imp) for _ in range(PROBES)), "ms"),
        "cli.modules_loaded": (_child_probe(modules, ctx)["count"], "count"),
    }


def _layer_rows(stream: Stream, tracer):
    factors = stream.factors()
    own = tracer.self_times()
    return [(name, own[i] * factors[op], count, op)
            for i, (name, _, _, _, op, count) in enumerate(tracer.spans) if op >= 0]


def _cli_layer_metrics(stream: Stream, ops) -> dict:
    factors = stream.factors()
    by_class: dict[str, list[float]] = {}
    for i, (t, f) in enumerate(zip(stream.raw, factors)):
        by_class.setdefault(ops[i % len(ops)]["cls"], []).append(1000 * t * f)
    return {f"cli.{key}_ms": (statistics.median(by_class[cls]), "ms")
            for key, cls in (("int", "int"), ("float", "float"), ("sweep", "sweep"),
                             ("gottsche", "cold"))}


def _traced(name, seed, seconds, ctx, k3, nominal):
    """Traced run: the named workload for the run length, one round of the others."""
    metrics, spans, main = {}, {}, None
    for other in (name, *(w for w in WORKLOADS if w != name)):
        wl, ops = _prepare(other, seed, ctx, k3)
        orc = wl.oracle(ops, ctx)
        yard = _yard_for(wl, ctx, nominal)
        tracer = Tracer()
        stream = Stream(wl, k3, ops, orc, tracer, yard)
        if other == name:
            stream.run(seconds, wl.MIN_ROUNDS, _needed_ok(wl.TAIL_PCT))
            main = stream
        else:
            stream.run(0, 1)
        n_ops = len(stream.raw)
        if other == "cli":
            metrics.update(_cli_layer_metrics(stream, ops))
            metrics.update(_probe_metrics(ctx, nominal, ops[0]["argv"][3:]))
        else:
            metrics.update(wl.layer_metrics(_layer_rows(stream, tracer), n_ops))
        scaled = sum(t * f for t, f in zip(stream.raw, stream.factors()))
        print(f"# traced {other}: {n_ops} ops, throughput scaled {n_ops / scaled:.4f} ops/s, "
              f"raw {n_ops / sum(stream.raw):.4f} ops/s")
        spans[other] = tracer
        if other != name:
            main.failures.extend(f"{other}: {reason}" for reason in stream.failures)
    path = os.path.join(HERE, "out", f"trace-{name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: t.records() for k, t in spans.items()}, fh)
    print(f"# spans written to {os.path.relpath(path, ctx.root)}")
    return main, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "k3tk", "__init__.py")):
        print("run from the root of a k3tk checkout (src/k3tk is missing)", file=sys.stderr)
        return 3
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, root)
        return 0
    for path in (os.path.join(root, "src", "k3tk"), HERE):      # bytecode before timing
        compileall.compile_dir(path, quiet=1, maxlevels=0)
    ctx = Context(root, args.workload or "calibrate")
    try:
        if args.calibrate:
            print(json.dumps(yardstick.calibrate(ctx.env)))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        nominal = yardstick.load_nominal()
        k3 = _import_program(ctx)
        if args.trace:
            stream, metrics = _traced(args.workload, args.seed, args.seconds, ctx, k3, nominal)
        else:
            stream, metrics = _end_to_end(args.workload, args.seed, args.seconds, ctx, k3,
                                          nominal)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    for reason in stream.failures[:5]:
        print(f"# unexpected failure: {reason}")
    result = {"correct": not stream.failures, "attempted": len(stream.ok),
              "failed": len(stream.ok) - sum(stream.ok),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = os.path.join(HERE, "out", f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, samples={"raw_s": stream.raw, "yardstick_s": stream.ys,
                                        "ok": stream.ok}), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
