"""Benchmark for algcert: one workload, one seed, in this process.

Usage, from the root of an algcert checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: checks-sparse, checks-dense, build-pipeline, cli-batch, or `all`
(each workload in its own process, one after the other).  With --trace 0 the
operation list runs, cycling, for S seconds (at least once through) and gives
the end-to-end metrics; with --trace 1 one untraced and one traced pass over
the list give the per-layer metrics.  The last line of stdout is one
JSON object; every operation's outcome is checked and the exit code is 1 when
any differs from the expected one, 2 when the checkout has no algcert sources.
Load model: one process, sequential, no threads; cli-batch is a closed loop
with one client running one subprocess at a time.  Every time reported is
scaled to a fixed host speed, measured by a reference slice run before, after
and inside each operation (see HostSpeed).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import gen

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
NAMES = ("checks-sparse", "checks-dense", "build-pipeline", "cli-batch")
SETUPS = 3          # set-up repetitions per run; setup_s is their median
REF_S = 0.0035      # the reference slice's time at the speed every reported time is scaled to
PERIOD_S = 0.1      # reference slices are also taken this often inside a long operation

END_TO_END = (("run_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("top_rung_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def context(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "load": "one sequential process, no threads; cli-batch is a closed loop with one "
                    "client, one subprocess at a time; bytecode is warmed in setup_s"}


@dataclass
class Inside:
    """Reference slices taken inside one timed block, and the time they took from it."""

    slices: list[float] = field(default_factory=list)
    paused_s: float = 0.0


class HostSpeed:
    """Scales measured times to one fixed host speed.

    The host's cores are shared with other tenants, and its speed moves by up
    to a factor of two within seconds: far more than any bound a regression
    check could use.  So a fixed reference slice is timed before and after
    every operation, and every PERIOD_S inside it, and each operation's time
    is scaled by REF_S over the median slice time around and inside it.  The
    slice is benchmark code, not algcert code: exact Jacobiators of a dense
    gl(3) table in plain Fractions, the same kind of work as the operations,
    so it slows down with them.  A change to algcert moves the scaled times
    as much as the raw ones.
    """

    TRIPLES = ((0, 1, 2), (0, 1, 3))

    def __init__(self):
        alg = gen.change_basis(gen.family("gl(3)"), gen.dense_change(9, random.Random(0)))
        self.sc, self.dim = alg.sc, alg.dim

    def slice_s(self) -> float:
        t0 = time.perf_counter()
        for t in self.TRIPLES:
            gen.jacobiator(self.sc, self.dim, *t)
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self, on: bool = True):
        """Take a reference slice every PERIOD_S while the block runs, from a timer
        signal in this thread; the block's time minus `paused_s` excludes them."""
        inside = Inside()
        if not on:
            yield inside
            return

        def tick(signum, frame):
            t0 = time.perf_counter()
            inside.slices.append(self.slice_s())
            inside.paused_s += time.perf_counter() - t0

        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield inside
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @staticmethod
    def scale(raw: list[float], slices: list[float], inside: list[Inside]) -> list[float]:
        """raw[i] was timed between slices[i] and slices[i + 1], with inside[i] taken
        during it; each is scaled by the median of those and the four next around."""
        return [t * REF_S / statistics.median(slices[max(0, i - 2):i + 4] + inside[i].slices)
                for i, t in enumerate(raw)]


class Sweep(NamedTuple):
    """Every run of every operation in one measurement."""

    lat: list[list[float]]  # per operation, the time of each of its runs, scaled
    raw: list[list[float]]  # the same, as measured
    results: list           # per operation, its last run's result (None if it failed)
    wall_s: float           # unscaled wall time, reference slices included
    speed: float            # REF_S over the median slice time: 1 at the reference speed

    def op_s(self) -> list[float]:
        """Each operation's time: the median over its runs, scaled."""
        return [statistics.median(ts) for ts in self.lat]


class Runner:
    def __init__(self, ops, host: HostSpeed):
        self.ops = ops
        self.host = host
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def one(self, op, run, sample: bool):
        """Run and check one operation: (time s, slices taken inside it, result or None)."""
        problem = out = None
        t0 = time.perf_counter()
        with self.host.sampling(sample) as inside:
            try:
                out = run()
            except Exception as exc:      # an operation that raises is a failed operation
                problem = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0 - inside.paused_s
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as exc:
                problem = f"unexpected result ({type(exc).__name__}: {exc})"
        self.attempted += 1
        if problem:
            self.failures.append((op.name, problem))
        return dt, inside, out if not problem else None

    def sweep(self, seconds: float = 0.0, tracer=None, traced_cli=None) -> Sweep:
        """Run the operations in list order, and again from the start, until each has
        run once and `seconds` have passed.  A reference slice is taken before and
        after each run, and inside each untraced one (inside a traced one it would
        count as algcert self time)."""
        n = len(self.ops)
        order, raw, insides, slices = [], [], [], [self.host.slice_s()]
        results = [None] * n
        t0 = time.perf_counter()
        while len(order) < n or time.perf_counter() - t0 < seconds:
            i = len(order) % n
            op = self.ops[i]
            if tracer is not None:
                tracer.op = i
            run = op.run if traced_cli is None else (lambda: traced_cli(op, i))
            dt, inside, results[i] = self.one(op, run, sample=tracer is None)
            slices.append(self.host.slice_s())
            order.append(i)
            raw.append(dt)
            insides.append(inside)
        wall = time.perf_counter() - t0
        lat, raws = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, t, r in zip(order, self.host.scale(raw, slices, insides), raw):
            lat[i].append(t)
            raws[i].append(r)
        return Sweep(lat, raws, results, wall, REF_S / statistics.median(slices))


def setup(make, seed: int, host: HostSpeed):
    times, insides, slices = [], [], [host.slice_s()]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with host.sampling() as inside:
            compileall.compile_dir(os.path.join(ROOT, "src", "algcert"), quiet=1)
            ops = make(seed, WORKDIR)
        times.append(time.perf_counter() - t0 - inside.paused_s)
        insides.append(inside)
        slices.append(host.slice_s())
    return ops, statistics.median(host.scale(times, slices, insides))


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def interpreter_ms(code: str, reps: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def traced(name, runner, seed, untraced: Sweep):
    import tracing
    import workloads

    extra = {"cli.import_ms": 0.0, "cli.startup_ms": 0.0, "cli.inproc_ms": 0.0}
    spans = os.path.join(WORKDIR, f"spans-{name}-{seed}.jsonl")
    if name == "cli-batch":
        parts = os.path.join(WORKDIR, f"trace-{seed}")
        os.makedirs(parts, exist_ok=True)
        files = []

        def traced_cli(op, i):
            files.append(os.path.join(parts, f"op{i}.json"))
            return workloads.run_cli(op.command, trace_to=(files[-1], i))

        done = runner.sweep(traced_cli=traced_cli)
        raws = []
        with open(spans, "w", encoding="utf-8") as out:
            for path in files:
                with open(path, encoding="utf-8") as fh:
                    raws.append(json.load(fh))
                with open(path + ".spans.jsonl", encoding="utf-8") as fh:
                    out.write(fh.read())
                os.remove(path)
                os.remove(path + ".spans.jsonl")
        raw = tracing.merge(raws)
        seen = [(ts[0], r) for ts, r in zip(untraced.raw, untraced.results)
                if r is not None and r.inproc_ms is not None]
        extra["cli.inproc_ms"] = statistics.median(r.inproc_ms for _, r in seen)
        extra["cli.startup_ms"] = statistics.median(t * 1000 - r.inproc_ms for t, r in seen)
        extra["cli.import_ms"] = interpreter_ms("import algcert.cli") - interpreter_ms("pass")
    else:
        tracer = tracing.Tracer().install()
        try:
            done = runner.sweep(tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans)
        raw = tracer.raw()
    extra["trace.overhead_ratio"] = sum(done.op_s()) / sum(untraced.op_s())
    metrics = tracing.per_layer(raw, extra)
    units = dict(tracing.PER_LAYER)
    return {k: {"value": metrics[k], "unit": units[k]} for k, _ in tracing.PER_LAYER}, done


def run_one(args) -> int:
    import workloads

    make, top_rung = workloads.WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    host = HostSpeed()
    ops, setup_s = setup(make, args.seed, host)
    # The inputs of every operation stay alive for the whole run; frozen, they are
    # not rescanned by each collection, so an operation pays only for its own objects.
    gc.collect()
    gc.freeze()
    runner = Runner(ops, host)
    if args.trace:
        done = runner.sweep()
        metrics, traced_sweep = traced(args.workload, runner, args.seed, done)
    else:
        done, traced_sweep = runner.sweep(args.seconds), None
        op_s = done.op_s()
        values = {
            "run_s": sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1000,
            "op_p90_ms": statistics.quantiles(op_s, n=10)[8] * 1000,
            "top_rung_s": sum(t for t, op in zip(op_s, ops) if op.rung == top_rung),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(args.workload == "cli-batch"),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    if args.workload == "cli-batch":
        for op in ops:
            problem = workloads.cli_reference(op.command)
            if problem:
                runner.failures += [(op.name, problem)] * len(op.command.seen)
    failed = len(runner.failures)
    ctx = context(args.seed)
    ctx.update(workload=args.workload, trace=args.trace, operations=len(ops),
               op_runs=sum(map(len, done.lat)), seconds=args.seconds,
               op_fail_ratio=failed / runner.attempted, host_speed=round(done.speed, 4),
               wall_s=round(done.wall_s, 3))
    record = lambda sw: {"wall_s": sw.wall_s, "speed": sw.speed, "op_s": sw.lat, "raw_op_s": sw.raw}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "metrics": metrics, "failures": runner.failures[:50],
                   "ops": [op.name for op in ops], "sweep": record(done),
                   "traced_sweep": traced_sweep and record(traced_sweep)}, fh)
    for name, problem in runner.failures[:20]:
        print(f"FAILED {name}: {problem}")
    print("context " + json.dumps(ctx))
    for k, m in metrics.items():
        print(f"{k:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; the metrics are prefixed by the workload name."""
    attempted = failed = 0
    metrics = {}
    for name in NAMES:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        print(f"== {name} (exit {p.returncode})")
        print("\n".join(lines[:-1]))
        if p.returncode not in (0, 1) or not lines:
            print(p.stderr, file=sys.stderr)
            return 2
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main() -> int:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "algcert", "__init__.py")):
        print("perfbench: src/algcert not found; run from the root of an algcert checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
