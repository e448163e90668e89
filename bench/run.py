#!/usr/bin/env python3
"""Benchmark of the ordtri CLI on one seeded workload.

    python3 bench/run.py --workload count-random --seed 1 --seconds 33 --trace 0

With --trace 0 it runs the workload's ``ordtri`` command as one child process
at a time, for --seconds, with a fixed reference computation between the
commands, and reports medians of the commands' times relative to it; set-up
times are taken relative to a reference of their own.  With --trace 1 it
alternates two in-process calls of ``ordtri.cli.main``, one under
bench/tracing.py wrappers and one without them, and reports the per-layer
metrics.  Every output is checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Inputs,
outputs and traces go to bench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_BATCH = 15  # set-ups made after each command: one takes only ms
# SetupReference time of the nominal host that setup_s is expressed on: about
# what it takes on one core of a 2-core x86_64 box.
SETUP_REFERENCE_NOMINAL_S = 0.001
CHILD_LIMIT_S = 120  # a child still running after this is killed and counted failed


def load_program() -> None:
    """Put the package sources of this checkout first on sys.path."""
    if not (SRC / "ordtri" / "cli.py").is_file():
        raise SystemExit(f"error: ordtri sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Run the CLI as one child: (exit code, wall s, cpu s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "ordtri", *argv]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_LIMIT_S)
    try:
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # timeout or interrupt: end the child, then re-raise
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        wall = (time.perf_counter_ns() - t0) / 1e9
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Run:
    """One benchmark run: the input file, the commands made, their checks."""

    def __init__(self, workload, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.stem = OUT / f"{workload.name}-seed{seed}-trace{trace}"
        self.path = self.stem.with_suffix(".txt")
        self.data = None
        self.points = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write_input(self) -> float:
        """Generate and write the input file; returns the seconds it took.
        Repetitions are spread over the run and must write the same bytes."""
        from workloads import point_file

        t0 = time.perf_counter_ns()
        points = self.workload.make(self.seed)
        data = point_file(points)
        with open(self.path, "wb") as fh:
            fh.write(data)
        seconds = (time.perf_counter_ns() - t0) / 1e9
        if self.data is None:
            self.data, self.points = data, points
        elif data != self.data:
            raise SystemExit(f"error: seed {self.seed} generated two different inputs")
        return seconds

    @property
    def argv(self) -> list[str]:
        return self.workload.argv(str(self.path))

    def record(self, text: str, code: int) -> None:
        from workloads import check

        self.attempted += 1
        found = check(self.workload, text, code, self.points)
        if found:
            self.failed += 1
            self.problems.extend(found)

    def child(self) -> tuple[float, float, float]:
        """One timed child; its output is checked after it has exited."""
        out, err = self.stem.with_suffix(".out.json"), self.stem.with_suffix(".err")
        try:
            code, wall, cpu, rss = spawn(self.argv, out, err)
        except _ChildTimeout:
            code, wall, cpu, rss = -1, float(CHILD_LIMIT_S), float(CHILD_LIMIT_S), 0.0
        self.record(out.read_text(encoding="utf-8", errors="replace"), code)
        return wall, cpu, rss

    def in_process(self, tracer=None) -> tuple[str, float]:
        """One call of ordtri.cli.main in this process, under the tracer if
        one is given; returns its stdout and the seconds the call took."""
        import ordtri.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter_ns()
            if tracer is None:
                code = ordtri.cli.main(self.argv)
            else:
                code = tracer.run(ordtri.cli.main, self.argv)
            seconds = (time.perf_counter_ns() - t0) / 1e9
        self.record(buf.getvalue(), code)
        return buf.getvalue(), seconds


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Reference:
    """A fixed pure-Python computation that gauges the machine's speed of the
    moment: the census's direction grouping on 1,000 points, then Fraction
    sums.  It uses nothing from ordtri, so it is the same on every commit."""

    def __init__(self):
        rng = random.Random(0)
        self.points = [(rng.randrange(10 ** 8), rng.randrange(10 ** 8)) for _ in range(1000)]

    def seconds(self) -> float:
        t0 = time.perf_counter_ns()
        points = self.points
        for i in range(len(points) - 1):
            xi, yi = points[i]
            groups: dict[tuple[int, int], int] = {}
            for x, y in points[i + 1:]:
                dx, dy = x - xi, y - yi
                g = gcd(dx, dy)
                key = (dx // g, dy // g)
                groups[key] = groups.get(key, 0) + 1
        total = Fraction(0)
        for k, (x, y) in enumerate(points[:300], start=1):
            total += Fraction(x, k) - Fraction(y, k + 1)
        return (time.perf_counter_ns() - t0) / 1e9


class SetupReference:
    """A fixed computation of the same kind as a set-up, timed next to each
    one: draw 200 seeded points, build Fractions, put them in a set, format
    them and write the file.  It uses nothing from ordtri."""

    def __init__(self, path: Path):
        self.path = path

    def seconds(self) -> float:
        t0 = time.perf_counter_ns()
        rng = random.Random(0)
        seen, points = set(), []
        for _ in range(200):
            xy = (rng.randrange(10 ** 8), rng.randrange(10 ** 8))
            if xy not in seen:
                seen.add(xy)
                points.append((Fraction(xy[0]), Fraction(xy[1])))
        set(points)
        data = "".join(f"{x} {y}\n" for x, y in points).encode("ascii")
        with open(self.path, "wb") as fh:
            fh.write(data)
        return (time.perf_counter_ns() - t0) / 1e9


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Times of each command divided by the mean of the reference times taken
    just before and just after it: the host's speed drifts by a third over
    minutes, and the ratio cancels that drift.  Each set-up is divided by a
    SetupReference timed just after it, and the median ratio is scaled to
    the nominal host.  Raw times are printed too."""
    reference = Reference()
    setup_reference = SetupReference(run.stem.with_suffix(".ref.txt"))
    setups = []  # (set-up s, set-up reference s)

    def set_up() -> None:
        for _ in range(SETUP_BATCH):
            setups.append((run.write_input(), setup_reference.seconds()))

    set_up()
    before = reference.seconds()
    deadline = time.perf_counter() + seconds
    samples = []  # (wall s, cpu s, peak RSS MB, reference s)
    while True:
        wall, cpu, rss = run.child()
        after = reference.seconds()
        samples.append((wall, cpu, rss, (before + after) / 2))
        before = after
        set_up()
        if time.perf_counter() + statistics.median(s[0] + s[3] for s in samples) > deadline:
            break

    def median(column):
        return statistics.median(column(s) for s in samples)

    wall = median(lambda s: s[0])
    metrics = {
        "wall_per_ref": _metric(median(lambda s: s[0] / s[3]), "ratio"),
        "cpu_per_ref": _metric(median(lambda s: s[1] / s[3]), "ratio"),
        "peak_rss_mb": _metric(median(lambda s: s[2]), "MB"),
        "setup_s": _metric(SETUP_REFERENCE_NOMINAL_S * statistics.median(s / r for s, r in setups),
                           "s"),
    }
    raw = {
        "wall_s": _metric(wall, "s"),
        "cpu_s": _metric(median(lambda s: s[1]), "s"),
        "pairs_per_s": _metric(comb(len(run.points), 2) / wall, "pairs/s"),
        "reference_s": _metric(median(lambda s: s[3]), "s"),
        "setup_raw_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "setup_reference_s": _metric(statistics.median(r for _, r in setups), "s"),
    }
    return metrics, raw


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    """Each round makes a traced call of cli.main and then an untraced one;
    the ratio of their times is the tracing overhead."""
    from tracing import PER_LAYER, Tracer

    run.write_input()
    deadline = time.perf_counter() + seconds
    tracer, per_run = Tracer(), []
    while True:
        t0 = time.perf_counter()
        with tracer:
            text, _ = run.in_process(tracer)
        plain = run.in_process()[1]
        metrics = tracer.layer_metrics(tracer.run_id, len(text.encode("utf-8")))
        metrics["trace.overhead_ratio"] = tracer.main_seconds(tracer.run_id) / plain
        per_run.append(metrics)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    tracer.dump(run.stem.with_suffix(".trace.json"))
    varying = [name for name, (unit, _, _) in PER_LAYER.items()
               if unit in ("count", "bits") and len({m[name] for m in per_run}) != 1]
    if varying:
        run.failed += 1
        run.problems.append(f"counts differ between traced calls: {varying}")
    return {name: _metric(statistics.median(m[name] for m in per_run), unit)
            for name, (unit, _, _) in PER_LAYER.items()}, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # end on SIGTERM through SystemExit, so that spawn() ends its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.trace)
    metrics, raw = (per_layer if args.trace else end_to_end)(run, args.seconds)

    for line in sorted(set(run.problems)):
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} n={len(run.points)} "
          f"commands={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / run.attempted:g}")
    width = max(len(k) for k in {**metrics, **raw})
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    for name, m in raw.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}  (raw median, not in the result)")
    if raw:
        print("raw " + json.dumps(raw))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
