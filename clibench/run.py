"""Benchmark of the arrfan CLI, driven as users drive it.

    python3 clibench/run.py --workload chambers --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Set-up writes the workload's input files
(three times, reporting the median).  Then whole rounds of the workload's
commands run, one child process per command, until --seconds have passed;
every output is checked against values computed by `oracle`.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds).
With --trace 1 each round runs the commands once as child processes and once
in this process with every public arrfan function wrapped in a span, and
the metrics are the per-layer ones; the spans are written to
.clibench_work/<workload>/spans.json.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the benchmark's directory as checked in

from runner import REF_LOOP_S, Runner, SetupError, calibrate, judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(runner: Runner, workload: str, seed: int, repeats: int):
    """Write the inputs `repeats` times from scratch; return the last inputs and the
    time of each set-up's arrfan commands at the reference speed."""
    setup, _ = WORKLOADS[workload]
    times = []
    for _ in range(repeats):
        shutil.rmtree(runner.work, ignore_errors=True)
        runner.work.mkdir(parents=True)
        runner.setup_s = 0.0
        inputs = setup(runner, random.Random(f"{workload}:{seed}:setup"))
        times.append(runner.setup_s)
    return inputs, times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def add(self, op, res) -> None:
        failed, errors = judge(op, res)
        self.attempted += 1
        if failed:
            self.failures.append(
                f"arrfan {' '.join(op.argv)}: exit {res.code}, expected {op.expect}"
            )
        self.errors += errors


def child_round(runner: Runner, ops, tally: Tally) -> dict:
    """One pass as child processes.  large, small and scaled_elapsed are at the
    reference speed; raw_large, raw_small and elapsed are as the clock read them."""
    out = dict.fromkeys(
        ("large", "small", "raw_large", "raw_small", "elapsed", "scaled_elapsed"), 0.0
    )
    rss = 0
    for op in ops:
        res = runner.spawn(op.argv)
        tally.add(op, res)
        part = "large" if op.top else "small"
        out[part] += res.scaled_s
        out["raw_" + part] += res.wall_s
        # the child's own clock also ran while it was stopped
        elapsed = (res.elapsed_s or 0.0) - res.paused_s
        out["elapsed"] += elapsed
        out["scaled_elapsed"] += elapsed * REF_LOOP_S / res.loop_s
        rss = max(rss, res.maxrss_kb)
    out["rss_mb"] = rss / 1024.0
    return out


def traced_round(runner: Runner, ops, tally: Tally, tracer) -> dict:
    import arrfan.cli

    from tracing import layer_metrics

    tracer.clear()
    wall = 0.0  # at the reference speed, timing the loop before and after each call
    loop = calibrate()
    for op in ops:
        tracer.begin_op(" ".join(op.argv).replace(f"{runner.work}/", ""))
        res = runner.in_process(arrfan.cli.main, op.argv)
        tracer.end_op()
        after = calibrate()
        wall += res.wall_s * REF_LOOP_S * 2 / (loop + after)
        loop = after
        tally.add(op, res)
    metrics = layer_metrics(tracer)
    metrics["wall"] = wall
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "arrfan" / "cli.py").is_file():
        print(f"error: {root} has no src/arrfan/cli.py; run from the root of an arrfan checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, root / ".clibench_work" / args.workload)
    try:
        inputs, setup_times = set_up(
            runner, args.workload, args.seed, 1 if args.trace else SETUP_REPEATS
        )
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    tally = Tally()
    _, plan = WORKLOADS[args.workload]
    ops = plan(runner, inputs, random.Random(f"{args.workload}:{args.seed}:plan"), tally.errors)

    rounds, traced = [], []
    tracer = None
    if args.trace:
        sys.path.insert(0, str(root / "src"))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    while True:
        rounds.append(child_round(runner, ops, tally))
        if tracer is not None:
            traced.append(traced_round(runner, ops, tally, tracer))
        if perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.write(runner.work / "spans.json")

    for line in sorted(set(tally.failures)) + tally.errors[:20]:
        print(line, file=sys.stderr)
    for r in rounds:
        print(f"round: large_wall {r['raw_large']:.3f} s, small_wall {r['raw_small']:.3f} s"
              " before scaling", file=sys.stderr)
    if args.trace:
        metrics = {}
        for key in traced[0]:
            if key == "wall":
                continue
            value = statistics.median(t[key] for t in traced)
            metrics[key] = {"value": value, "unit": _unit(key)}
        startup = statistics.median(
            r["raw_large"] + r["raw_small"] - r["elapsed"] for r in rounds
        )
        overhead = statistics.median(
            t["wall"] - r["scaled_elapsed"] for t, r in zip(traced, rounds)
        )
        metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "large_wall_s": {"value": statistics.median(r["large"] for r in rounds), "unit": "s"},
            "small_wall_s": {"value": statistics.median(r["small"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
