"""The ladder: end-to-end time and peak RSS of arrfan commands, per rung.

    python3 bench/ladder.py [--root CHECKOUT] [--label LABEL]

Measures the checkout at --root (default: the one holding this script) and
writes bench/BENCH_<label>.json next to this script; the label defaults to
the checkout's short commit hash.  A rung is one command on one input, run
3 times, each time as a fresh `python -m arrfan.cli` process with
stdout to /dev/null and without cached bytecode (PYTHONDONTWRITEBYTECODE=1),
as the benchmark runs its children:

- `verify`, `fan`, `poset`, `embed` and `polytope` on A_3..A_6, B_3..B_5,
  D_4, D_5 and the first and last `ngon:t:i` for t = 3..10;
- `fan`, `embed` and `polytope` on A_7, and `verify` on A_8;
- `roots` and `autos` on the fan files of A_5, A_6 and A_7 (`autos` on
  A_7's takes about 10 s a run);
- `restrict` on the fan files of A_5, A_6 and A_7 and on A_6, each to the
  2-flat spanned by the first two rays of the fan's first cone.
- `parabolic` on A_6 and D_5 at the fan's ray 0 (`--cone 0`).

Each child is started by a small launcher, `python -S`, that times it from
`posix_spawn` to its exit as `os.wait4` reports it, so the time includes the
interpreter's start and end, and the peak RSS is the child's own: a child
inherits the peak of the process it is spawned from, which the launcher
keeps below any arrfan command's.  Per rung the file holds every run's
seconds, their median and spread (max - min), the largest peak RSS and the
exit codes; per file, the Tier-1 suite's wall time, the Python version and
the CPU count.  --only REGEX keeps the rungs whose name matches, and
--no-tier1 skips the suite.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

SHORT_INPUTS = (["A_3", "A_4", "A_5", "A_6", "B_3", "B_4", "B_5", "D_4", "D_5"]
                + ["ngon:3:0"]
                + [f"ngon:{t}:{i}" for t, last in
                   ((4, 1), (5, 4), (6, 13), (7, 41), (8, 131), (9, 428), (10, 1429))
                   for i in (0, last)])
SHORT_COMMANDS = ["verify", "fan", "poset", "embed", "polytope"]
LONG_RUNGS = [("fan", "A_7"), ("embed", "A_7"), ("polytope", "A_7"), ("verify", "A_8")]
FAN_RUNGS = [(cmd, name) for name in ("A_5", "A_6", "A_7") for cmd in ("roots", "autos")]
RESTRICT_RUNGS = [("restrict", "A_5", True), ("restrict", "A_6", True), ("restrict", "A_7", True),
                  ("restrict", "A_6", False)]
PARABOLIC_RUNGS = [("parabolic", "A_6", False), ("parabolic", "D_5", False)]
RUNS = 3

# one child per request line `[argv, stderr path]`; one reply line per child:
# `[seconds, peak RSS in KB, wait status]`
_LAUNCHER = """
import json, os, sys, time
for line in sys.stdin:
    argv, err = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    print(json.dumps([seconds, usage.ru_maxrss, status]), flush=True)
"""


def rungs() -> list[tuple[str, str, bool]]:
    """(command, input name, whether the input is a fan file), in run order."""
    short = [(cmd, name, False) for name in SHORT_INPUTS for cmd in SHORT_COMMANDS]
    return (short + [(c, n, False) for c, n in LONG_RUNGS] + [(c, n, True) for c, n in FAN_RUNGS]
            + RESTRICT_RUNGS + PARABOLIC_RUNGS)


def _input_label(name: str, is_fan: bool) -> str:
    return f"{name} fan file" if is_fan else name


def _arguments(cmd: str, fan_path: Path | None) -> list[str]:
    """The options of a rung's command: a restriction's subspace is spanned by
    the first two rays of the first cone of the input's fan file, and a
    parabolic is taken at ray 0."""
    if cmd == "parabolic":
        return ["--cone", "0"]
    if cmd != "restrict":
        return []
    fan = json.loads(fan_path.read_text())
    return ["--subspace", json.dumps([fan["rays"][i] for i in fan["max_cones"][0][:2]])]


class Launcher:
    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", _LAUNCHER], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], err: Path) -> tuple[float, int, int]:
        """Seconds to exit, peak RSS in KB and exit code of one child."""
        self.proc.stdin.write(json.dumps([argv, str(err)]) + "\n")
        self.proc.stdin.flush()
        seconds, rss_kb, status = json.loads(self.proc.stdout.readline())
        return seconds, rss_kb, os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        self.proc.communicate()  # closes its stdin, so it ends, and its stdout


def _commit(root: Path) -> str:
    return subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def _tier1(root: Path, env: dict[str, str]) -> dict:
    """The Tier-1 suite's wall time and its last line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, capture_output=True, text=True,
        env={**env, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'tests'}"},
    )
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - t0, 1), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def measure(root: Path, only: str | None, tier1: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # the children's stdout is block-buffered, whatever the caller's shell sets
    env.pop("PYTHONUNBUFFERED", None)
    chosen = [(cmd, name, is_fan) for cmd, name, is_fan in rungs()
              if only is None or re.search(only, f"{cmd} {_input_label(name, is_fan)}")]
    launcher = Launcher(env)
    results = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            arrfan = [sys.executable, "-m", "arrfan.cli"]

            def setup(*argv: str) -> None:
                if launcher.run(arrfan + list(argv), work / "setup.err")[2] != 0:
                    raise SystemExit(f"set-up failed: arrfan {' '.join(argv)}")

            files: dict[tuple[str, bool], Path] = {}
            for cmd, name, is_fan in chosen:
                arr = work / f"{name.replace(':', '_')}.json"
                if (name, False) not in files:
                    setup("catalog", name, "--out", str(arr))
                    files[name, False] = arr
                if (is_fan or cmd == "restrict") and (name, True) not in files:
                    files[name, True] = work / f"{name.replace(':', '_')}.fan.json"
                    setup("fan", str(arr), "--out", str(files[name, True]))
            for cmd, name, is_fan in chosen:
                argv = arrfan + [cmd, str(files[name, is_fan])] + _arguments(
                    cmd, files.get((name, True)))
                times, rss, codes = [], [], []
                for _ in range(RUNS):
                    seconds, rss_kb, code = launcher.run(argv, work / "child.err")
                    times.append(round(seconds, 4))
                    rss.append(rss_kb)
                    codes.append(code)
                results.append({
                    "command": cmd,
                    "input": _input_label(name, is_fan),
                    "median_s": round(statistics.median(times), 4),
                    "spread_s": round(max(times) - min(times), 4),
                    "peak_rss_mb": round(max(rss) / 1024, 1),
                    "runs_s": times,
                    "exit": sorted(set(codes)),
                })
                print(f"{cmd:9} {results[-1]['input']:18} {results[-1]['median_s']:8.3f} s"
                      f" {results[-1]['peak_rss_mb']:7.1f} MB", file=sys.stderr)
    finally:
        launcher.close()
    return {
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs_per_rung": RUNS,
        "tier1": _tier1(root, env) if tier1 else None,
        "rungs": results,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, default=HERE.parent, help="the checkout to measure")
    p.add_argument("--label", help="names BENCH_<label>.json; default: the short commit hash")
    p.add_argument("--only", help="keep the rungs whose 'command input' matches this regex")
    p.add_argument("--no-tier1", dest="tier1", action="store_false")
    p.add_argument("--out-dir", type=Path, default=HERE)
    args = p.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "arrfan" / "cli.py").is_file():
        p.error(f"{root} has no src/arrfan/cli.py")
    label = args.label or _commit(root)
    data = {"label": label, **measure(root, args.only, args.tier1)}
    path = args.out_dir / f"BENCH_{label}.json"
    head = json.dumps({k: v for k, v in data.items() if k != "rungs"}, indent=1)
    body = ",\n  ".join(json.dumps(r) for r in data["rungs"])  # one line per rung
    path.write_text(f'{head[:-2]},\n "rungs": [\n  {body}\n ]\n}}\n')
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
