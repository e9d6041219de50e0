"""Running arrfan commands: as child processes (timed) or in this process (traced)."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

_ELAPSED = re.compile(r"^# elapsed_ms=([0-9.]+)$", re.M)


# Nominal time of `calibrate()`: reported times are scaled to the machine speed
# at which the loop takes this long.
REF_LOOP_S = 0.01
# How often the loop is timed while a child runs.
SAMPLE_EVERY_S = 0.2


class SetupError(RuntimeError):
    pass


def calibrate() -> float:
    """Time a fixed Fraction loop here: how fast the machine runs at this moment.

    On a shared machine the same work runs up to twice as slow from one
    minute to the next.  `spawn` times this loop before, during and after
    each child, so that the child's wall time can be scaled to a fixed speed.
    """
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 3001):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


@dataclass
class Op:
    """One CLI invocation, the exit code it must give, and the check of its outputs.

    `check` gets the parsed stdout report (None when there is none) and
    returns a list of error messages.  `top` marks the workload's top rung.
    """

    argv: list[str]
    expect: int
    check: Callable[[dict | None], list[str]] = field(default=lambda report: [])
    top: bool = False


@dataclass
class Result:
    code: int
    stdout: str
    wall_s: float
    elapsed_s: float | None
    maxrss_kb: int = 0
    loop_s: float = REF_LOOP_S  # median time of `calibrate()` around and during the call
    paused_s: float = 0.0  # time the child was stopped for `calibrate()`, not in wall_s

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed."""
        return self.wall_s * REF_LOOP_S / self.loop_s


class Runner:
    def __init__(self, root: Path, work: Path):
        self.work = work
        self.setup_s = 0.0  # set-up commands' wall time at the reference speed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def path(self, name: str) -> str:
        return str(self.work / name)

    def spawn(self, argv: list[str]) -> Result:
        """Run `arrfan argv` as a child; wall time and peak RSS are that child's own.

        Every SAMPLE_EVERY_S seconds the child is stopped while this process
        times `calibrate()`, so the loop sees the machine as the child does,
        without competing with it; the stopped time is left out of wall_s.
        """
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        status = usage = None
        paused = 0.0
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            loops = [calibrate()]
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "arrfan.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=self.work,
            )
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SAMPLE_EVERY_S)[0]:
                    stop = perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break  # it exited before the stop took effect
                    status = None
                    loops.append(calibrate())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += perf_counter() - stop
            except BaseException:
                if status is None:  # never leave a stopped or running child behind
                    proc.kill()
                    os.wait4(proc.pid, 0)
                raise
            finally:
                os.close(exited)
            wall = perf_counter() - t0 - paused
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            loops.append(calibrate())
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        m = _ELAPSED.search(stderr)
        return Result(
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            wall_s=wall,
            elapsed_s=float(m.group(1)) / 1000.0 if m else None,
            maxrss_kb=usage.ru_maxrss,
            loop_s=statistics.median(loops),
            paused_s=paused,
        )

    def setup_call(self, argv: list[str]) -> None:
        """Run a set-up command that must succeed, adding its time to `setup_s`."""
        res = self.spawn(argv)
        if res.code != 0:
            raise SetupError(f"set-up command arrfan {' '.join(argv)} exited {res.code}")
        self.setup_s += res.scaled_s

    def in_process(self, main, argv: list[str]) -> Result:
        """Call the CLI's main() here, as the child would, capturing its streams."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # an uncaught exception ends the real process with 1
                code = 1
        return Result(code=code, stdout=out.getvalue(), wall_s=perf_counter() - t0,
                      elapsed_s=None)


def report_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def judge(op: Op, res: Result) -> tuple[bool, list[str]]:
    """(failed, check errors): a wrong exit code fails the operation; outputs are checked otherwise."""
    if res.code != op.expect:
        return True, []
    try:
        errors = op.check(report_of(res.stdout))
    except Exception as e:  # a malformed output file is a wrong answer, not a benchmark crash
        errors = [f"output unreadable: {e!r}"]
    return False, [f"arrfan {' '.join(op.argv)}: {e}" for e in errors]
