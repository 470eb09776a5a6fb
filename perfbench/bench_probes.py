"""Fresh-process probes: set-up time, cold CLI runs and import times.

Each probe is one child process, timed by the CPU time (user + system) that
``wait4`` reports for it, so it includes interpreter start-up.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import bench_workloads as bw

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
CHILD_TIMEOUT_S = 170.0
HERE = Path(__file__).resolve().parent


class ChildFailed(Exception):
    pass


def child_env(root: Path) -> dict:
    """The environment of every benchmark process: one BLAS/OpenMP thread, the checkout's package."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def exit_on_sigterm():
    """Turn SIGTERM into SystemExit, so ``spawn`` stops the child it is waiting for."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def spawn(cmd: list[str], env: dict, cwd: Path, log: Path) -> tuple[float, int, str]:
    """Run one child to completion; (CPU seconds, peak RSS KiB, output). Raises ChildFailed."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(errors="replace")
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[:4])}... exited {proc.returncode}:\n{text[-2000:]}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss, text


class Probes:
    """Set-up and cold-run probes of one workload, run one at a time in ``work``."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.env = child_env(root)
        self.cold_op = bw.cold_op(workload)
        self.cold_cfg = work / "cold.json"
        self.cold_cfg.write_text(json.dumps(self.cold_op["config"]))
        self.runs = 0

    def setup(self) -> float:
        """CPU of a fresh interpreter importing speclimit and building the op list."""
        self.runs += 1
        cmd = [sys.executable, str(HERE / "bench_loop.py"), "--root", str(self.root), "--workload",
               self.workload, "--seed", str(self.seed), "--work", str(self.work), "--probe"]
        return spawn(cmd, self.env, self.work, self.work / "probe.log")[0]

    def cold(self) -> float:
        """CPU of one fresh `python -m speclimit` on the representative config; output checked."""
        self.runs += 1
        out = self.work / f"cold-{self.runs}"
        cmd = [sys.executable, "-m", "speclimit", self.cold_op["sub"], "--config", str(self.cold_cfg), "--out", str(out)]
        cpu = spawn(cmd, self.env, self.work, self.work / "cold.log")[0]
        try:
            bw.check_cli(self.cold_op, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return cpu


def import_times(root: Path, work: Path, repeats: int) -> tuple[float, float]:
    """Median cumulative `-X importtime` of speclimit (s) and scipy.interpolate's share of it."""
    totals, shares = [], []
    for _ in range(repeats):
        _, _, text = spawn([sys.executable, "-X", "importtime", "-c", "import speclimit"],
                           child_env(root), work, work / "import.log")
        cumulative = {}
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", text):
            cumulative.setdefault(m.group(2), int(m.group(1)))
        totals.append(cumulative["speclimit"] / 1e6)
        shares.append(cumulative.get("scipy.interpolate", 0) / cumulative["speclimit"])
    return statistics.median(totals), statistics.median(shares)
