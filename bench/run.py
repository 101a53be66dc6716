#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sievecluster CLI.

    python3 bench/run.py --workload sweep|flat|harness|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` of the checkout this
file sits in, without installing it. Each workload is a fixed list of CLI
commands on inputs generated from ``--seed`` (see workloads.py). The load
is a closed loop: one child ``python -m sievecluster.cli`` runs at a time
(started by launcher.py), with numeric libraries held to one thread, and
the list repeats in passes until ``--seconds`` have gone by. An untimed
``--help`` comes first, to fill the page cache and compile bytecode.
Timings are per-command medians over the passes, so a slow moment of the
host moves one sample of one command, not a whole pass.

The host is a small VM on a shared machine whose speed drifts by 10-30%
within seconds, for the program and for a plain Python loop alike, so
that unscaled timings of the same code spread by 20-30% between runs.
Every child's time is therefore scaled to a reference host speed: just
before and just after each child the benchmark times fixed loops of its
own (``HostClock``), and reports ``wall * REF_S / loops``, the time the
command would take on a host where the loops take ``REF_S``. A slower
program moves this as it moves wall time; a slower host does not. The
unscaled medians and the host's slowness are printed alongside.

With ``--trace 0`` the metrics are the end-to-end ones. ``setup_s`` is the
median time of ``--help`` (``--version`` needs installed metadata), timed
once before each pass so its samples spread over the whole run.
``wall_s`` sums the commands' median scaled wall times, ``slowest_cmd_s``
is the largest of those medians, ``peak_rss_mb`` the largest median child
peak RSS from ``os.wait4``, and ``ok_frac`` the share of commands that
exited 0 with correct output. ``setup_s`` is scaled too.

With ``--trace 1`` passes alternate between plain and traced commands (see
tracer.py) and the metrics are the per-layer ones, plus ``proc.cpu_s``
(child CPU time of a plain pass) and ``trace.overhead_s`` (traced minus
plain wall time, each a sum of per-command medians). Counts must repeat
exactly between traced passes.

Every output is checked: against a numpy oracle where there is one (see
checks.py), and byte for byte against the first output of the same
command, traced or not. A provenance line and one line per metric come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
DEADLINE_S = 170.0  # children still running this long into a run are killed
# HostClock's usual reading on the machine the bounds were set on (2-vCPU
# VM, Intel Xeon, Python 3.11); a scaled time is in its seconds
REF_S = 0.016


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    output: Path
    ref: float  # HostClock reading around this child

    @property
    def scaled(self) -> float:
        """Wall time at the reference host speed (see the module docstring)."""
        return self.wall * REF_S / self.ref


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIEVECLUSTER_")}
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


class HostClock:
    """Reads how fast the host runs this process now: the geometric mean
    of the times of a fixed loop of interpreter arithmetic and of a fixed
    walk along a random cycle of list slots, about 15 ms each. Neither
    depends on the program, and between them they slow down both with
    a busy core and with busy caches and memory, as the program's
    commands do. The list lives here, not in launcher.py, so that it does
    not count in the children's peak RSS."""

    SLOTS = 1 << 19
    ARITH_STEPS = 200_000
    WALK_STEPS = 40_000

    def __init__(self):
        order = list(range(self.SLOTS))
        random.Random(0).shuffle(order)
        self.ring = [0] * self.SLOTS
        for a, b in zip(order, order[1:] + order[:1]):
            self.ring[a] = b
        self.slot = 0  # the walk goes on where it stopped, onto cold slots

    def read(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(self.ARITH_STEPS):
            total += i * i
        mid = time.perf_counter()
        ring, slot = self.ring, self.slot
        for _ in range(self.WALK_STEPS):
            slot = ring[slot]
        self.slot = slot
        return math.sqrt((mid - start) * (time.perf_counter() - mid))


class Runner:
    """Hands commands to launcher.py, which runs one child at a time and
    reads its wall time, CPU time and peak RSS; reads the host clock just
    before and just after each."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.clock = HostClock()
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def cli(self, cmd: Command, spans: Path | None = None) -> Child:
        """Runs one command plainly, or under tracer.py when given a spans file."""
        if spans is None:
            argv = [sys.executable, "-m", "sievecluster.cli", *cmd.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cmd.args]
        out = self.work / f"{cmd.name}.out"
        request = {
            "argv": argv,
            "cwd": str(self.work),
            "env": self.env,
            "out": str(out),
            "err": str(self.work / f"{cmd.name}.err"),
            "timeout": max(self.deadline - time.perf_counter(), 0.0),
        }
        before = self.clock.read()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        ref = (before + self.clock.read()) / 2
        return Child(reply["wall"], reply["cpu"], reply["rss_mb"], reply["code"], out, ref)


@dataclass
class Judge:
    """Counts commands and failures; the first passing output of each
    command is the reference every later output must match byte for byte."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict[str, tuple[str, list[str]]] = field(default_factory=dict)

    def judge(self, name: str, child: Child, check) -> None:
        self.attempted += 1
        raw = child.output.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if child.code != 0:
            found = [f"exit code {child.code}"]
        elif name not in self.reference:
            self.reference[name] = (digest, check(raw))
            found = self.reference[name][1]
        elif self.reference[name][0] != digest:
            found = ["output differs from its first run"]
        else:
            found = self.reference[name][1]
        if found:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in found)


def check_json(cmd: Command):
    def check(raw: bytes) -> list[str]:
        try:
            doc = json.loads(raw)
        except ValueError:
            return ["output is not JSON"]
        return cmd.check(doc)

    return check


def check_help(raw: bytes) -> list[str]:
    return [] if raw.startswith(b"Usage:") else ["--help printed no usage"]


HELP = Command("help", ["--help"], check=None)


def time_setup(runner: Runner, judge: Judge) -> Child:
    child = runner.cli(HELP)
    judge.judge(HELP.name, child, check_help)
    return child


@dataclass
class Pass:
    traced: bool
    children: list[Child]
    layers: dict[str, float] | None = None


def run_pass(runner: Runner, judge: Judge, commands: list[Command], traced: bool) -> Pass:
    children = []
    span_files = []
    for cmd in commands:
        spans = runner.work / f"{cmd.name}.spans.json" if traced else None
        child = runner.cli(cmd, spans)
        judge.judge(cmd.name, child, check_json(cmd))
        children.append(child)
        if traced:
            try:
                span_files.append(json.loads(spans.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                judge.problems.append(f"{cmd.name}: traced run wrote no spans")
    layers = tracer.layer_metrics(span_files) if traced else None
    return Pass(traced, children, layers)


def command_medians(passes: list[Pass], attr: str) -> list[float]:
    """Each command's median of ``attr`` over the passes."""
    by_command = zip(*(p.children for p in passes))
    return [statistics.median(getattr(c, attr) for c in runs) for runs in by_command]


def end_to_end(setup: list[Child], passes: list[Pass], judge: Judge) -> dict[str, float]:
    walls = command_medians(passes, "scaled")
    return {
        "setup_s": statistics.median(c.scaled for c in setup),
        "wall_s": sum(walls),
        "slowest_cmd_s": max(walls),
        "peak_rss_mb": max(command_medians(passes, "rss_mb")),
        "ok_frac": (judge.attempted - judge.failed) / judge.attempted,
    }


def per_layer(passes: list[Pass], judge: Judge) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    first = traced[0].layers
    out = {}
    for key, value in first.items():
        if key.endswith("_s"):
            out[key] = statistics.median([p.layers[key] for p in traced])
        else:
            out[key] = value
            if any(p.layers[key] != value for p in traced[1:]):
                judge.problems.append(f"count {key} differs between traced passes")
    out["proc.cpu_s"] = sum(command_medians(plain, "cpu"))
    out["trace.overhead_s"] = (
        sum(command_medians(traced, "wall")) - sum(command_medians(plain, "wall"))
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    begin = time.perf_counter()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        commands = WORKLOADS[name](seed, work)
        judge = Judge()
        kinds = (False, True) if trace else (False,)
        passes: list[Pass] = []
        setup: list[Child] = []
        with Runner(work, begin + DEADLINE_S) as runner:
            time_setup(runner, judge)  # warm-up, checked but not timed
            start = time.perf_counter()
            while True:
                for traced in kinds:
                    if not trace:
                        setup.append(time_setup(runner, judge))
                    passes.append(run_pass(runner, judge, commands, traced))
                now = time.perf_counter()
                # stop before a round that would run past the window
                rounds = len(passes) // len(kinds)
                if rounds >= MIN_PASSES and (now - start) * (rounds + 1) / rounds > seconds:
                    break
                if now - begin >= DEADLINE_S / 2:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = per_layer(passes, judge) if trace else end_to_end(setup, passes, judge)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    samples = {"passes": len(passes), "setup_runs": len(setup)}
    for metric, entry in metrics.items():
        print(f"{name:8s} {metric:45s} {entry['value']:14.6f} {entry['unit']}")
    if not trace:
        host = statistics.median(c.ref for p in passes for c in p.children) / REF_S
        print(f"{name:8s} unscaled: setup_s {statistics.median(c.wall for c in setup):.6f}, "
              f"wall_s {sum(command_medians(passes, 'wall')):.6f}; "
              f"host slowness (HostClock / REF_S) {host:.3f}")
    print(f"{name:8s} samples: {samples}; commands per pass: {len(commands)}")
    for problem in judge.problems:
        print(f"{name:8s} FAILED {problem}")
    return {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }


def provenance() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or None,
        "revision": None,
        "dirty": None,
    }
    try:
        info["click"] = importlib.metadata.version("click")
    except importlib.metadata.PackageNotFoundError:
        info["click"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            try:
                return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
            except OSError:
                return ""

        info["revision"] = git("rev-parse", "HEAD").strip() or None
        info["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sievecluster" / "cli.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
