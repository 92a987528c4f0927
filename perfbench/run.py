"""Certification benchmark for the ramcube CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it needs no install, only numpy and
scipy.  Each invocation is ``python -m ramcube.cli <cmd> --config <file>``
with ``PYTHONPATH=src``, one at a time, as a closed loop with one client:
a certificate is a batch job that someone waits for, and OpenBLAS already
uses as many threads as the machine has cores, so overlapping children
would measure contention instead of the program.  The seed only permutes
the order of the invocations within a round.  Rounds repeat while the next
one is expected to end within ``--seconds``; at least one always runs.

Every output is checked against perfbench/references (see check.py) and
repeated rounds of one invocation must write byte-identical report.json.
The robustness probes run once per benchmark run, outside the timed rounds.

A fixed pure-Python reference loop is timed in this process before every
invocation.  The host's speed drifts by tens of percent over minutes, and
the loop slows with it, so ``wall_ref_s`` and ``cpu_ref_s`` scale the
run's median round times by REF_NOMINAL_S / (the run's mean loop time):
seconds at the loop's nominal speed.  The raw times go into the details
line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates an untraced and a traced round (tracer.py) and reports the
per-layer metrics.  The last stdout line is the result object; the line
before it holds the environment, the probe outcomes and every round.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_outputs
from tracer import aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "references"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH / "tracer.py"

# No-work launches per run, half before and half after the timed rounds,
# so that the set-up sample spans the run.
SETUP_LAUNCHES = 8
SETUP_TIMEOUT_S = 10.0
PROBE_TIMEOUT_S = 2.0
INVOCATION_TIMEOUT_S = 120.0
# The reference loop: REF_LOOP_N iterations take REF_NOMINAL_S on an idle
# core of the 2-vCPU Xeon virtual machine the benchmark was tuned on.  The
# constant only fixes the scale of the normalised times.
REF_LOOP_N = 3_000_000
REF_NOMINAL_S = 0.200
# Every run must end within 180 s; no child may outlive this point.
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Invocation:
    command: str
    config_json: str  # canonical JSON of the run configuration
    expected_code: int = 0

    @classmethod
    def of(cls, command, expected_code=0, **config):
        return cls(command, json.dumps(config, sort_keys=True), expected_code)

    @property
    def config(self) -> dict:
        return json.loads(self.config_json)

    @property
    def id(self) -> str:
        cfg = self.config
        name = f"{self.command}_{'-'.join(map(str, cfg['primes']))}_N{cfg['N1']}"
        return name + (f"_k{cfg['k']}" if cfg.get("k") else "")


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "construction": (Invocation.of("build", primes=[13, 37], N1=3),
                     Invocation.of("build", primes=[5, 29], N1=3),
                     Invocation.of("build", primes=[5], N1=17),
                     Invocation.of("girth", primes=[5], N1=19)),
    "certification": (Invocation.of("ramanujan", primes=[5], N1=11, k=2),
                      Invocation.of("ramanujan", primes=[5, 13], N1=7),
                      Invocation.of("report", primes=[5], N1=13),
                      Invocation.of("report", primes=[5, 13], N1="auto", k=2),
                      Invocation.of("cohomology", primes=[17], N1=13)),
}

PROBES = (Invocation.of("build", 3, primes=[7], N1=3),
          Invocation.of("build", 2, primes=[5], N1=5),
          Invocation.of("build", 2, primes=[7], N1="auto"))


def cli_argv(command: str, config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "ramcube.cli", command, "--config", str(config),
            "--out", str(out)]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_time() -> float:
    """Wall time of the fixed reference loop in this process."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Child:
    code: int | None  # None when killed at its timeout
    wall: float
    cpu: float
    rss_mb: float


def launch(argv, timeout: float, log: Path) -> Child:
    """Run one child to completion; wall, CPU and peak RSS come from
    os.wait4.  The child is killed at ``timeout`` seconds."""
    if timeout <= 0:
        return Child(None, 0.0, 0.0, 0.0)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    # Wait without reaping, so the pid cannot be reused while the timer may
    # still fire; then reap with wait4 to collect the child's rusage.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - t0
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return Child(code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


@dataclass
class Round:
    traced: bool
    order: list[str]
    wall: float = 0.0  # the children's wall times, summed
    cpu: float = 0.0
    rss_mb: float = 0.0
    refs: list = field(default_factory=list)       # reference loop times
    children: dict = field(default_factory=dict)   # id -> Child
    problems: dict = field(default_factory=dict)   # id -> [str]
    spans: list = field(default_factory=list)
    output_bytes: int = 0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.run_dir = WORK / workload
        shutil.rmtree(self.run_dir, ignore_errors=True)
        (self.run_dir / "configs").mkdir(parents=True)
        self.first_report: dict[str, bytes] = {}
        self.rounds: list[Round] = []

    def config_path(self, inv: Invocation) -> Path:
        path = self.run_dir / "configs" / f"{inv.id}.json"
        if not path.exists():
            path.write_text(inv.config_json)
        return path

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_times(self, n: int) -> list[float]:
        """Wall times of ``n`` no-work launches: interpreter start plus import."""
        argv = [sys.executable, "-m", "ramcube.cli", "--help"]
        walls = []
        for _ in range(n):
            log = self.run_dir / "setup.log"
            c = launch(argv, SETUP_TIMEOUT_S, log)
            if c.code != 0:
                raise SystemExit(f"`ramcube.cli --help` failed (exit {c.code}); see {log}")
            walls.append(c.wall)
        return walls

    def probes(self) -> list[dict]:
        out = []
        for inv in PROBES:
            argv = cli_argv(inv.command, self.config_path(inv),
                            self.run_dir / "probes" / inv.id)
            c = launch(argv, min(PROBE_TIMEOUT_S, self.remaining()),
                       self.run_dir / f"probe_{inv.id}.log")
            out.append({"config": inv.config, "command": inv.command,
                        "expected_exit": inv.expected_code, "exit": c.code,
                        "timed_out": c.code is None, "wall_s": c.wall,
                        "passed": c.code == inv.expected_code})
        return out

    def run_round(self, traced: bool) -> Round:
        invs = list(self.invocations)
        self.rng.shuffle(invs)
        rnd = Round(traced, [inv.id for inv in invs])
        rdir = self.run_dir / f"round{len(self.rounds)}"
        for inv in invs:
            out = rdir / inv.id
            if traced:
                argv = [sys.executable, str(TRACER), str(self.config_path(inv)),
                        inv.command, str(out), str(rdir / f"{inv.id}.spans.json"), inv.id]
            else:
                argv = cli_argv(inv.command, self.config_path(inv), out)
            out.mkdir(parents=True)
            rnd.refs.append(reference_time())
            rnd.children[inv.id] = launch(argv, min(INVOCATION_TIMEOUT_S, self.remaining()),
                                          rdir / f"{inv.id}.log")
        rnd.wall = sum(c.wall for c in rnd.children.values())
        rnd.cpu = sum(c.cpu for c in rnd.children.values())
        rnd.rss_mb = max(c.rss_mb for c in rnd.children.values())
        for inv in invs:
            rnd.problems[inv.id] = self.check(inv, rdir, rnd)
        self.rounds.append(rnd)
        return rnd

    def check(self, inv: Invocation, rdir: Path, rnd: Round) -> list[str]:
        child = rnd.children[inv.id]
        if child.code is None:
            return ["timed out"]
        out = rdir / inv.id
        problems = check_outputs(out, REFS / inv.id, child.code, inv.expected_code)
        report = out / "report.json"
        if report.exists():
            first = self.first_report.setdefault(inv.id, report.read_bytes())
            if report.read_bytes() != first:
                problems.append("report.json differs from an earlier round of this run")
        if rnd.traced:
            spans_path = rdir / f"{inv.id}.spans.json"
            if not spans_path.exists():
                return problems + ["traced child wrote no spans"]
            payload = json.loads(spans_path.read_text())
            rnd.spans += payload["spans"]
            rnd.output_bytes += payload["output_bytes"]
        return problems

    def more_rounds(self, t_measure: float, per_round: int) -> bool:
        """True when another group of ``per_round`` rounds is expected to
        end within the measured time and before the deadline."""
        if any(any(p) for r in self.rounds for p in r.problems.values()):
            return False
        elapsed = time.perf_counter() - t_measure
        need = elapsed / (len(self.rounds) / per_round)
        return elapsed + need <= self.seconds and need < self.remaining()

    def measure(self, traced: bool):
        """Untraced rounds, or (untraced, traced) pairs when ``traced``."""
        t_measure = time.perf_counter()
        while True:
            self.run_round(False)
            if traced:
                self.run_round(True)
            if not self.more_rounds(t_measure, 2 if traced else 1):
                break


def end_to_end(bench: Bench, setup: list[float]) -> dict[str, float]:
    rounds = bench.rounds
    scale = REF_NOMINAL_S / statistics.mean(t for r in rounds for t in r.refs)
    return {"wall_ref_s": scale * statistics.median(r.wall for r in rounds),
            "cpu_ref_s": scale * statistics.median(r.cpu for r in rounds),
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            "setup_s": statistics.median(setup)}


def per_layer(bench: Bench, names) -> dict[str, float]:
    """Median over (untraced, traced) round pairs of each per-layer value;
    a layer that does not run on the workload reads 0."""
    samples = []
    for plain, traced in zip(bench.rounds[0::2], bench.rounds[1::2]):
        m = aggregate(traced.spans)
        spanned = sum(s["end"] - s["start"] for s in traced.spans if s["parent"] is None)
        builds = m.get("arithmetic.build_complex.calls", 0)
        m.update({
            "trace.wall_s": traced.wall,
            "trace.residual_s": traced.wall - spanned,
            "trace.overhead_s": traced.wall - plain.wall,
            "cli.output_bytes": traced.output_bytes,
            "arithmetic.build_complex.useful_ratio":
                len(bench.invocations) / builds if builds else 0.0,
        })
        samples.append(m)
    return {n: statistics.median(s.get(n, 0.0) for s in samples) for n in names}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": threads, "nproc": len(os.sched_getaffinity(0)),
            "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
            "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramcube" / "cli.py").is_file():
        print(f"no ramcube source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(args.workload, args.seed, args.seconds)
    setup = [] if args.trace else bench.setup_times(SETUP_LAUNCHES // 2)
    probes = bench.probes()
    bench.measure(bool(args.trace))
    if not args.trace:
        setup += bench.setup_times(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)

    if args.trace:
        values = per_layer(bench, [m["name"] for m in metrics_spec])
    else:
        values = end_to_end(bench, setup)
    attempted = sum(len(r.children) for r in bench.rounds)
    failed = sum(1 for r in bench.rounds for p in r.problems.values() if p)
    details = {
        "workload": args.workload, "trace": args.trace,
        "failed_frac": failed / attempted,
        "environment": environment(args.seed),
        "probes": probes, "setup_walls_s": setup,
        "rounds": [{"traced": r.traced, "order": r.order, "wall_s": r.wall,
                    "cpu_s": r.cpu, "peak_rss_mb": r.rss_mb, "reference_s": r.refs,
                    "invocation_wall_s": {k: c.wall for k, c in r.children.items()},
                    "problems": {k: p for k, p in r.problems.items() if p}}
                   for r in bench.rounds],
    }
    (WORK / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(details))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics_spec}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
