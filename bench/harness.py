"""qhakit benchmark: time to verdict of the real CLI, job by job.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog|dense|files --seed N \\
        --seconds S --trace 0|1

Every job is ``python -m qhakit.cli ...`` with ``PYTHONPATH=src``, started
as its own child process in a fresh working directory, with a fixed
``PYTHONHASHSEED`` and ``PYTHONDONTWRITEBYTECODE=1``, one job at a time: a
closed loop with one client, where the next job starts after the previous
verdict.  A pass runs every job of the workload once.  Pass n uses the job
seed ``seed + 1000 n``, so the medians over passes average several random
draws.  After two passes, a new pass starts only if it should end within
``--seconds``.

Workloads (inputs made from the seed; the twists of ``group_z4`` are drawn
by the benchmark, dense, and given to ``qhakit twist --twist``):

- ``catalog``: ``verify <entry> --suite <s>`` for the 5 default entries and
  the 5 suites, at the default trials (25 jobs).
- ``dense``: ``twist group_z4`` by a dense twist, then ``verify`` the
  result with the ``twist`` and ``drinfeld`` suites at one trial.
- ``files``: ``twist group_z4`` and ``twist semion`` to files, ``compute
  v`` and ``compute u`` on them, and ``verify`` of a twisted semion file with
  one coassociator coefficient doubled, which must be refused (exit 2).

End-to-end metrics (``--trace 0``):

- ``wall_s``: median over passes of the time from a pass's first job start
  to its last verdict;
- ``peak_rss_mb``: largest peak RSS of any job child (``os.wait4``);
- ``setup_s``: median of SETUPS set-ups (run directory, a start-up probe
  of the CLI, and the inputs above).

The share of jobs whose verdict differs from the expected one is
``failed / attempted`` in the result line.  A verdict is the exit code, the
failed-check ids and the sha256 of the structured report (or of the output
file, or of the error report on stderr); ``bench/expected.json`` holds it
per recorded seed.  At another seed the exit code, the failed-check ids,
the check count and the ``ok`` flag must match.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run (passes, per-job medians, Python version, nproc, source
digest, and ``bench.calib_s``, the time of a fixed ``Fraction`` loop that
tracks the machine's speed).

``--trace 1`` reports the per-layer metrics of ``bench/layers.json`` from
one untraced and TRACED_PASSES traced passes; see ``trace_report.py``.
``--record SEED ...`` rewrites ``bench/expected.json`` from the current
program.  ``bench/layers.json`` holds the layer -> end-to-end table.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
LAYERS = BENCH / "layers.json"
WORK_DIR = ROOT / ".bench_run"

WORKLOADS = ("catalog", "dense", "files")
DEFAULT_SEED = 0
SETUPS = 5              # set-ups per run; setup_s is their median
TRACED_PASSES = 2       # traced passes per --trace 1 run
PASS_SEED_STRIDE = 1000
MIN_PASSES, MAX_PASSES = 2, 16   # passes per run
RUN_DEADLINE_S = 170.0  # no job may still run this long after the start
JOB_TIMEOUT_S = 120.0

CATALOG_ENTRIES = ("trivial", "group_z3", "z2_triangular", "sweedler_h4", "semion")
SUITES = ("axioms", "twist", "drinfeld", "qtriangular", "dynamical")

# Positive coefficients keep every entry of a generated twist nonzero.
TWIST_POOL = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
              Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))


class BenchError(Exception):
    """The benchmark cannot run here (missing source, failed set-up)."""


# -- inputs the benchmark makes from its seed ---------------------------------

def group_twist(n: int, rng: random.Random) -> dict:
    """A dense counital twist of the group algebra of Z/n, as a twist file.

    F = 1 (x) 1 + sum_{i,j>=1} c_ij (g_i - 1) (x) (g_j - 1) with positive c_ij:
    every entry of F is nonzero, and (eps (x) 1)F = (1 (x) eps)F = 1 because
    eps(g_i - 1) = 0.  F is invertible iff its Fourier transform vanishes at
    no pair of characters; draws too close to zero are redrawn, so no seed
    gives a singular twist.
    """
    roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    while True:
        c = {(i, j): rng.choice(TWIST_POOL) for i in range(1, n) for j in range(1, n)}
        smallest = min(
            abs(1 + sum(v * (roots[(a * i) % n] - 1) * (roots[(b * j) % n] - 1)
                        for (i, j), v in c.items()))
            for a in range(n) for b in range(n))
        if smallest > 1e-6:
            break
    f = {(0, 0): 1 + sum(c.values())}
    for i in range(1, n):
        f[(i, 0)] = -sum(c[(i, j)] for j in range(1, n))
        f[(0, i)] = -sum(c[(j, i)] for j in range(1, n))
    f.update(c)
    return {"twist": [{"i": i, "j": j, "scalar": str(v)} for (i, j), v in sorted(f.items())]}


def corrupt_phi(text: str) -> str:
    """Double the first (nonzero) coefficient of the coassociator."""
    doc = json.loads(text)
    entry = doc["phi"][0]
    if isinstance(entry["scalar"], list):
        entry["scalar"] = [str(2 * Fraction(c)) for c in entry["scalar"]]
    else:
        entry["scalar"] = str(2 * Fraction(entry["scalar"]))
    return json.dumps(doc, indent=2) + "\n"


# -- jobs ---------------------------------------------------------------------

@dataclass
class Job:
    id: str
    argv: list
    output: str | None = None   # digest this file instead of standard output


@dataclass
class Verdict:
    exit: int
    failed: list
    digest: str
    ok: bool | None = None
    checks: int | None = None


@dataclass
class JobResult:
    job: Job
    seconds: float
    rss_kb: int
    cpu_s: float
    verdict: Verdict
    trace: Path | None = None


def build_jobs(workload: str, seed: int, inputs: Path, pass_dir: Path) -> list:
    s = str(seed)
    structured = ["--seed", s, "--format", "structured"]
    twist_file = str(inputs / f"f4-{seed}.json")
    if workload == "catalog":
        return [Job(f"verify:{e}:{suite}", ["verify", e, "--suite", suite] + structured)
                for e in CATALOG_ENTRIES for suite in SUITES]
    if workload == "dense":
        t4 = str(pass_dir / "t4.json")
        return [
            Job("twist:group_z4", ["twist", "group_z4", "--twist", twist_file, "--output", t4],
                output=t4),
            Job("verify:t4:twist", ["verify", t4, "--suite", "twist", "--trials", "1"]
                + structured),
            Job("verify:t4:drinfeld", ["verify", t4, "--suite", "drinfeld", "--trials", "1"]
                + structured),
        ]
    if workload == "files":
        a, b = str(pass_dir / "a.json"), str(pass_dir / "b.json")
        return [
            Job("twist:group_z4", ["twist", "group_z4", "--twist", twist_file, "--output", a],
                output=a),
            Job("compute:a:v", ["compute", a, "v"] + structured),
            Job("twist:semion", ["twist", "semion", "--generate-seed", s, "--output", b],
                output=b),
            Job("compute:b:u", ["compute", b, "u"] + structured),
            Job("verify:corrupt:axioms", ["verify", str(inputs / "corrupt.json"),
                                          "--suite", "axioms"] + structured),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict:
    """Hermetic environment: fixed hashing, no bytecode written into src/."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONIOENCODING": "utf-8"}


def spawn(argv: list, cwd: Path, timeout: float):
    """Run one child to completion; returns (seconds, exit code, peak RSS kB).

    The wait is os.wait4, so the child's peak RSS comes with its exit
    status; a timer signal kills a child that outlives ``timeout``.
    """
    out = open(cwd / "stdout", "wb")
    err = open(cwd / "stderr", "wb")
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        out.close()
        err.close()
    return seconds, proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def read_verdict(job: Job, code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Exit code, failed-check ids, digest, and for reports the ok flag and check count."""
    if job.output is not None:
        path = Path(job.output)
        body = path.read_bytes() if path.exists() else b""
    else:
        body = stdout if code != 2 else stderr   # a refused input is reported on stderr
    failed, ok, checks = [], None, None
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith("  failed check: "):
            failed.append(line[len("  failed check: "):].split(" [", 1)[0])
    if job.output is None and stdout:
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = {}
        if payload.get("command") == "verify":
            ok = payload.get("ok")
            reports = payload.get("suites", [])
            checks = sum(len(r["checks"]) for r in reports)
            failed += [c["id"] for r in reports for c in r["checks"] if not c["ok"]]
        elif payload.get("command") == "compute":
            ok = payload.get("postconditions") is not None
    return Verdict(code, sorted(failed), hashlib.sha256(body).hexdigest(), ok, checks)


def run_job(job: Job, cwd: Path, deadline: float, trace_file: Path | None = None) -> JobResult:
    cwd.mkdir(parents=True)
    if trace_file is None:
        argv = [sys.executable, "-m", "qhakit.cli"] + job.argv
    else:
        argv = [sys.executable, str(BENCH / "trace_boot.py"), str(trace_file),
                job.id] + job.argv
    timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    seconds, code, rss, cpu = spawn(argv, cwd, timeout)
    verdict = read_verdict(job, code, (cwd / "stdout").read_bytes(),
                           (cwd / "stderr").read_bytes())
    return JobResult(job, seconds, rss, cpu, verdict, trace_file)


# -- verdict guard ------------------------------------------------------------

def load_expected() -> dict:
    if not EXPECTED.exists():
        raise BenchError(f"missing {EXPECTED.relative_to(ROOT)}")
    return json.loads(EXPECTED.read_text())


def verdict_matches(expected: dict, seed: int, job_id: str, got: Verdict) -> bool:
    """Exact match at a recorded seed; elsewhere exit code, ok flag and check count."""
    want = expected["jobs"].get(job_id)
    if want is None:
        return False
    recorded = want["seeds"].get(str(seed))
    if recorded is not None:
        return asdict(got) == recorded
    if (got.exit, got.checks, got.failed) != (want["exit"], want["checks"], want["failed"]):
        return False
    return got.ok is not False if want["exit"] == 0 else bool(got.failed)


def guard_selfcheck(expected: dict) -> None:
    """A changed exit code or report digest must count as a failed job."""
    job_id, want = next(iter(expected["jobs"].items()))
    seed, rec = next(iter(want["seeds"].items()))
    good = Verdict(rec["exit"], rec["failed"], rec["digest"], rec["ok"], rec["checks"])
    bad_exit = Verdict(rec["exit"] + 1, rec["failed"], rec["digest"], rec["ok"], rec["checks"])
    bad_digest = Verdict(rec["exit"], rec["failed"], "0" * 64, rec["ok"], rec["checks"])
    if not verdict_matches(expected, int(seed), job_id, good):
        raise BenchError("verdict guard rejects a recorded verdict")
    for bad in (bad_exit, bad_digest):
        if verdict_matches(expected, int(seed), job_id, bad):
            raise BenchError("verdict guard accepts a changed verdict")


# -- set-up, calibration, passes ---------------------------------------------

def calibrate() -> float:
    """A fixed Fraction loop independent of qhakit: tracks the machine's speed."""
    start = time.perf_counter()
    acc, step = Fraction(0), Fraction(1, 3)
    for i in range(1, 40000):
        acc = acc * step + Fraction(i, i + 1)
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 1009, 7)
    return time.perf_counter() - start


def setup(workload: str, seed: int, run_dir: Path, deadline: float) -> Path:
    """Make the run's input directory; returns it.  Everything here is setup_s."""
    inputs = run_dir / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    probe = run_job(Job("probe", ["--help"]), inputs / "probe", deadline)
    if probe.verdict.exit != 0:
        raise BenchError("`python -m qhakit.cli --help` failed; is src/qhakit present?")
    if workload in ("dense", "files"):
        for n in range(MAX_PASSES):
            rng = random.Random(f"{pass_seed(seed, n)}:{workload}")
            twist = group_twist(4, rng)
            (inputs / f"f4-{pass_seed(seed, n)}.json").write_text(json.dumps(twist))
    if workload == "files":
        twisted = inputs / "semion.json"
        made = run_job(Job("setup:twist:semion", ["twist", "semion", "--generate-seed",
                                                  str(seed), "--output", str(twisted)],
                           output=str(twisted)), inputs / "twist", deadline)
        if made.verdict.exit != 0:
            raise BenchError("could not make the twisted semion file")
        (inputs / "corrupt.json").write_text(corrupt_phi(twisted.read_text()))
    return inputs


def pass_seed(seed: int, n: int) -> int:
    """Job seed of pass n: the run's seed, then seeds derived from it.

    Random twists make a job's cost depend strongly on its seed, so each
    pass draws anew and the medians over passes average several draws.
    """
    return seed + PASS_SEED_STRIDE * n


def run_pass(jobs: list, pass_dir: Path, deadline: float, trace_dir: Path | None = None):
    results = []
    for n, job in enumerate(jobs):
        trace_file = None if trace_dir is None else trace_dir / f"{n:02d}.spans"
        results.append(run_job(job, pass_dir / f"job{n:02d}", deadline, trace_file))
    return results


@dataclass
class PassLog:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    job_seconds: dict = field(default_factory=dict)
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    failed_ids: list = field(default_factory=list)

    def add(self, results: list, wall: float, expected: dict, workload: str, seed: int):
        self.walls.append(wall)
        self.cpus.append(sum(r.cpu_s for r in results))
        for r in results:
            self.job_seconds.setdefault(r.job.id, []).append(r.seconds)
            self.peak_rss_kb = max(self.peak_rss_kb, r.rss_kb)
            self.attempted += 1
            if not verdict_matches(expected, seed, f"{workload}/{r.job.id}", r.verdict):
                self.failed += 1
                self.failed_ids.append(r.job.id)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qhakit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(args) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    if not (SRC / "qhakit" / "cli.py").is_file():
        raise BenchError("no src/qhakit/cli.py under the checkout root")
    expected = load_expected()
    guard_selfcheck(expected)

    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inputs = setup(args.workload, args.seed, run_dir, deadline)
            setup_times.append(time.perf_counter() - t0)

        log, calib = PassLog(), []
        if args.trace:
            from trace_report import traced_run  # imports this module
            return traced_run(args, expected, inputs, run_dir, deadline, log, calib,
                              setup_times)
        # two passes at least, then one more only if it should end within --seconds
        measure_start = time.perf_counter()
        n = 0
        while n < MIN_PASSES or (time.perf_counter() - measure_start
                                 + statistics.median(log.walls) <= args.seconds
                                 and n < MAX_PASSES):
            calib.append(calibrate())
            pass_dir = run_dir / f"pass{n}"
            seed = pass_seed(args.seed, n)
            jobs = build_jobs(args.workload, seed, inputs, pass_dir)
            t0 = time.perf_counter()
            results = run_pass(jobs, pass_dir, deadline)
            log.add(results, time.perf_counter() - t0, expected, args.workload, seed)
            shutil.rmtree(pass_dir)
            n += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {
        "wall_s": metric(statistics.median(log.walls), "s"),
        "peak_rss_mb": metric(log.peak_rss_kb / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    print_info(args, log, calib)
    return {"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
            "metrics": metrics}


def print_info(args, log: PassLog, calib: list, **extra) -> None:
    info = {"workload": args.workload, "seed": args.seed, "passes": len(log.walls),
            "pass_walls_s": [round(w, 4) for w in log.walls],
            "pass_cpu_s": [round(c, 4) for c in log.cpus],
            "failed_ratio": f"{log.failed}/{log.attempted}",
            "failed_jobs": log.failed_ids,
            "job_median_s": {job: round(statistics.median(times), 4)
                             for job, times in log.job_seconds.items()},
            "bench.calib_s": statistics.median(calib) if calib else None,
            "pass_calib_s": [round(c, 4) for c in calib],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "source_sha256": source_digest(), **extra}
    print(json.dumps({"info": info}, sort_keys=True))


# -- recording the expected verdicts -----------------------------------------

def record(seeds: list) -> None:
    """Rewrite expected.json: every job's verdict, and the work count, at the given seeds."""
    from trace_report import Totals  # imports this module
    jobs, work = {}, {}
    deadline = time.perf_counter() + 3600 * len(seeds)
    run_dir = WORK_DIR / f"record-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            for seed in seeds:
                base = run_dir / f"{workload}-{seed}"
                inputs = setup(workload, seed, base, deadline)
                results = run_pass(build_jobs(workload, seed, inputs, base / "pass"),
                                   base / "pass", deadline)
                for r in results:
                    v = r.verdict
                    entry = jobs.setdefault(f"{workload}/{r.job.id}",
                                            {"exit": v.exit, "checks": v.checks,
                                             "failed": v.failed, "seeds": {}})
                    if (entry["exit"], entry["checks"], entry["failed"]) != (
                            v.exit, v.checks, v.failed):
                        raise BenchError(f"{r.job.id}: exit code, check count or failed "
                                         f"checks depend on the seed")
                    entry["seeds"][str(seed)] = asdict(v)
                (base / "traced" / "spans").mkdir(parents=True)
                totals = Totals()
                for r in run_pass(build_jobs(workload, seed, inputs, base / "traced"),
                                  base / "traced", deadline, base / "traced" / "spans"):
                    totals.add_file(r.trace)
                pairs = totals.metrics()["tensor.mul.pairs"]
                work.setdefault(workload, {})[str(seed)] = {"tensor.mul.pairs": pairs}
                print(f"{workload} seed {seed}: {sum(r.seconds for r in results):.2f}s, "
                      f"{pairs} product pairs", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    doc = {"default_seed": DEFAULT_SEED, "jobs": jobs, "work": work}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record(args.record)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


