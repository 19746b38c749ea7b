"""Benchmark for nrq: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and nrq
is always imported from its ``src/``, never from an installed copy.

A run sets up, runs one untimed warm-up round, then repeats whole rounds
of the workload's operations (see workloads.py) for as close to
``--seconds`` as whole rounds allow.  Every operation's output is checked
after it is timed.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  Each operation's
time is its fastest over the run's rounds (see ``best_times``):

* setup_s      spawn of a fresh interpreter until ``import nrq`` returns;
                median of spawns spread through the run (cli-cold: of all
                its commands)
* wall_s       sum of the round's operation times, checks excluded
* op_p50_s     median of the round's operation times
* peak_rss_mb  peak resident memory of the working process (cli-cold: of
                the largest child)

With ``--trace 1`` rounds alternate untraced and traced, and the metrics are
the per-layer ones of spans.LAYER_METRICS, as medians over traced rounds,
net of the wrappers' calibrated cost (recorded as ``wrapper_cost_ns``);
trace.overhead_s is the traced minus the untraced wall_s.
The line before the result is a record: machine, digests of every output,
failures, and the workload's own figures (fail_ratio, op_tail_s, and
iterates_per_s on chaos-density, cycle_yield on cycle-scan).  The same
record, and in traced runs every span, is written under ``.perfbench_out/``.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the operations are single-threaded Python around BLAS
# calls, and on a small shared machine extra BLAS threads mostly add noise.
# Set before numpy is imported here or in any child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_SPAWNS = 6
IMPORTTIME_SPAWNS = 3
CHILD_TIMEOUT_S = 120
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_FIGURES = {"chaos-density": "iterates_per_s", "cycle-scan": "cycle_yield"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


class Runner:
    """Runs one workload's rounds and keeps the counts, timings and digests."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: Path):
        self.workload = workload
        self.cold = workload in workloads.COLD
        self.ops = workloads.build(workload, seed, tiny)
        self.workdir = workdir
        self.env = child_env()
        self.nrq = None
        self.tracer = None
        self.traced = False
        self.state = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.facts = {}
        self.next_op = 0
        self.child_snapshots = []
        self.child_spans = []
        self.setup_samples = []

    # -- ctx interface for workloads.Op ---------------------------------------

    def cli(self, argv, out):
        path = self.workdir / out
        path.unlink(missing_ok=True)
        if self.cold:
            return self._spawn(argv, path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.nrq.cli.main([*argv, "--out", str(path)])
        return workloads.CliResult(rc, stdout.getvalue(), stderr.getvalue(), read_bytes(path))

    def _spawn(self, argv, path):
        record_path = path.with_name(path.name + ".record.json")
        record_path.unlink(missing_ok=True)
        trace = json.dumps(self.tracer.cost) if self.traced else "0"
        command = [sys.executable, str(HERE / "bootstrap.py"), str(record_path), trace,
                   *argv, "--out", str(path)]
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=CHILD_TIMEOUT_S, check=False)
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        extra = {"import_s": record["import_done"] - started} if "import_done" in record else {}
        if self.traced and "stats" in record:
            self.child_snapshots.append(record)
            self.child_spans.append((self.next_op - 1, record.get("spans", [])))
        return workloads.CliResult(proc.returncode, proc.stdout, proc.stderr, read_bytes(path), extra)

    # -- rounds ---------------------------------------------------------------

    def _fail(self, op, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"op": op.kind, "reason": reason[:500]})
        print(f"perfbench: {op.kind} failed: {reason[:500]}", file=sys.stderr)

    def run_round(self, traced: bool) -> dict:
        """One pass over the operations; returns its op times and, when
        traced, its trace totals."""
        self.state = {}
        self.traced = traced
        self.child_snapshots = []
        warm_trace = traced and not self.cold
        if traced:
            self.tracer.calibrate()  # the wrapper cost drifts with the machine's state
        if warm_trace:
            self.tracer.install()
        times = []
        try:
            for index, op in enumerate(self.ops):
                op_id = self.next_op
                self.next_op += 1
                self.attempted += 1
                started = time.perf_counter()
                try:
                    if warm_trace:
                        with self.tracer.op(op_id, op.kind):
                            result = op.work(self)
                    else:
                        result = op.work(self)
                except Exception as exc:  # noqa: BLE001 - an operation failing is counted
                    times.append(time.perf_counter() - started)
                    self._fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                times.append(time.perf_counter() - started)
                if self.cold and "import_s" in result.extra and not traced:
                    self.setup_samples.append(result.extra["import_s"])
                try:
                    facts = op.check(result, self)
                except Exception as exc:  # noqa: BLE001 - a wrong output is counted
                    self._fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                digest = facts.get("sha256")
                if digest is not None and self.digests.setdefault(index, digest) != digest:
                    self._fail(op, "output differs from an earlier round with the same inputs")
                    continue
                self.facts[index] = facts
        finally:
            if warm_trace:
                self.tracer.uninstall()
        out = {"times": times}
        if warm_trace:
            out["snapshot"] = self.tracer.snapshot()
            self.tracer.reset_totals()
        elif traced:
            out["snapshot"] = spans.add_snapshots(self.child_snapshots)
        return out

    def timed_rounds(self, seconds: float, traced_mode: bool, setup_target: int = 0):
        """Rounds while another would bring the round time nearer to
        ``seconds``; in traced mode each step is an untraced round then a
        traced one.  cli-cold's rounds take seconds each, so stopping short
        of ``seconds`` would cost it a third of its samples.

        ``setup_target`` set-up spawns are spread evenly between the rounds,
        outside the round time: import time drifts over seconds on a shared
        machine, and samples taken back to back would all see one phase.
        """
        plain, traced = [], []
        busy = 0.0
        while True:
            step_start = time.perf_counter()
            plain.append(self.run_round(False))
            if traced_mode:
                traced.append(self.run_round(True))
            step = time.perf_counter() - step_start
            busy += step
            done = busy + step / 2 > seconds
            due = setup_target if done else math.ceil(setup_target * busy / seconds)
            while len(self.setup_samples) < due:
                self.setup_samples.append(spawn_import(self.workdir, self.env))
            if done:
                return plain, traced


# ---------------------------------------------------------------------------
# set-up and import timing


def spawn_import(workdir: Path, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until its ``import nrq``
    returned."""
    record = workdir / "setup.json"
    started = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "bootstrap.py"), str(record), "0"],
                   env=env, cwd=workdir, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(record.read_text())["import_done"] - started


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of ``nrq`` and of every scipy import not nested in
    another scipy import, from ``python -X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((int(cumulative), (len(name) - len(name.lstrip())) // 2, name.strip()))
    nrq_us = scipy_us = 0
    for i, (cumulative, level, name) in enumerate(rows):
        if name == "nrq":
            nrq_us = cumulative
        if name.split(".")[0] != "scipy":
            continue
        nested = False
        for _, parent_level, parent in rows[i + 1:]:  # parents print after their children
            if parent_level < level:
                level = parent_level
                if parent.split(".")[0] == "scipy":
                    nested = True
                    break
        if not nested:
            scipy_us += cumulative
    return {"import.nrq_s": nrq_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def import_layers(count: int) -> dict:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nrq, sys; sys.stdout.write(nrq.__file__)"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        if not Path(proc.stdout).resolve().is_relative_to(SRC):
            raise RuntimeError(f"nrq imported from {proc.stdout}, not from {SRC}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# machine record


def machine_record() -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# figures


def tail(values):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten values beyond it
    (nearest rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p,
                    "ops_beyond": n - rank, "ops": n}
    return None


def best_times(rounds: list) -> list:
    """Each operation's fastest time over the run's rounds.

    Rounds repeat identical inputs, so the spread between them is the
    machine's, not the program's: on a shared host the same round runs up
    to twice as slow for seconds at a time.  The fastest time per operation
    is the steadiest estimate of the program's own cost.
    """
    return [min(column) for column in zip(*(r["times"] for r in rounds))]


def workload_figures(runner: Runner, rounds: list, wall: float) -> dict:
    figures = {"fail_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio",
                              "failed": runner.failed, "attempted": runner.attempted}}
    op_tail = tail([t for r in rounds for t in r["times"]])
    if op_tail is not None:
        figures["op_tail_s"] = op_tail
    wanted = WORKLOAD_FIGURES.get(runner.workload)
    if wanted == "iterates_per_s":
        iterates = sum(op.iterates for op in runner.ops)
        figures["iterates_per_s"] = {"value": iterates / wall, "unit": "1/s",
                                     "iterates_per_round": iterates}
    elif wanted == "cycle_yield":
        by_period = {runner.ops[i].kind: (f["found"], f["expected"])
                     for i, f in sorted(runner.facts.items()) if "expected" in f}
        found = sum(f for f, _ in by_period.values())
        expected = sum(e for _, e in by_period.values())
        figures["cycle_yield"] = {"value": found / expected if expected else 0.0, "unit": "ratio",
                                  "found": found, "expected": expected,
                                  "by_period": dict(sorted(by_period.items()))}
    return figures


def measure(args, workdir: Path):
    runner = Runner(args.workload, args.seed, args.tiny, workdir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine_record()}
    metrics = {}
    if args.trace:
        metrics.update(import_layers(1 if args.tiny else IMPORTTIME_SPAWNS))
    else:
        spawn_import(workdir, runner.env)  # compiles and caches nrq's bytecode
    if not runner.cold:
        sys.path.insert(0, str(SRC))
        import nrq
        import nrq.cli  # noqa: F401
        import nrq.measure  # noqa: F401
        import nrq.qops  # noqa: F401

        if not Path(nrq.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"nrq imported from {nrq.__file__}, not from {SRC}")
        runner.nrq = nrq
    # cli-cold's children trace with the wrapper cost calibrated here
    runner.tracer = spans.Tracer() if args.trace else None
    if not runner.cold:
        runner.run_round(False)  # warm-up: caches and lazy set-up, untimed

    setup_target = 0 if args.trace or runner.cold else (1 if args.tiny else SETUP_SPAWNS)
    plain, traced = runner.timed_rounds(args.seconds, bool(args.trace), setup_target)
    best = best_times(plain)
    wall = sum(best)
    record["rounds"] = {"plain": len(plain), "traced": len(traced)}
    record["op_times"] = [r["times"] for r in plain]
    record["setup_times"] = runner.setup_samples
    if args.trace:
        per_round = [spans.layer_values(r["snapshot"]) for r in traced]
        for name in per_round[0]:
            values = [v[name] for v in per_round]
            counts = all(isinstance(x, int) for x in values)
            metrics[name] = (statistics.median_low if counts else statistics.median)(values)
        metrics["trace.overhead_s"] = sum(best_times(traced)) - wall
        absent = set(runner.tracer.absent if runner.tracer else [])
        for r in traced:
            absent.update(r["snapshot"].get("absent", []))
        record["absent"] = sorted(absent)
        record["wrapper_cost_ns"] = [r["snapshot"]["wrapper_cost_ns"] for r in traced]
        units = dict(spans.LAYER_METRICS)
    else:
        who = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
        metrics["setup_s"] = statistics.median(runner.setup_samples)
        metrics["wall_s"] = wall
        metrics["op_p50_s"] = statistics.median(best)
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    record["figures"] = workload_figures(runner, plain + traced, wall)
    record["outputs"] = {f"{i}:{runner.ops[i].kind}": d for i, d in sorted(runner.digests.items())}
    record["failures"] = runner.failures
    write_out(args, record, runner)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def write_out(args, record, runner):
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.record.json").write_text(json.dumps(record, indent=1))
    if not args.trace:
        return
    with open(OUT_DIR / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as fh:
        if runner.tracer is not None:
            runner.tracer.write_spans(fh)
        for op_id, child in runner.child_spans:
            for sid, layer, start, end, parent, _, net in child:
                fh.write(json.dumps({"id": f"{op_id}.{sid}", "name": layer, "start": start,
                                     "end": end, "parent": None if parent is None else f"{op_id}.{parent}",
                                     "op": op_id, "net_s": net}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sizes and spawns, for the self-test smoke pass")
    args = parser.parse_args(argv)
    if not (SRC / "nrq" / "__init__.py").is_file():
        print(f"perfbench: no nrq source tree at {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
