#!/usr/bin/env python3
"""The polycodes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a polycodes checkout. NAME is one of
corpus-verify, large-incidence, min-distance, screen-weights, or `all`
for the four in turn. The load is closed-loop with one client: each CLI
job is a fresh `python -m polycodes.cli ...` process with `src` on
PYTHONPATH, and the screen-weights workload is one long-lived API
session in a worker process. Every answer is checked against oracle.py,
which does not use polycodes.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
replays the same jobs, each once untraced and once in a traced worker,
and reports per-layer self times and counts plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object. Reports and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from plan import TAIL_PERCENT, WORKLOADS, Job, Plan, json_path, make_plan

BENCH = Path("perfbench")
WORK = BENCH / "work"
OUT = BENCH / "out"

JOB_TIMEOUT_S = 150
PROBE = {"cmd": "probe"}  # the traced job that calls every layer once
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_NAMES = (
    "constructors.build",
    "polytope.from_json",
    "polytope.faces_of_codim",
    "polytope.fh_vectors",
    "polytope.vertex_neighbors",
    "facecodes.face_code",
    "gf2.is_self_dual",
    "gf2.min_distance",
    "gf2.weight_enumerator",
    "facecodes.find_coloring",
    "facecodes.colorability_report",
    "facecodes.self_duality_report",
    "morse.generic_height",
    "morse.vertex_indices",
    "morse.extract_basis",
    "screen.realizability_screen",
    *(f"verify.run_suite.{s}" for s in ("all", "colorability", "selfdual", "duality", "morse", "screen", "conjecture")),
)

# Counts summed from the workers, reported per round.
EXTRA_COUNTS = (
    ("constructors.build.vertices", "count"),
    ("polytope.faces_of_codim.faces", "count"),
    ("facecodes.face_code.generators", "count"),
    ("facecodes.face_code.rank", "count"),
    ("gf2.min_distance.refused", "count"),
    ("gf2.min_distance.codewords_exhaustive", "count"),
    ("gf2.weight_enumerator.codewords_exhaustive", "count"),
    ("screen.realizability_screen.witnesses", "count"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(dict(EXTRA_COUNTS))
    units["polytope.faces_of_codim.hit_s"] = "s"
    units["facecodes.face_code.rank_ratio"] = "ratio"
    units["cli.residual.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Statistics


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Done:
    wall: float
    rc: int
    out: bytes
    err: bytes
    rss_kb: int


@dataclass
class Record:
    job: Job
    round: int
    wall: float
    rc: int
    rss_kb: int
    out: bytes = b""
    err: bytes = b""
    result: dict | None = None
    trace: dict | None = None
    traced_wall: float | None = None


class Host:
    """Spawns polycodes processes from the checkout root and times them."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # Fixed hashing makes set iteration, and with it the work done, repeat.
        self.env["PYTHONHASHSEED"] = "0"
        self.out_path = root / WORK / "job.out"
        self.err_path = root / WORK / "job.err"

    def spawn(self, argv: list[str]) -> Done:
        """Run one process to completion; wall time is spawn to exit."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Done(wall, proc.returncode, self.out_path.read_bytes(), self.err_path.read_bytes(), usage.ru_maxrss)

    def cli(self, argv: list[str]) -> Done:
        return self.spawn(["-m", "polycodes.cli", *argv])

    def setup_probe(self) -> float:
        done = self.spawn(["-c", "import polycodes.cli"])
        if done.rc != 0:
            raise RuntimeError(f"importing polycodes.cli failed: {done.err.decode(errors='replace')}")
        return done.wall


class ApiSession:
    """One long-lived worker process serving API jobs over pipes."""

    def __init__(self, host: Host, trace: bool) -> None:
        argv = [sys.executable, str(BENCH / "worker.py"), "api"] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=host.env, cwd=host.root,
        )
        self.rss_kb = 0

    def call(self, spec: dict) -> dict:
        self.proc.stdin.write(json.dumps(spec) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"API worker died on {spec}")
        return json.loads(line)

    def close(self) -> int:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        timer = threading.Timer(JOB_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_kb = usage.ru_maxrss
        return self.proc.returncode


# ---------------------------------------------------------------------------
# Checking answers


def check(record: Record) -> list[str]:
    """Problems with one job's answer; a refusal (exit 2) is not a problem."""
    job = record.job
    if b"Traceback" in record.err:
        return [f"traceback: {record.err.decode(errors='replace')[-400:]}"]
    if record.rc == 2 and job.cmd == "mindist":
        return []
    if record.rc != 0:
        return [f"exit code {record.rc}: {record.err.decode(errors='replace')[-300:]}"]
    if job.cmd == "screen":
        results = {(l, d, de): (status, w) for l, d, de, status, w in record.result["results"]}
        return oracle.check_screen_sweep(results)
    if job.cmd == "weights":
        return oracle.check_weights(job.shape, job.k, record.result)
    out = json.loads(record.out)
    if job.cmd == "verify":
        return oracle.check_verify(job.suite, out)
    if job.cmd == "info":
        return oracle.check_info(job.shape, out)
    if job.cmd == "code":
        return oracle.check_code(job.shape, job.k, out)
    if job.cmd == "selfdual":
        return oracle.check_selfdual(job.shape, job.k, out)
    if job.cmd == "morse":
        return oracle.check_morse(job.shape, job.k, job.seed, out)
    if job.cmd == "color":
        return oracle.check_color(job.shape, out)
    if job.cmd == "mindist":
        return oracle.check_mindist(job.shape, job.k, out)
    return [f"no oracle for {job.cmd}"]


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    records: list[Record] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    session_rss_kb: int = 0
    probes: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    load_before: tuple = ()
    load_after: tuple = ()


def rounds_until(run: Run, body, between) -> None:
    """Run whole rounds; start another while it should end near the deadline.

    A round starts when the time used plus half an average round is still
    within the run's seconds, so the measured time stays within half a
    round of the target and every round has the same job mix. `between`
    runs before every round but the first and is not timed.
    """
    start = time.perf_counter()
    r = 0
    while True:
        if r:
            between()
        round_start = time.perf_counter()
        body(r)
        run.round_walls.append(time.perf_counter() - round_start)
        r += 1
        used = time.perf_counter() - start
        if used + statistics.mean(run.round_walls) / 2 > run.seconds:
            return


def run_cli(host: Host, plan: Plan, run: Run) -> None:
    for recipe in plan.json_recipes():
        done = host.cli(["gen", recipe, "-o", json_path(recipe)])
        if done.rc != 0:
            raise RuntimeError(f"gen {recipe!r} failed: {done.err.decode(errors='replace')}")
    host.cli(["info", "cube 3", "--json"])  # compiles bytecode and warms the file cache
    run.setup += [host.setup_probe() for _ in range(SETUP_PROBES_BEFORE)]

    def replay(spec: dict) -> tuple[dict, float]:
        done = host.spawn([str(BENCH / "worker.py"), "replay", json.dumps(spec)])
        if done.rc != 0:
            raise RuntimeError(f"traced replay of {spec} failed: {done.err.decode(errors='replace')[-400:]}")
        return json.loads(done.out), done.wall

    def one_round(r: int) -> None:
        for job in plan.round(r):
            done = host.cli(job.argv())
            rec = Record(job, r, done.wall, done.rc, done.rss_kb, done.out, done.err)
            if run.trace:
                rec.trace, rec.traced_wall = replay(job.spec())
            run.records.append(rec)
        if run.trace:
            run.probes.append(replay(PROBE)[0])

    rounds_until(run, one_round, lambda: run.setup.append(host.setup_probe()))
    run.setup += [host.setup_probe() for _ in range(SETUP_PROBES_AFTER)]


def run_api(host: Host, plan: Plan, run: Run) -> None:
    run.setup += [host.setup_probe() for _ in range(SETUP_PROBES_BEFORE)]
    sessions = [ApiSession(host, trace=False)] + ([ApiSession(host, trace=True)] if run.trace else [])
    try:
        for session in sessions:  # the warm-up round fills the session's caches
            for job in plan.round(-1):
                session.call(job.spec())

        def one_round(r: int) -> None:
            for job in plan.round(r):
                reply = sessions[0].call(job.spec())
                rec = Record(job, r, reply["elapsed"], 0, 0, result=reply["result"])
                if run.trace:
                    traced = sessions[1].call(job.spec())
                    rec.trace, rec.traced_wall = traced["trace"], traced["elapsed"]
                run.records.append(rec)
            if run.trace:
                run.probes.append(sessions[1].call(PROBE)["trace"])

        rounds_until(run, one_round, lambda: run.setup.append(host.setup_probe()))
    finally:
        rcs = [s.close() for s in sessions]
    run.session_rss_kb = sessions[0].rss_kb
    if any(rcs):
        run.problems.append(f"API worker exit codes {rcs}")
    run.setup += [host.setup_probe() for _ in range(SETUP_PROBES_AFTER)]


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    lat = [r.wall for r in run.records]
    n = len(lat)
    p = TAIL_PERCENT[run.workload]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[p - 1]
    beyond = sum(1 for x in lat if x > tail)
    rss = max([r.rss_kb for r in run.records] + [run.session_rss_kb])
    by_round: dict[int, list[Record]] = {}
    for r in run.records:
        by_round.setdefault(r.round, []).append(r)
    per_round_rate = [len(by_round[i]) / w for i, w in enumerate(run.round_walls)]
    per_round_p50 = [statistics.median(x.wall for x in rs) for rs in by_round.values()]
    failed = sum(1 for r in run.records if r.rc == 2)
    values = {
        "jobs_per_s": n / sum(run.round_walls),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": rss / 1024,
    }
    spreads = {
        "jobs_per_s": spread(per_round_rate),
        "job_p50_s": spread(per_round_p50),
        "setup_s": spread(run.setup),
    }
    notes = {
        "jobs_per_s": f"{n} jobs in {len(run.round_walls)} rounds, {sum(run.round_walls):.1f} s",
        "job_p50_s": f"n={n}",
        "job_tail_s": f"p{p}, n={n}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10 beyond)"),
        "setup_s": f"median of {len(run.setup)} fresh `import polycodes.cli`",
        "peak_rss_mb": "largest ru_maxrss of a job process" if not run.session_rss_kb else "ru_maxrss of the API session",
    }
    units = dict(END_TO_END)
    lines = []
    for name, value in values.items():
        s = spreads.get(name)
        tail_txt = f"; spread over repeats {s:.3f}" if s is not None else ""
        lines.append(f"{run.workload:16} {name:12} {value:12.6f} {units[name]:7} ({notes[name]}{tail_txt})")
    lines.append(f"{run.workload:16} {'failed_frac':12} {failed / n:12.6f} {'ratio':7} ({failed} refused or failed of {n})")
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    return metrics, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    rounds = len(run.round_walls)
    self_s = {name: 0.0 for name in SPAN_NAMES}
    calls = {name: 0 for name in SPAN_NAMES}
    spans_out = []

    def add_spans(job_id: int, spans: list) -> float:
        """Accumulate self times; returns the time under top-level spans."""
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent is None:
                top += end - start
            spans_out.append([job_id, name, start, end, parent])
        return top

    counts: dict[str, float] = {}
    residual = 0.0
    setup = statistics.median(run.setup)
    for job_id, rec in enumerate(run.records):
        top = add_spans(job_id, rec.trace["spans"])
        for key, val in rec.trace["counts"].items():
            counts[key] = counts.get(key, 0) + val
        if rec.job.cmd not in ("screen", "weights"):
            residual += rec.wall - setup - top
    # Probe jobs add their spans only; counts describe the workload's jobs.
    for i, probe in enumerate(run.probes):
        add_spans(len(run.records) + i, probe["spans"])
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = self_s[name] / rounds
        metrics[f"{name}.calls"] = calls[name] / rounds
    for name, _ in EXTRA_COUNTS:
        metrics[name] = counts.get(name, 0) / rounds
    hits = counts.get("polytope.faces_of_codim.hit_calls", 0)
    metrics["polytope.faces_of_codim.hit_s"] = counts.get("polytope.faces_of_codim.hit_s", 0) / hits if hits else 0.0
    gens = counts.get("facecodes.face_code.generators", 0)
    metrics["facecodes.face_code.rank_ratio"] = counts.get("facecodes.face_code.rank", 0) / gens if gens else 0.0
    metrics["cli.residual.self_s"] = residual / rounds
    untraced = sum(r.wall for r in run.records)
    metrics["trace.overhead"] = sum(r.traced_wall for r in run.records) / untraced
    units = per_layer_units()
    lines = [
        f"{run.workload:16} {name:48} {value:14.6f} {units[name]}"
        for name, value in metrics.items()
        if value
    ]
    lines.append(f"{run.workload:16} per round of {len(run.records) // rounds} jobs, {rounds} round(s); "
                 f"tracing overhead {metrics['trace.overhead']:.3f} (traced wall / untraced wall)")
    out_path = OUT / f"trace-{run.workload}-seed{run.seed}.json"
    out_path.write_text(json.dumps({"fields": ["job", "name", "start", "end", "parent"], "spans": spans_out,
                                    "jobs": [r.job.label for r in run.records] + ["probe"] * len(run.probes)}))
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, lines


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict, list[str]]:
    host = Host(root)
    plan = make_plan(workload, seed)
    run = Run(workload, seed, seconds, trace)
    run.load_before = os.getloadavg()
    (run_api if plan.api else run_cli)(host, plan, run)
    run.load_after = os.getloadavg()
    for rec in run.records:
        run.problems += [f"{rec.job.label} ({' '.join(rec.job.argv())}): {p}" for p in check(rec)]
    metrics, lines = per_layer(run) if trace else end_to_end(run)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": run.load_before, "loadavg_after": run.load_after,
        "setup_probes_s": run.setup, "round_walls_s": run.round_walls,
        "jobs": [{"label": r.job.label, "argv": r.job.argv(), "round": r.round, "wall_s": r.wall,
                  "traced_wall_s": r.traced_wall, "rc": r.rc, "rss_kb": r.rss_kb} for r in run.records],
        "metrics": metrics, "problems": run.problems,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    head = [
        f"# workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}",
        f"# host: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"loadavg before {' '.join(f'{x:.2f}' for x in run.load_before)}, "
        f"after {' '.join(f'{x:.2f}' for x in run.load_after)}",
    ]
    return run, metrics, head + lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polycodes" / "cli.py").is_file():
        print("error: run from the root of a polycodes checkout (src/polycodes/cli.py not found)", file=sys.stderr)
        return 2
    (root / WORK).mkdir(parents=True, exist_ok=True)
    (root / OUT).mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict = {}
    attempted = failed = 0
    problems = []
    for name in names:
        run, metrics, lines = measure(root, name, args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line, flush=True)
        attempted += len(run.records)
        failed += sum(1 for r in run.records if r.rc == 2)
        problems += run.problems
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: v for k, v in metrics.items()})
    for p in problems:
        print(f"wrong answer: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
