"""End-to-end and per-layer benchmark of the gausscollide command line.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-long --seed 1 --seconds 20 --trace 0

--trace 0 runs `python -m gausscollide.cli ...` as child processes, one at
a time, for --seconds and reports the end-to-end metrics (medians over the
children).  --trace 1 runs one untraced child, then one traced in-process
run (perfbench/inproc.py) that times the public calls of each layer on the
same inputs, and reports the per-layer metrics.  Every child's
stdout passes the correctness gate of its workload; a run with any failure
prints "correct": false and exits 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it list every metric with
its unit and sample count.  The argv, stdout digests, samples and machine
details of each run are written to perfbench/out/.

This process never imports numpy or the package.  Linux copies a process's
peak RSS into the child's ru_maxrss when the child execs, so a large parent
would inflate every child's peak_rss_mb.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("evolve-long", "scan-grid", "transport-chain")
CHILD_TIMEOUT_S = 120.0
SETUP_REPEATS = 7
MIN_RUNS = 3
ORACLE_ROWS = 101  # evolve rows j = 0 .. 100 are cross-checked against the oracle
ORACLE_TOL = 1e-8

EVOLVE_HEADER = [
    "j", "re_c22", "im_c22", "abs_c22_sq", "g_s_to_an", "g_an_to_s",
    "nu_set_min", "nu_set_max", "ratio", "skip_flag",
]
SCAN_HEADER = ["r1", "r2", "n_gs_s_to_an", "n_gs_an_to_s", "n_cptp"]

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}


@dataclass(frozen=True)
class Work:
    """One generated workload: the CLI argv and what a correct output holds."""

    name: str
    params: dict
    cli_args: tuple  # arguments after `python -m gausscollide.cli`
    steps: int  # chain steps one CLI run delivers


def _num(x: float) -> str:
    return repr(float(x))


def gen_params(name: str, seed: int) -> dict:
    """Seeded physical parameters of a workload; the same seed gives the same dict."""
    rng = random.Random(f"{name}:{seed}")

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    if name == "scan-grid":
        o1, o2 = u(0.0, 0.08), u(0.0, 0.08)
        # The r2 = 1 column is the Markovian line, whose cells read exactly 0.
        return {
            "grid_r1": [round(0.1 + o1 + 0.08 * i, 6) for i in range(10)],
            "grid_r2": [round(0.1 + o2 + 0.09 * i, 6) for i in range(9)] + [1.0],
            "phi": u(0.3, 3.0), "xi": u(0.5, 2.0), "env": "thermal", "n": u(0.1, 1.0),
            "L": 250,
        }
    if name not in ("evolve-long", "transport-chain"):
        raise ValueError(f"unknown workload {name!r}")
    params = {
        "r1": u(0.1, 0.9), "r2": u(0.1, 0.9), "phi": u(0.3, 3.0), "xi": u(0.5, 2.0),
        "env": "squeezed-thermal", "n": u(0.1, 1.0), "zeta": u(0.1, 0.8),
        "phi_env": u(0.0, 6.28),
        "L": 4000 if name == "evolve-long" else 1000,
    }
    if name == "transport-chain":
        L = params["L"]
        params["modes"] = [rng.randint(1, 4), L // 2 + rng.randint(-10, 10), L + 1]
    return params


def _env_flags(p: dict) -> list:
    flags = ["--phi", _num(p["phi"]), "--xi", _num(p["xi"]), "--env", p["env"], "--n", _num(p["n"])]
    if "zeta" in p:
        flags += ["--zeta", _num(p["zeta"]), "--phi-env", _num(p["phi_env"])]
    return flags + ["--L", str(p["L"])]


def evolve_args(p: dict) -> tuple:
    return ("evolve", "--r1", _num(p["r1"]), "--r2", _num(p["r2"]), *_env_flags(p))


def build_work(name: str, p: dict) -> Work:
    L = p["L"]
    if name == "evolve-long":
        return Work(name, p, evolve_args(p), L + 1)
    if name == "scan-grid":
        args = (
            "scan", "--grid-r1", ",".join(map(_num, p["grid_r1"])),
            "--grid-r2", ",".join(map(_num, p["grid_r2"])), "--jobs", "1", *_env_flags(p),
        )
        return Work(name, p, args, len(p["grid_r1"]) * len(p["grid_r2"]) * (L + 1))
    args = ("transport", *evolve_args(p)[1:], "--modes", ",".join(map(str, p["modes"])))
    return Work(name, p, args, L + 1)


def make_work(name: str, seed: int) -> Work:
    return build_work(name, gen_params(name, seed))


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("GAUSSCOLLIDE_JOBS", "PYTHONPATH")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass(frozen=True)
class ChildResult:
    code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(args, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run `python <args>` from the repository root and wait for it.

    CPU time and peak RSS come from the os.wait4 rusage of this child
    alone; getrusage(RUSAGE_CHILDREN) would report a running maximum over
    every child so far.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["reaped"] = True
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: leave no child behind
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        out.seek(0)
        err.seek(0)
        return ChildResult(
            code=proc.returncode, timed_out=state["killed"], wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(), stderr=err.read(),
        )


def cli_child(args) -> ChildResult:
    return run_child(["-m", "gausscollide.cli", *args])


def inproc_child(role: str, payload: dict) -> ChildResult:
    return run_child([os.path.join(BENCH_DIR, "inproc.py"), role, json.dumps(payload)])


def child_problem(res: ChildResult) -> str | None:
    if res.timed_out:
        return "timed out"
    if res.code != 0:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {res.code}: {' '.join(tail)}"
    return None


def last_json_line(res: ChildResult) -> dict:
    return json.loads(res.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------- correctness gate


def _parse_csv(text: str, header: list) -> tuple[list, list]:
    problems = []
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0].split(",") != header:
        return [f"header is not {','.join(header)}"], []
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i} has {len(row)} fields")
            continue
        for field in row:
            if field == "":
                continue
            try:
                value = float(field)
            except ValueError:
                problems.append(f"row {i}: field {field!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"row {i}: non-finite value {field}")
    return problems, rows


def _check_evolve(work: Work, rows: list, ref) -> list:
    problems = []
    if len(rows) != work.params["L"] + 1:
        problems.append(f"{len(rows)} rows, expected {work.params['L'] + 1}")
    for i, row in enumerate(rows):
        j, re_c, im_c, csq, g_san, g_ans, nu_min, nu_max, _ratio, skip = row
        if j != str(i):
            problems.append(f"row {i}: j = {j}")
        if not 0.0 <= float(csq) <= 1.0:
            problems.append(f"row {i}: abs_c22_sq = {csq} outside [0, 1]")
        if float(g_san) < 0.0 or float(g_ans) < 0.0:
            problems.append(f"row {i}: negative steering {g_san}, {g_ans}")
        if (i == 0 or skip == "1") != (nu_min == "" and nu_max == ""):
            problems.append(f"row {i}: divisibility fields do not match skip_flag {skip}")
        elif nu_min and float(nu_min) > float(nu_max):
            problems.append(f"row {i}: nu_set_min {nu_min} > nu_set_max {nu_max}")
    for ref_row, row in zip(ref or [], rows):
        dev = max(abs(float(row[c]) - ref_row[c]) for c in range(1, 6))
        if dev > ORACLE_TOL:
            problems.append(f"row {row[0]}: deviates from the symplectic oracle by {dev:.3g}")
    return problems


def _check_scan(work: Work, rows: list, _ref) -> list:
    cells = [(r1, r2) for r1 in work.params["grid_r1"] for r2 in work.params["grid_r2"]]
    problems = []
    if len(rows) != len(cells):
        problems.append(f"{len(rows)} rows, expected {len(cells)}")
    for i, (row, (r1, r2)) in enumerate(zip(rows, cells)):
        if abs(float(row[0]) - r1) > 1e-12 or abs(float(row[1]) - r2) > 1e-12:
            problems.append(f"row {i}: grid point {row[0]},{row[1]}, expected {r1},{r2}")
        if any(float(v) < 0.0 for v in row[2:]):
            problems.append(f"row {i}: negative measure in {','.join(row[2:])}")
        if r2 == 1.0 and row[2:] != ["0", "0", "0"]:
            problems.append(f"row {i}: r2 = 1 is Markovian but reads {','.join(row[2:])}")
    return problems


def _check_transport(work: Work, rows: list, ref) -> list:
    L, modes = work.params["L"], work.params["modes"]
    problems = []
    if len(rows) != L + 1:
        problems.append(f"{len(rows)} rows, expected {L + 1}")
    for i, row in enumerate(rows):
        if row[0] != str(i):
            problems.append(f"row {i}: j = {row[0]}")
        if any(float(v) < 0.0 for v in row[1:]):
            problems.append(f"row {i}: negative steering")
        for k, value in zip(modes, row[2:]):
            # E_k first meets the system in round k - 1.
            if i < k - 1 and value != "0":
                problems.append(f"row {i}: E_{k} is untouched but steers the ancilla ({value})")
    if ref is not None and [row[1] for row in rows] != ref:
        problems.append("g_s_to_an differs from evolve's g_s_to_an column")
    return problems


def check_output(work: Work, stdout: bytes, ref=None) -> list:
    """Problems found in one CLI stdout; an empty list means it passed.

    ref is the workload's reference: oracle rows for evolve-long, evolve's
    g_s_to_an column for transport-chain, unused for scan-grid.
    """
    try:
        text = stdout.decode("ascii")
    except UnicodeDecodeError:
        return ["output is not ASCII"]
    if work.name == "evolve-long":
        header, check = EVOLVE_HEADER, _check_evolve
    elif work.name == "scan-grid":
        header, check = SCAN_HEADER, _check_scan
    else:
        header = ["j", "g_s_to_an"] + [f"g_e{k}_to_an" for k in work.params["modes"]]
        check = _check_transport
    problems, rows = _parse_csv(text, header)
    if problems:
        return problems
    try:
        return check(work, rows, ref)
    except ValueError as exc:  # an empty field where a number belongs
        return [f"malformed output: {exc}"]


def reference(work: Work):
    """(reference for check_output, problem or None), computed by one child."""
    if work.name == "evolve-long":
        n_rows = min(ORACLE_ROWS, work.params["L"] + 1)
        res = inproc_child("oracle", {"params": work.params, "rows": n_rows})
        problem = child_problem(res)
        return (None, problem) if problem else (last_json_line(res)["rows"], None)
    if work.name == "transport-chain":
        res = cli_child(evolve_args(work.params))
        problem = child_problem(res)
        if problem:
            return None, f"evolve reference: {problem}"
        lines = res.stdout.decode().split("\n")[1:-1]
        return [line.split(",")[4] for line in lines], None
    return None, None


# ---------------------------------------------------------------- measurement


class Ledger:
    """Attempts, failures and the problems behind them."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems[:5])}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)


def measure_setup(work: Work) -> list:
    """Wall times of `<subcommand> --help`: interpreter start, imports, parser build."""
    args = (work.cli_args[0], "--help")
    samples = []
    for i in range(SETUP_REPEATS + 1):
        res = cli_child(args)
        problem = child_problem(res)
        if problem:
            raise SystemExit(f"perfbench: `gausscollide.cli {' '.join(args)}` failed: {problem}")
        if i:  # the first run compiles bytecode and fills the page cache
            samples.append(res.wall_s)
    return samples


def measure_cli(work: Work, ref, seconds: float, min_runs: int, ledger: Ledger) -> dict:
    """Run the workload's CLI child until `seconds` pass and min_runs were made."""
    samples = {"wall_s": [], "cpu_s": [], "steps_per_s": [], "peak_rss_mb": []}
    digests = []
    deadline = time.perf_counter() + seconds
    while len(digests) < min_runs or time.perf_counter() < deadline:
        res = cli_child(work.cli_args)
        digest = hashlib.sha256(res.stdout).hexdigest()
        problem = child_problem(res)
        problems = [problem] if problem else check_output(work, res.stdout, ref)
        if digests and digest != digests[0]:
            problems.append("stdout differs from the first run's")
        digests.append(digest)
        if ledger.record(f"run {len(digests)}", problems):
            samples["wall_s"].append(res.wall_s)
            samples["cpu_s"].append(res.cpu_s)
            samples["steps_per_s"].append(work.steps / res.wall_s)
            samples["peak_rss_mb"].append(res.peak_rss_mb)
    return {"samples": samples, "digests": digests}


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_info(ledger: Ledger) -> dict:
    info = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
    res = inproc_child("info", {})
    problem = child_problem(res)
    if ledger.record("machine info", [problem]):
        info.update(last_json_line(res))
    return info


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    start = time.perf_counter()
    work = make_work(workload, seed)
    ledger = Ledger()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "argv": ["python", "-m", "gausscollide.cli", *work.cli_args]}
    record["machine"] = machine_info(ledger)
    setup = measure_setup(work)
    ref, problem = reference(work)
    ledger.record("reference", [problem])
    # A traced run gates one untraced child and compares the traced output with it.
    cli = measure_cli(work, ref, 0 if trace else seconds, 1 if trace else MIN_RUNS, ledger)
    samples = cli["samples"]
    samples["setup_s"] = setup
    record.update(samples=samples, stdout_sha256=cli["digests"])
    metrics = {}
    if trace:
        remaining = max(1.0, seconds - (time.perf_counter() - start))
        metrics = traced_metrics(work, remaining, ledger, record)
    elif samples["wall_s"]:
        metrics = {
            name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
            for name, values in samples.items()
        }
    record["problems"] = ledger.problems
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record["result"] = result
    return result, record


def traced_metrics(work: Work, seconds: float, ledger: Ledger, record) -> dict:
    res = inproc_child("trace", {
        "workload": work.name, "params": work.params, "cli_args": list(work.cli_args),
        "seconds": seconds, "spans_file": os.path.join(OUT_DIR, f"spans-{work.name}.json"),
    })
    problem = child_problem(res)
    if not ledger.record("traced run", [problem]):
        return {}
    out = last_json_line(res)
    if out["stdout_sha256"] != record["stdout_sha256"][0]:
        ledger.problems.append("traced run: stdout differs from the untraced runs'")
    record["traced_run"] = {k: v for k, v in out.items() if k != "metrics"}
    return out["metrics"]


def print_report(result: dict, record: dict) -> None:
    samples = record["samples"]
    print(f"perfbench {record['workload']} seed {record['seed']} "
          f"(trace {record['trace']}): {result['attempted']} attempted, {result['failed']} failed")
    for name, m in sorted(result["metrics"].items()):
        n = len(samples.get(name, ()))
        count = f"  (median of {n})" if n else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{count}")
    print(f"  {'error_rate':48s} {result['failed'] / result['attempted']:.6g} 1"
          f"  ({result['failed']} of {result['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "gausscollide", "cli.py")):
        print(f"perfbench: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_report(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
