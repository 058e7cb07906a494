"""In-process helpers of perfbench/run.py, each run as a child process.

    python3 perfbench/inproc.py info '{}'
    python3 perfbench/inproc.py oracle '{"params": {...}, "rows": 101}'
    python3 perfbench/inproc.py trace '{"workload": ..., "params": {...},
                                       "cli_args": [...], "seconds": 15, "spans_file": ...}'

info reports the numpy and BLAS builds.  oracle computes the first evolve
rows by full-chain symplectic propagation, independently of the closed
form and of the steering module.  trace times the public calls of each
layer from outside: it runs the CLI in-process, once plain and once with
its layer calls wrapped in spans, then calls each layer's public functions
directly on the workload's configuration, and repeats until the time is up.  Each role prints one
JSON object as its last line of stdout; trace also writes its spans to a
file.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import gausscollide  # noqa: E402
from gausscollide import cli, divisibility, engine, steering  # noqa: E402
from gausscollide.engine import SimulationConfig  # noqa: E402
from gausscollide.errors import DegenerateCovarianceError  # noqa: E402
from gausscollide.states import EnvironmentSpec, JointSpec  # noqa: E402
from gausscollide.steering import Direction  # noqa: E402

ORACLE_MAX_L = 1000  # the full-chain covariance costs 32 (L + 3)^2 bytes
GENERATOR = object()  # marks iter_steps, traced with one span per yielded step

# Names the CLI looks up at call time, and the span each call records.
CLI_LAYERS = [
    (cli, "run", "engine.run"),
    (cli, "iter_steps", GENERATOR),
    (engine, "iter_steps", GENERATOR),
    (cli, "joint_cm_closed_form", "engine.joint_cm_closed_form"),
    (cli, "env_ancilla_cm", "engine.env_ancilla_cm"),
    (cli, "steering_series", "steering.steering_series"),
    (cli, "steerability", "steering.steerability"),
    (cli, "nm_from_steering", "steering.nm_from_steering"),
    (cli, "divisibility_records", "divisibility.divisibility_records"),
    (cli, "nm_cptp", "divisibility.nm_cptp"),
    (cli, "emit", "cli.emit"),
    (cli, "_scan_cell", "scan.cell"),
]

COUNTS = ("steering.zero_clamped", "steering.degenerate", "divisibility.skipped_steps")


def _count_series(counts, args, result, attrs):
    attrs["n"] = len(result)
    counts["steering.zero_clamped"] += int(np.count_nonzero(result == 0.0))


def _count_steerability(counts, args, result, attrs):
    counts["steering.zero_clamped"] += result == 0.0


def _count_records(counts, args, result, attrs):
    attrs["n"] = len(result)
    counts["divisibility.skipped_steps"] += sum(rec.skipped for rec in result)


def _count_nm_cptp(counts, args, result, attrs):
    attrs["n"] = args[0].config.L
    counts["divisibility.skipped_steps"] += len(result.skipped_steps)


def _count_rows(counts, args, result, attrs):
    attrs["n"] = len(args[1])


# Per span name: what a call did, and the numerical near-misses it returned.
RESULT_HOOKS = {
    "steering.steering_series": _count_series,
    "steering.steerability": _count_steerability,
    "divisibility.divisibility_records": _count_records,
    "divisibility.nm_cptp": _count_nm_cptp,
    "cli.emit": _count_rows,
}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counting = False

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, {}])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except DegenerateCovarianceError:
                if name.startswith("steering."):
                    self.counts["steering.degenerate"] += self.counting
                raise
            finally:
                self.end(idx)
            if hook is not None:
                hook(self.counts if self.counting else defaultdict(int), args, result,
                     self.spans[idx][4])
            return result

        return traced

    def wrap_steps(self, fn):
        def traced(config):
            name = "engine.oracle" if config.oracle_enabled else "engine.iter_steps"
            steps = fn(config)
            while True:
                idx = self.begin(name)
                try:
                    item = next(steps, None)
                finally:
                    self.end(idx)
                if item is None:
                    self.spans.pop()
                    return
                yield item

        return traced

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    @contextlib.contextmanager
    def patched(self, layers):
        saved = []
        try:
            for module, attr, name in layers:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap_steps(fn) if name is GENERATOR else self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def duration(self, idx: int) -> int:
        return self.spans[idx][2] - self.spans[idx][1]


def config_of(workload: str, p: dict) -> SimulationConfig:
    """The workload's configuration; for scan-grid, one cell in the middle of the grid."""
    env = EnvironmentSpec(n=p["n"], zeta=p.get("zeta", 0.0), phi_env=p.get("phi_env", 0.0))
    if workload == "scan-grid":
        r1, r2 = p["grid_r1"][len(p["grid_r1"]) // 2], p["grid_r2"][len(p["grid_r2"]) // 2]
    else:
        r1, r2 = p["r1"], p["r2"]
    return SimulationConfig(
        r1=r1, r2=r2, phi_shift=p["phi"], joint=JointSpec(xi=p["xi"]), env=env, L=p["L"]
    )


def _steering(cm: np.ndarray, steering_block: slice) -> float:
    det_sigma = np.linalg.det(cm)
    return max(0.0, 0.5 * math.log(np.linalg.det(cm[steering_block, steering_block]) / det_sigma))


def oracle(payload: dict) -> dict:
    """Evolve rows j, re_c22, im_c22, abs_c22_sq, g_s_to_an, g_an_to_s from
    the full-chain covariance.  Rows at step j do not depend on L."""
    n_rows = payload["rows"]
    config = replace(config_of("evolve-long", payload["params"]), L=n_rows - 1, oracle_enabled=True)
    sh = math.sinh(config.joint.xi)
    sigma0 = engine.initial_full_cm(config)
    rows = []
    for j, _coeffs, sigma in engine.iter_steps(config):
        if j == 0 and not np.array_equal(sigma, sigma0):
            raise RuntimeError("iter_steps does not start from initial_full_cm")
        cm = gausscollide.reduce_to_modes(sigma, [0, 1])
        # V_J = sinh(xi) [[Re c*, Im c*], [Im c*, -Re c*]]
        re_c, im_c = cm[0, 2] / sh, -cm[0, 3] / sh
        rows.append([j, re_c, im_c, re_c * re_c + im_c * im_c,
                     _steering(cm, slice(2, 4)), _steering(cm, slice(0, 2))])
    return {"rows": rows}


def info(_payload: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gausscollide": gausscollide.__version__,
    }


def _plain_cli(cli_args) -> tuple[str, int]:
    """(stdout, ns) of the CLI called in-process without tracing."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        code = cli.main(list(cli_args))
        elapsed = time.perf_counter_ns() - start
    if code != 0:
        raise RuntimeError(f"in-process CLI exited with {code}")
    return buf.getvalue(), elapsed


def _traced_cli(tracer: Tracer, cli_args) -> tuple[str, int, int]:
    """(stdout, CLI span ns, CLI self ns: the part no layer span covers)."""
    buf = io.StringIO()
    tracer.counting = True
    try:
        with tracer.patched(CLI_LAYERS), contextlib.redirect_stdout(buf):
            root = tracer.begin("cli.main")
            try:
                code = cli.main(list(cli_args))
            finally:
                tracer.end(root)
    finally:
        tracer.counting = False
    if code != 0:
        raise RuntimeError(f"in-process CLI exited with {code}")
    layer_ns = sum(
        tracer.duration(i) for i in range(root + 1, len(tracer.spans)) if tracer.spans[i][3] == root
    )
    return buf.getvalue(), tracer.duration(root), tracer.duration(root) - layer_ns


def _probe(tracer: Tracer, config: SimulationConfig, modes) -> None:
    """Direct calls of each layer's public functions on one configuration."""
    quarter = replace(config, L=max(1, config.L // 4))
    for cfg, name in ((config, "probe.iter_steps.L"), (quarter, "probe.iter_steps.L4")):
        idx = tracer.begin(name)
        for _ in engine.iter_steps(cfg):
            pass
        tracer.end(idx)

    with tracer.patched([(engine, "iter_steps", GENERATOR)]):
        cell = tracer.begin("probe.cell")
        traj = tracer.call("engine.run", engine.run, config)
        for direction in (Direction.B_TO_A, Direction.A_TO_B):
            series = tracer.call("steering.steering_series", steering.steering_series, traj, direction)
            tracer.call("steering.nm_from_steering", steering.nm_from_steering, series)
        tracer.call("divisibility.nm_cptp", divisibility.nm_cptp, traj)
        tracer.end(cell)
    tracer.call("divisibility.divisibility_records", divisibility.divisibility_records, traj)
    joint_cm = tracer.wrap("engine.joint_cm_closed_form", engine.joint_cm_closed_form)
    steerability = tracer.wrap("steering.steerability", steering.steerability)
    for step in traj.steps:
        joint_cm(step.coeffs, config.joint, config.env)
        steerability(step.joint_cm, Direction.B_TO_A)
    del traj

    oracle_cfg = replace(config, L=min(config.L, ORACLE_MAX_L), oracle_enabled=True)
    ks = [k for k in modes if k <= oracle_cfg.L + 1]
    env_ancilla = tracer.wrap("engine.env_ancilla_cm", engine.env_ancilla_cm)
    with tracer.patched([(engine, "iter_steps", GENERATOR)]):
        for _j, _coeffs, sigma in engine.iter_steps(oracle_cfg):
            for k in ks:
                env_ancilla(sigma, k)


def _peak_mb(config: SimulationConfig) -> float:
    tracemalloc.start()
    try:
        engine.run(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def layer_metrics(tracer: Tracer, config: SimulationConfig) -> dict:
    groups = defaultdict(list)
    children = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        groups[span[0]].append(i)
        children[span[3]].append(i)

    def total(name):
        return sum(tracer.duration(i) for i in groups[name])

    def mean(name):
        return total(name) / len(groups[name])

    def attr_sum(name):
        return sum(tracer.spans[i][4]["n"] for i in groups[name])

    run_self = sum(
        tracer.duration(i) - sum(tracer.duration(c) for c in children[i]) for i in groups["engine.run"]
    )
    run_steps = sum(
        tracer.spans[c][0] == "engine.iter_steps" for i in groups["engine.run"] for c in children[i]
    )
    t_full = statistics.median(tracer.duration(i) for i in groups["probe.iter_steps.L"])
    t_quarter = statistics.median(tracer.duration(i) for i in groups["probe.iter_steps.L4"])
    cells = [tracer.duration(i) / 1e6 for i in groups["scan.cell"] or groups["probe.cell"]]
    values = {
        "engine.iter_steps.ns_per_step": (mean("engine.iter_steps"), "ns"),
        "engine.iter_steps.L_exponent": (
            math.log(t_full / t_quarter) / math.log(config.L / max(1, config.L // 4)), "1"),
        "engine.run.self_ns_per_step": (run_self / run_steps, "ns"),
        "engine.joint_cm_closed_form.ns_per_call": (mean("engine.joint_cm_closed_form"), "ns"),
        "engine.oracle.ns_per_step": (mean("engine.oracle"), "ns"),
        "engine.env_ancilla_cm.ns_per_call": (mean("engine.env_ancilla_cm"), "ns"),
        # Both directions together, per chain step.
        "steering.steering_series.ns_per_step": (
            2 * total("steering.steering_series") / attr_sum("steering.steering_series"), "ns"),
        "steering.steerability.ns_per_call": (mean("steering.steerability"), "ns"),
        "steering.nm_from_steering.ns_per_call": (mean("steering.nm_from_steering"), "ns"),
        "divisibility.divisibility_records.ns_per_step": (
            total("divisibility.divisibility_records") / attr_sum("divisibility.divisibility_records"),
            "ns"),
        "divisibility.nm_cptp.ns_per_step": (
            total("divisibility.nm_cptp") / attr_sum("divisibility.nm_cptp"), "ns"),
        "cli.emit.ns_per_row": (total("cli.emit") / attr_sum("cli.emit"), "ns"),
        "scan.cell_ms.p50": (statistics.median(cells), "ms"),
        "scan.cell_ms.p90": (_percentile_90(cells), "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def trace(payload: dict) -> dict:
    workload = payload["workload"]
    config = config_of(workload, payload["params"])
    oracle_L = min(config.L, ORACLE_MAX_L)
    modes = payload["params"].get("modes", [1, oracle_L // 2, oracle_L + 1])
    deadline = time.perf_counter() + payload["seconds"]
    peak_mb = _peak_mb(config)
    tracer = Tracer()
    outputs, plain_ns, cli_ns, self_ns = set(), [], [], []
    while not cli_ns or time.perf_counter() < deadline:
        # The untraced call first, so both calls find memory the previous one freed.
        text, elapsed = _plain_cli(payload["cli_args"])
        outputs.add(text)
        plain_ns.append(elapsed)
        text, elapsed, cli_self = _traced_cli(tracer, payload["cli_args"])
        if not cli_ns:
            counts = dict(tracer.counts)
        outputs.add(text)
        cli_ns.append(elapsed)
        self_ns.append(cli_self)
        _probe(tracer, config, modes)
    if len(outputs) != 1:
        raise RuntimeError("in-process CLI runs disagree on stdout")
    text = outputs.pop()

    metrics = layer_metrics(tracer, config)
    metrics["engine.run.peak_mb"] = {"value": peak_mb, "unit": "MB"}
    metrics["cli.emit.bytes"] = {"value": len(text.encode()), "unit": "bytes"}
    metrics["cli.self_s"] = {"value": statistics.median(self_ns) / 1e9, "unit": "s"}
    overhead_ns = statistics.median(t - p for t, p in zip(cli_ns, plain_ns))
    metrics["trace.overhead_s"] = {"value": overhead_ns / 1e9, "unit": "s"}
    for name, count in counts.items():
        metrics[name] = {"value": count, "unit": "count"}

    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    with open(payload["spans_file"], "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3]] for s in tracer.spans]}, fh)
    return {
        "metrics": metrics,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "traced_cli_s": statistics.median(cli_ns) / 1e9,
        "untraced_cli_s": statistics.median(plain_ns) / 1e9,
        "iterations": len(cli_ns),
        "spans": len(tracer.spans),
        "spans_file": payload["spans_file"],
    }


ROLES = {"info": info, "oracle": oracle, "trace": trace}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ROLES:
        print(f"usage: inproc.py {{{'|'.join(ROLES)}}} JSON", file=sys.stderr)
        return 2
    if not os.path.abspath(gausscollide.__file__).startswith(SRC + os.sep):
        print(f"gausscollide imported from {gausscollide.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(ROLES[argv[0]](json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
