"""Command-line interface.

Subcommands: evolve (per-step table for one configuration), scan
(reflectivity-grid non-Markovianity measures), transport (ancilla steering
against chosen environment modes), and thresholds (closed-form
steerability threshold tables).

Output is CSV (default) or JSON lines; floats are rendered with 12
significant digits so repeated runs are byte-identical.  Exit codes: 0
success, 2 usage/validation error, 3 numerical degeneracy.
"""

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np

from . import steering  # not `steerability`: perfbench traces that name per matrix
from .divisibility import divisibility_columns, nm_cptp
from .engine import (
    STEP_BYTES,
    SimulationConfig,
    env_mode_columns,
    iter_steps,
    iter_trajectories,
    require_memory,
    run,
)
from .errors import DegenerateCovarianceError, GaussCollideError
from .states import EnvironmentSpec, JointSpec, reduce_to_modes, require_finite
from .steering import (
    Direction,
    nm_from_steering,
    steering_columns,
    steering_series,
    threshold_an_to_s_squeezed_vac,
    threshold_an_to_s_thermal,
    threshold_s_to_an,
)

ENV_FAMILIES = ("vacuum", "thermal", "squeezed", "squeezed-thermal")
FORMATS = ("csv", "jsonl")
THRESHOLD_FAMILIES = {  # family: (swept parameters, threshold function)
    "s-to-an": (("n",), threshold_s_to_an),
    "an-to-s-thermal": (("n", "xi"), threshold_an_to_s_thermal),
    "an-to-s-squeezed": (("xi", "zeta"), threshold_an_to_s_squeezed_vac),
}

# A bound on the peak-RSS growth per step of each `transport` mode column
# (measured at L = 2e5: 44 B with 6 modes, 53 B with 12), on top of
# STEP_BYTES for the system column (0.62 kB per step in all with 6 modes,
# between L = 2e4 and 2e5).
MODE_STEP_BYTES = 100

# Rows that emit formats and writes at a time.
EMIT_ROWS = 2048

_ANGLE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)pi(?:/(\d+\.?\d*|\.\d+))?$")

_CONFIG_KEYS = {
    "r1", "r2", "phi", "xi", "env", "n", "zeta", "phi_env", "steps",
    "grid_r1", "grid_r2", "jobs", "format", "modes",
}


def parse_angle(token: str) -> float:
    """Parse a float or a pi-token such as 'pi', '-pi/2', '2pi/3', '0.5pi'."""
    text = token.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(text)
    if m:
        coef = m.group(1)
        if coef in ("", "+"):
            num = 1.0
        elif coef == "-":
            num = -1.0
        else:
            num = float(coef)
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"invalid angle {token!r}: zero denominator")
        return num * np.pi / den
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle {token!r}") from None


def parse_values(token: str) -> list[float]:
    """Parse 'a,b,c' or a linspace spec 'start:stop:count'."""
    text = token.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:count, got {token!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid grid spec {token!r}") from None
        if count < 2:
            raise argparse.ArgumentTypeError("grid count must be >= 2")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value list {token!r}") from None


def load_config_file(path: str) -> dict:
    """key=value defaults; '#' starts a comment; hyphens and underscores
    in keys are interchangeable."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key == "L":
                key = "steps"
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = val.strip()
    return values


def _token(v, fmt: str) -> str:
    """One value as a CSV or JSON token."""
    as_json = fmt == "jsonl"
    if v is None:
        return "null" if as_json else ""
    if isinstance(v, bool):
        return ("true" if v else "false") if as_json else ("1" if v else "0")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(float(v) + 0.0, ".12g")
    return json.dumps(v) if as_json else str(v)


def _require_finite_floats(header, rows) -> None:
    """Raise, naming the row and column, at the first float that is not finite."""
    for i, row in enumerate(rows):
        for name, v in zip(header, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise GaussCollideError(f"output row {i}, column {name}: non-finite value {v!r}")


def _chunks(header, rows, fmt: str):
    """The table's text, EMIT_ROWS rows to a string."""
    if fmt == "csv":
        yield ",".join(header) + "\n"
        line = ",".join
    else:
        keys = [f'"{k}": ' for k in header]

        def line(tokens):
            return "{" + ", ".join(k + t for k, t in zip(keys, tokens)) + "}"

        if not rows:  # an empty JSON-lines table is one empty line
            yield "\n"
    for start in range(0, len(rows), EMIT_ROWS):
        yield "".join(line([_token(v, fmt) for v in row]) + "\n"
                      for row in rows[start : start + EMIT_ROWS])


def emit(header, rows, fmt: str, out_path):
    """Write a CSV or JSON-lines table, formatting EMIT_ROWS rows at a time;
    nothing is written if any float in it is not finite."""
    _require_finite_floats(header, rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_chunks(header, rows, fmt))
    else:
        sys.stdout.writelines(_chunks(header, rows, fmt))


def _simulation_config(args, parser, r1, r2) -> SimulationConfig:
    """Configuration from the common flags with reflectivities r1, r2."""
    if r1 is None or r2 is None:
        parser.error("--r1 and --r2 are required (flag or config file)")
    # argparse checks `choices` on flags but not on config-file defaults.
    if args.env not in ENV_FAMILIES:
        parser.error(f"unknown environment family {args.env!r}")
    if args.env == "vacuum" and (args.n != 0.0 or args.zeta != 0.0):
        parser.error("--env vacuum does not take --n or --zeta; pick another family")
    if args.env == "thermal" and args.zeta != 0.0:
        parser.error("--env thermal does not take --zeta")
    if args.env == "squeezed" and args.n != 0.0:
        parser.error("--env squeezed does not take --n; use squeezed-thermal")
    return SimulationConfig(
        r1=r1, r2=r2, phi_shift=args.phi, joint=JointSpec(xi=args.xi),
        env=EnvironmentSpec(n=args.n, zeta=args.zeta, phi_env=args.phi_env), L=args.steps,
    )


def cmd_evolve(args, parser) -> int:
    config = _simulation_config(args, parser, args.r1, args.r2)
    traj = run(config)
    g_san = steering_series(traj, Direction.B_TO_A).tolist()
    g_ans = steering_series(traj, Direction.A_TO_B).tolist()
    if args.oracle:
        _verify_against_oracle(traj, {"g_s_to_an": g_san, "g_an_to_s": g_ans})

    header = [
        "j", "re_c22", "im_c22", "abs_c22_sq", "g_s_to_an", "g_an_to_s",
        "nu_set_min", "nu_set_max", "ratio", "skip_flag",
    ]
    nu_p, nu_m, ratio, skipped = divisibility_columns(traj)
    # Step 0 has no intermediate map; a skipped step shows only its flag.
    blank = np.concatenate([[True], skipped])
    div = [np.where(blank, None, np.concatenate([[0.0], column])).tolist()
           for column in (np.minimum(nu_p, nu_m), np.maximum(nu_p, nu_m), ratio)]
    flags = np.concatenate([[False], skipped]).tolist()
    rows = list(zip(range(len(traj)), traj.c22.real.tolist(), traj.c22.imag.tolist(),
                    traj.c22_abs_sq.tolist(), g_san, g_ans, *div, flags))
    emit(header, rows, args.format, args.out)
    return 0


def _verify_against_oracle(traj, printed) -> None:
    """Full-chain symplectic propagation cross-check: at every step, the
    closed-form joint_cm against the oracle's reduced covariance (1e-8 times
    its largest entry, at least 1e-8: entries grow as cosh xi), and each
    printed steering column against the 4x4 steerability of that
    covariance.  The 4x4 determinants resolve G only to a few eps times the
    covariance's condition number (cosh^2 xi at step 0), so that column's
    tolerance is the larger of 1e-8 and 16 eps cond.  The deviation farthest
    past its tolerance is named."""
    chain = iter_steps(replace(traj.config, oracle_enabled=True))
    oracle = np.array([reduce_to_modes(sigma, [0, 1]) for _, _, sigma in chain])
    oracle = 0.5 * (oracle + oracle.swapaxes(1, 2))  # symmetric up to rounding
    deviations = {"joint_cm": np.max(np.abs(traj.joint_cm - oracle), axis=(1, 2))}
    for name, direction in (("g_s_to_an", Direction.B_TO_A), ("g_an_to_s", Direction.A_TO_B)):
        try:
            reference = steering.steerability(oracle, direction)
        except DegenerateCovarianceError as exc:
            raise DegenerateCovarianceError(f"oracle covariance at step {exc.index}: {exc}") from None
        deviations[name] = np.abs(np.array(printed[name]) - reference)
    steering_tol = np.maximum(1e-8, 16 * np.finfo(float).eps * np.linalg.cond(oracle))
    tolerances = {"joint_cm": 1e-8 * np.maximum(1.0, np.abs(oracle).max(axis=(1, 2))),
                  "g_s_to_an": steering_tol, "g_an_to_s": steering_tol}
    excess = {name: deviations[name] / tolerances[name] for name in deviations}
    name = max(excess, key=lambda name: excess[name].max())
    j = int(np.argmax(excess[name]))
    if excess[name][j] > 1.0:
        raise GaussCollideError(f"oracle mismatch at step {j}: max deviation "
                                f"{deviations[name][j]:g} in {name} (tolerance {tolerances[name][j]:g})")


def _scan_cell(traj):
    """The three measures of one grid cell's trajectory."""
    return (
        nm_from_steering(steering_series(traj, Direction.B_TO_A)),
        nm_from_steering(steering_series(traj, Direction.A_TO_B)),
        nm_cptp(traj).value,
    )


def cmd_scan(args, parser) -> int:
    if args.steps < 2:
        parser.error("scan needs --steps >= 2")
    if len(args.grid_r1) < 2 or len(args.grid_r2) < 2:
        parser.error("--grid-r1 and --grid-r2 are required, with at least 2 points each")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    base = _simulation_config(args, parser, args.grid_r1[0], args.grid_r2[0])
    cells = [replace(base, r1=r1, r2=r2) for r1 in args.grid_r1 for r2 in args.grid_r2]
    header = ["r1", "r2", "n_gs_s_to_an", "n_gs_an_to_s", "n_cptp"]
    rows = [(cell.r1, cell.r2, *_scan_cell(traj))
            for cell, traj in zip(cells, iter_trajectories(cells))]
    emit(header, rows, args.format, args.out)
    return 0


def cmd_transport(args, parser) -> int:
    config = _simulation_config(args, parser, args.r1, args.r2)
    try:
        modes = [int(v) for v in args.modes.split(",") if v.strip() != ""]
    except ValueError:
        parser.error(f"invalid --modes value {args.modes!r}")
    if not modes:
        parser.error("--modes is required: at least one environment index (comma-separated)")

    header = ["j", "g_s_to_an"] + [f"g_e{k}_to_an" for k in modes]
    require_memory(config.L, (config.L + 1) * (STEP_BYTES + MODE_STEP_BYTES * len(modes)))
    # E_k's rows print for k - 1, 1 and L + 1 - k steps from steps 0, k - 1 and k;
    # one printed nowhere (k = 1's unit row, k = L + 1's middle row) is not steered.
    counts = np.ravel([(k - 1, 1, config.L + 1 - k) for k in modes])
    printed = counts > 0
    _, env_c_sq, env_w, _ = env_mode_columns(config, modes)
    traj = run(config)
    system = _steer(traj.c22_abs_sq, traj.env_square_sum, config, lambda i: (i, "g_s_to_an"))
    places = list(itertools.compress(
        [(j, header[c]) for c, k in enumerate(modes, 2) for j in (0, k - 1, k)], printed))
    env = _steer(env_c_sq[printed], env_w[printed], config, lambda i: places[i])
    env = np.repeat(env, counts[printed]).reshape(len(modes), -1)
    rows = [(j, *row) for j, row in enumerate(np.vstack([system, env]).T.tolist())]
    emit(header, rows, args.format, args.out)
    return 0


def _steer(c_sq, w, config, place):
    """X -> An steering of the (ancilla, X) rows with columns |c|^2 and W,
    as steering_series steers the system; place(i) = (step, column) names
    a degenerate row i."""
    try:
        return steering_columns(c_sq, w, config.joint, config.env, Direction.B_TO_A)
    except DegenerateCovarianceError as exc:
        j, column = place(exc.index)
        raise DegenerateCovarianceError(f"step {j}, column {column}: {exc}") from None


def cmd_thresholds(args, parser) -> int:
    names, threshold = THRESHOLD_FAMILIES[args.family]
    axes = [getattr(args, f"{name}_values") for name in names]
    if None in axes:
        flags = " and ".join(f"--{name}-values" for name in names)
        parser.error(f"family {args.family} needs {flags}")
    # The checks a simulation makes on the same parameters.
    for n in args.n_values or ():
        EnvironmentSpec(n=n)
    for name in ("xi", "zeta"):
        for value in getattr(args, f"{name}_values") or ():
            require_finite(name, value, squeezing=True)
    rows = [(*params, threshold(*params)) for params in itertools.product(*axes)]
    emit([*names, "threshold"], rows, args.format, args.out)
    return 0


def _add_common_flags(sub, with_r=True):
    if with_r:
        sub.add_argument("--r1", type=float, help="reflectivity of the system beam splitter")
        sub.add_argument("--r2", type=float, help="reflectivity of the environment beam splitter")
    sub.add_argument("--phi", type=parse_angle, default=0.0,
                     help="phase on the system arm (accepts pi tokens)")
    sub.add_argument("--xi", type=float, default=1.0, help="ancilla-system squeezing (default 1)")
    sub.add_argument("--env", choices=ENV_FAMILIES, default="vacuum",
                     help="environment family (default vacuum)")
    sub.add_argument("--n", type=float, default=0.0, help="environment thermal occupation")
    sub.add_argument("--zeta", type=float, default=0.0, help="environment squeezing magnitude")
    sub.add_argument("--phi-env", dest="phi_env", type=parse_angle, default=0.0,
                     help="environment squeezing phase (accepts pi tokens)")
    sub.add_argument("--L", "--steps", "-L", dest="steps", type=int, default=250,
                     help="number of rounds (default 250)")
    sub.add_argument("--config", help="key=value file of default parameter values")
    sub.add_argument("--format", dest="format", choices=FORMATS, default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", help="output file (default stdout)")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI parser.  Values of the --config file named in argv become
    flag defaults, which argparse converts with each flag's type."""
    pre = argparse.ArgumentParser(prog="gausscollide", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    defaults = load_config_file(path) if path else {}
    parser = argparse.ArgumentParser(
        prog="gausscollide",
        description="Gaussian collision-model simulator with steering and "
        "divisibility non-Markovianity witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="per-step table for one configuration")
    _add_common_flags(p_evolve)
    p_evolve.add_argument("--oracle", action="store_true",
                          help="cross-check the closed form against full-chain propagation")
    p_evolve.set_defaults(func=cmd_evolve, parser=p_evolve, **defaults)

    p_scan = sub.add_parser("scan", help="non-Markovianity measures over a reflectivity grid")
    _add_common_flags(p_scan, with_r=False)
    p_scan.add_argument("--grid-r1", dest="grid_r1", type=parse_values, default="",
                        help="r1 axis: 'a,b,c' or 'start:stop:count'")
    p_scan.add_argument("--grid-r2", dest="grid_r2", type=parse_values, default="",
                        help="r2 axis: 'a,b,c' or 'start:stop:count'")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="accepted and checked to be >= 1; the scan runs in this process")
    p_scan.set_defaults(func=cmd_scan, parser=p_scan, **defaults)

    p_transport = sub.add_parser(
        "transport", help="ancilla steering against selected environment modes"
    )
    _add_common_flags(p_transport)
    p_transport.add_argument("--modes", default="",
                             help="comma-separated environment indices k (1..L+1)")
    p_transport.set_defaults(func=cmd_transport, parser=p_transport, **defaults)

    p_thr = sub.add_parser("thresholds", help="closed-form steerability threshold tables")
    p_thr.add_argument("--family", required=True, choices=THRESHOLD_FAMILIES)
    p_thr.add_argument("--n-values", dest="n_values", type=parse_values)
    p_thr.add_argument("--xi-values", dest="xi_values", type=parse_values)
    p_thr.add_argument("--zeta-values", dest="zeta_values", type=parse_values)
    p_thr.add_argument("--config", help="key=value file of default parameter values")
    p_thr.add_argument("--format", dest="format", choices=FORMATS, default="csv")
    p_thr.add_argument("--out", help="output file (default stdout)")
    p_thr.set_defaults(func=cmd_thresholds, parser=p_thr, **defaults)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
        if args.format not in FORMATS:
            args.parser.error(f"unknown format {args.format!r}")
        return args.func(args, args.parser)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except GaussCollideError as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc}); lower --L or the grid sizes", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
