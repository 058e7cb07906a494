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
import math
import os
import re
import shutil
import sys
import tempfile
from contextlib import ExitStack, nullcontext
from dataclasses import replace

import numpy as np

from .divisibility import divisibility_columns, nm_cptp
from .engine import (
    SimulationConfig,
    Trajectory,
    _column_blocks,
    _columns,
    block_bytes,
    env_mode_columns,
    iter_trajectories,
    require_memory,
    trajectory_chunk,
)
from .errors import DegenerateCovarianceError, GaussCollideError
from .states import EnvironmentSpec, JointSpec, require_finite
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
OUT_HELP = ("output file (default stdout); the output waits in a temporary file in $TMPDIR "
            "until the run ends")
THRESHOLD_FAMILIES = {  # family: (swept parameters, threshold function)
    "s-to-an": (("n",), threshold_s_to_an),
    "an-to-s-thermal": (("n", "xi"), threshold_an_to_s_thermal),
    "an-to-s-squeezed": (("xi", "zeta"), threshold_an_to_s_squeezed_vac),
}

# A bound on the bytes a `scan` cell, a `thresholds` row or an axis value
# holds beside iter_trajectories' chunk: with tracemalloc, a scan at L = 2
# and at L = 50 grows by 312 to 326 B per cell from 80 x 80 to 250 x 250
# cells, a thresholds table by 130 to 168 B per row; plus a 20% margin.
GRID_CELL_BYTES = 400

# Rows that emit formats at a time, at about 90 B per cell beside the table,
# and the fewest that `evolve` and `transport` hand it at once.
EMIT_ROWS = 256

# The flags that size each command's footprint, named when it cannot fit.
SIZE_FLAGS = {"evolve": "--L", "transport": "--L or the number of --modes",
              "scan": "--L or the --grid-r1 and --grid-r2 counts",
              "thresholds": "the --n-values, --xi-values and --zeta-values counts"}

# Columns not printed as %.12g: the step index, and the skip flag (0/1; false/true in JSON).
INDEX_COLUMN, FLAG_COLUMN, FLAG_TOKENS = "j", "skip_flag", (("0", "1"), ("false", "true"))
# The columns a blank row leaves empty: evolve's divisibility witness, undefined
# at step 0 and after a singular step.
BLANK_COLUMNS = ("nu_set_min", "nu_set_max", "ratio")

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


def _axis(token: str):
    """(count, values) of 'a,b,c' or a linspace spec 'start:stop:count':
    values() returns the floats, which a linspace builds only then."""
    text = token.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:count, got {token!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid grid spec {token!r}") from None
        if not 2 <= count <= sys.maxsize:
            raise argparse.ArgumentTypeError(f"grid count must be >= 2 and <= {sys.maxsize}")
        return count, lambda: np.linspace(start, stop, count).tolist()
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value list {token!r}") from None
    return len(values), lambda: values


def parse_values(token: str) -> list[float]:
    """Parse 'a,b,c' or a linspace spec 'start:stop:count'."""
    return _axis(token)[1]()


def load_config_file(path: str) -> dict:
    """key=value defaults; '#' starts a comment; hyphens and underscores
    in keys are interchangeable."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
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


def emit(header, table, fmt: str, fh, blank=None, start: int = 0):
    """Write a numeric (rows, columns) table as CSV or JSON lines to the
    open text file fh, in one pass over EMIT_ROWS rows at a time: check,
    then write them.  A row whose flag in the boolean array blank is true
    leaves its BLANK_COLUMNS empty; each row takes one of two % templates by
    that flag (%.0s takes a blank cell's value).  The table's first row is
    output row start; the CSV header goes before row 0.  A cell not blank
    that is not finite raises an error naming its output row and column;
    `main`'s spool keeps a failed run from writing anything."""
    as_json = fmt == "jsonl"
    keys = [f'"{k}": ' if as_json else "" for k in header]
    filled = [key + {INDEX_COLUMN: "%d", FLAG_COLUMN: "%s"}.get(name, "%.12g")
              for key, name in zip(keys, header)]
    blank_cells = np.array([name in BLANK_COLUMNS for name in header])
    sep, begin, end = (", ", "{", "}\n") if as_json else (",", "", "\n")
    templates = [begin + sep.join(key + "%.0s" + "null" * as_json if row and cell else f
                                  for key, f, cell in zip(keys, filled, blank_cells)) + end
                 for row in (False, True)]  # by the row's blank flag
    if not start and not as_json:
        fh.write(",".join(header) + "\n")
    for at in range(0, len(table), EMIT_ROWS):
        rows = slice(at, at + EMIT_ROWS)
        values = table[rows]
        is_blank = np.zeros(len(values), bool) if blank is None else blank[rows]
        bad = ~(np.isfinite(values) | (is_blank[:, None] & blank_cells))
        if bad.any():  # argwhere alone takes longer than the whole check
            i, c = np.argwhere(bad)[0]
            raise GaussCollideError(f"output row {start + at + i}, column {header[c]}: "
                                    f"non-finite value {float(values[i, c])!r}")
        columns = (values + 0.0).T.tolist()  # -0.0 prints as 0
        for c in (c for c, name in enumerate(header) if name == FLAG_COLUMN):
            columns[c] = [FLAG_TOKENS[as_json][v != 0.0] for v in columns[c]]
        fh.write("".join([templates[b] % row for b, row in zip(is_blank.tolist(), zip(*columns))]))


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


def _trajectory_blocks(config):
    """config's chain as Trajectories of consecutive steps, the evaluator's
    blocks gathered to at least EMIT_ROWS steps (`_column_blocks`)."""
    start = 0
    for c22, w in _column_blocks([config], config.L, EMIT_ROWS):
        yield Trajectory(config, *_columns(c22[0], w[0], start)[:3], start=start)
        start += len(c22[0])


def cmd_evolve(args, parser):
    config = _simulation_config(args, parser, args.r1, args.r2)
    header = ["j", "re_c22", "im_c22", "abs_c22_sq", "g_s_to_an", "g_an_to_s",
              "nu_set_min", "nu_set_max", "ratio", "skip_flag"]
    # A block holds the evaluator's block_bytes, and less than that again per column.
    require_memory(f"L = {config.L}", len(header) * block_bytes(config.L))

    def tables():
        # --oracle's columns; |c22|^2 of the step before, 1 (the identity channel) before step 0
        printed, c_sq = [], np.ones(1)
        for traj in _trajectory_blocks(config):
            g_san = steering_series(traj, Direction.B_TO_A)
            g_ans = steering_series(traj, Direction.A_TO_B)
            if args.oracle:
                printed.append((traj.joint_cm, g_san, g_ans))
            nu_p, nu_m, ratio, skipped = divisibility_columns(
                np.concatenate([c_sq, traj.c22_abs_sq]), config.env)
            c_sq = traj.c22_abs_sq[-1:]
            j = traj.start + np.arange(len(traj))
            table = np.column_stack((j, traj.c22.real, traj.c22.imag, traj.c22_abs_sq, g_san,
                                     g_ans, np.minimum(nu_p, nu_m), np.maximum(nu_p, nu_m),
                                     ratio, skipped))
            # Step 0 has no intermediate map; a skipped step shows only its flag.
            yield traj.start, table, skipped | (j == 0)
        if printed:
            from .reference import verify_against_oracle  # compiled only under --oracle

            verify_against_oracle(config, *(np.concatenate(c) for c in zip(*printed)))

    return header, tables()


def _scan_cell(traj):
    """The three measures of one grid cell's trajectory."""
    return (
        nm_from_steering(steering_series(traj, Direction.B_TO_A)),
        nm_from_steering(steering_series(traj, Direction.A_TO_B)),
        nm_cptp(traj).value,
    )


def cmd_scan(args, parser):
    if args.steps < 2:
        parser.error("scan needs --L >= 2")
    (n1, r1s), (n2, r2s) = args.grid_r1, args.grid_r2
    if n1 < 2 or n2 < 2:
        parser.error("--grid-r1 and --grid-r2 are required, with at least 2 points each")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    need = trajectory_chunk(n1 * n2, args.steps)[1] + (n1 * n2 + n1 + n2) * GRID_CELL_BYTES
    require_memory(f"the --grid-r1 x --grid-r2 grid of {n1} x {n2} cells at L = {args.steps}", need)
    r1s, r2s = r1s(), r2s()
    base = _simulation_config(args, parser, r1s[0], r2s[0])
    cells = [replace(base, r1=r1, r2=r2) for r1 in r1s for r2 in r2s]
    header = ["r1", "r2", "n_gs_s_to_an", "n_gs_an_to_s", "n_cptp"]
    table = []
    for cell, traj in zip(cells, iter_trajectories(cells)):
        try:
            table.append((cell.r1, cell.r2, *_scan_cell(traj)))
        except GaussCollideError as exc:
            raise type(exc)(f"cell r1 = {cell.r1:.12g}, r2 = {cell.r2:.12g}: {exc}") from None
    return header, [(0, np.array(table), None)]


def cmd_transport(args, parser):
    config = _simulation_config(args, parser, args.r1, args.r2)
    try:
        modes = [int(v) for v in args.modes.split(",") if v.strip() != ""]
    except ValueError:
        parser.error(f"invalid --modes value {args.modes!r}")
    if not modes:
        parser.error("--modes is required: at least one environment index (comma-separated)")
    seen = set()
    for k in modes:
        if not 1 <= k <= config.L + 1:
            parser.error(f"--modes index {k} is out of range 1..{config.L + 1}")
        if k in seen:
            parser.error(f"--modes repeats index {k}")
        seen.add(k)

    header = ["j", "g_s_to_an"] + [f"g_e{k}_to_an" for k in modes]
    require_memory(f"L = {config.L}", len(header) * block_bytes(config.L))  # as in evolve
    _, env_c_sq, env_w, _ = env_mode_columns(config, modes)
    try:
        env = steering_columns(env_c_sq, env_w, config.joint, config.env, Direction.B_TO_A)
    except DegenerateCovarianceError as exc:
        k = modes[exc.index // 3]
        raise DegenerateCovarianceError(
            f"step {(0, k - 1, k)[exc.index % 3]}, column g_e{k}_to_an: {exc}") from None
    # E_k's rows print for steps 0 .. k - 2, k - 1 and k .. L
    # (k = 1's unit row and k = L + 1's middle row for none).
    before, middle, after = env.reshape(-1, 3).T
    last_unit = np.array(modes) - 2

    def tables():
        for traj in _trajectory_blocks(config):
            j = traj.start + np.arange(len(traj))[:, None]
            table = np.empty((len(traj), len(header)))
            table[:, :1] = j
            table[:, 1] = steering_series(traj, Direction.B_TO_A)  # evolve's g_s_to_an
            table[:, 2:] = np.select([j <= last_unit, j == last_unit + 1], [before, middle], after)
            yield traj.start, table, None

    return header, tables()


def cmd_thresholds(args, parser):
    names, threshold = THRESHOLD_FAMILIES[args.family]
    for name in ("n", "xi", "zeta"):
        axis = getattr(args, f"{name}_values")
        if axis is not None and name not in names:
            parser.error(f"family {args.family} does not sweep --{name}-values")
        if axis is not None and axis[0] == 0:
            parser.error(f"--{name}-values is empty: give at least one value")
    flags = [f"--{name}-values" for name in names]
    axes = [getattr(args, f"{name}_values") for name in names]
    if None in axes:
        parser.error(f"family {args.family} needs {' and '.join(flags)}")
    counts = [count for count, _ in axes]
    rows = math.prod(counts)
    require_memory(f"the {' x '.join(flags)} grid of {rows} rows",
                   (rows + sum(counts)) * GRID_CELL_BYTES)
    swept = {name: values() for name, (_, values) in zip(names, axes)}
    # The checks a simulation makes on the same parameters.
    for n in swept.get("n", ()):
        EnvironmentSpec(n=n)
    for name in ("xi", "zeta"):
        for value in swept.get(name, ()):
            require_finite(name, value, squeezing=True)
    table = np.array([(*params, threshold(*params))
                      for params in itertools.product(*swept.values())])
    return [*names, "threshold"], [(0, table, None)]


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
    sub.add_argument("--out", help=OUT_HELP)


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
    p_scan.add_argument("--grid-r1", dest="grid_r1", type=_axis, default="",
                        help="r1 axis: 'a,b,c' or 'start:stop:count'")
    p_scan.add_argument("--grid-r2", dest="grid_r2", type=_axis, default="",
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
    p_thr.add_argument("--n-values", dest="n_values", type=_axis)
    p_thr.add_argument("--xi-values", dest="xi_values", type=_axis)
    p_thr.add_argument("--zeta-values", dest="zeta_values", type=_axis)
    p_thr.add_argument("--config", help="key=value file of default parameter values")
    p_thr.add_argument("--format", dest="format", choices=FORMATS, default="csv")
    p_thr.add_argument("--out", help=OUT_HELP)
    p_thr.set_defaults(func=cmd_thresholds, parser=p_thr, **defaults)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser(argv).parse_args(argv)
        # set_defaults gives every subcommand every config key; a flag takes its own.
        unused = sorted(_CONFIG_KEYS & vars(args).keys() - {a.dest for a in args.parser._actions})
        if unused:
            raise ValueError(f"{args.config}: config key {unused[0]!r} is not an option of "
                             f"{args.command}")
        if args.format not in FORMATS:
            args.parser.error(f"unknown format {args.format!r}")
        # Each command returns its table as blocks, each computed once. Their text waits
        # in an unnamed temporary file until the last block and --oracle's comparison
        # are done: a run that fails writes nothing.
        header, tables = args.func(args, args.parser)
        try:
            with ExitStack() as stack:  # a failure closes it here: its flush is named too
                spool = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                for start, values, blank in tables:
                    emit(header, values, args.format, spool, blank, start)
                spool.seek(0)
                stack.pop_all()
        except OSError as exc:
            raise OSError(f"temporary file in {tempfile.gettempdir()}: {exc}") from None
        try:
            with spool, (open(args.out, "w", encoding="utf-8", newline="") if args.out
                         else nullcontext(sys.stdout)) as fh:
                shutil.copyfileobj(spool, fh)
                fh.flush()  # stdout keeps a buffer: a closed pipe shows here, not at exit
        except BrokenPipeError:  # the reader stopped early, as `| head` does: not a failure
            # Point stdout at /dev/null, so the interpreter's final flush stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except OSError as exc:  # open's error names its path; a write's names no target
            target = f"--out {args.out}" if args.out else "stdout"
            raise exc if exc.filename else OSError(f"{target}: {exc}") from None
        return 0
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
        flags = SIZE_FLAGS.get(getattr(args, "command", None), "the sizes")
        print(f"error: out of memory ({exc}); lower {flags}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
