"""Compare the command line's stdout between two source trees.

Run from the repository root:

    python3 tools/compare_stdout.py OLD_SRC NEW_SRC

Each argv runs once under each tree, as `python -m gausscollide.cli ARGV`
with PYTHONPATH set to that tree's `src` directory.  The argvs are every
golden argv of tests/test_cli_golden.py, then RANDOM_ARGVS random ones
drawn with seed SEED: all four subcommands, the four environment families,
reflectivities 0, 1 and interior, CSV and JSON lines, and `evolve --oracle`
at L <= 200; then the LONG_ARGVS, whose chains span several blocks, and the
FAULT_ARGVS, each of which ends in an error or a warning on stderr.
--argv adds more, one quoted argv per flag.

One line per argv says whether the exit code, the stdout sha256 and stderr
match.  On a stdout mismatch it gives the number of changed tokens (numbers,
keys and literals, split at commas, colons, braces and whitespace) and the
largest absolute and relative deviation of the changed numeric tokens; on a
stderr mismatch, the last line of each.  The last line counts the
mismatches; the exit status is 1 if there is any.

Standard library only: this process imports neither numpy nor the package.
"""

import argparse
import ast
import hashlib
import math
import os
import random
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "test_cli_golden.py")
FAMILIES = ("vacuum", "thermal", "squeezed", "squeezed-thermal")
TOKEN_SPLIT = re.compile(r"[\s,:{}]+")
# The golden-digest protocol's minimum of random argvs, and their seed.
RANDOM_ARGVS = 40
SEED = 1
# Runs whose chains span several of the blocks every command walks one at a
# time (at L = 100000, blocks of 316 steps; E_317's carried row opens the
# second); every golden and random scan fits in one.
LONG_ARGVS = [
    "scan --grid-r1 0:1:41 --grid-r2 0:1:41 --L 1000 --env thermal --n 0.5 --xi 1.2 --phi 0.7",
    "scan --grid-r1 0.4,0.9,0.999 --grid-r2 0.3,0.99,0 --L 100000 --env squeezed-thermal "
    "--n 0.3 --zeta 2 --phi-env 0.7",
    "scan --grid-r1 0:1:21 --grid-r2 0:1:21 --L 3000 --format jsonl --env squeezed --zeta 1.5 "
    "--phi 2",
    "scan --grid-r1 0.4,0.9 --grid-r2 0.3,0.99 --L 1000000",
    "evolve --r1 0.999 --r2 0.3 --L 100000 --phi 0.4 --env squeezed-thermal --n 0.3 --zeta 0.8 "
    "--phi-env 0.7 --format jsonl",
    "transport --r1 0.4 --r2 0.3 --L 100000 --phi 0.9 --env thermal --n 0.5 "
    "--modes 1,317,50000,100001",
]
# Runs that fail (exit 2) or warn: bad input, an undefined threshold, the
# memory refusal, and --oracle's warning at large squeezing.
FAULT_ARGVS = [
    "evolve --r1 1.5 --r2 0.3 --L 3",
    "transport --r1 0.4 --r2 0.3 --L 5 --modes 7",
    "transport --r1 0.4 --r2 0.3 --L 5 --modes 1,2,2",
    "evolve --r1 0.4 --r2 0.3 --L 3 --env squeezed --zeta 5.000001",
    "thresholds --family an-to-s-thermal --n-values 0 --xi-values 0",
    "evolve --r1 0.4 --r2 0.3 --L 1000000000000000000000000000000",
    "evolve --r1 0.4 --r2 0.3 --L 12 --xi 20 --oracle",
]


def golden_argvs(path: str) -> list[str]:
    """The argv strings of the GOLDEN list in the golden-digest test file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN"
                                                for t in node.targets):
            return [argv for argv, _, _ in ast.literal_eval(node.value)]
    raise ValueError(f"{path}: no GOLDEN list")


def _number(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.6f}"


def _reflectivity(rng: random.Random) -> str:
    return rng.choice(("0", "1", _number(rng, 0.0, 1.0), _number(rng, 0.0, 1.0)))


def _environment(rng: random.Random) -> list[str]:
    family = rng.choice(FAMILIES)
    flags = ["--env", family]
    if family in ("thermal", "squeezed-thermal"):
        flags += ["--n", _number(rng, 0.0, 2.0)]
    if family in ("squeezed", "squeezed-thermal"):
        flags += ["--zeta", _number(rng, 0.0, 1.5), "--phi-env", _number(rng, -3.2, 3.2)]
    return flags


def random_argv(rng: random.Random, command: str) -> str:
    """One random argv of the given subcommand, small enough to run in well under a second."""
    fmt = ["--format", rng.choice(("csv", "jsonl"))]
    if command == "thresholds":
        family = rng.choice(("s-to-an", "an-to-s-thermal", "an-to-s-squeezed"))
        axes = {"s-to-an": ("n",), "an-to-s-thermal": ("n", "xi"),
                "an-to-s-squeezed": ("xi", "zeta")}[family]
        flags = []
        for name in axes:
            high = 3.0 if name != "n" else 2.0
            if rng.random() < 0.5:
                values = f"{_number(rng, 0.0, high)}:{_number(rng, 0.0, high)}:{rng.randint(2, 6)}"
            else:
                values = ",".join(_number(rng, 0.0, high) for _ in range(rng.randint(1, 4)))
            flags += [f"--{name}-values", values]
        return shlex.join(["thresholds", "--family", family, *flags, *fmt])
    common = ["--phi", _number(rng, -3.2, 3.2), "--xi", _number(rng, 0.0, 3.0),
              *_environment(rng)]
    if command == "scan":
        axes = [",".join(_reflectivity(rng) for _ in range(rng.randint(2, 4))) for _ in range(2)]
        return shlex.join(["scan", "--grid-r1", axes[0], "--grid-r2", axes[1],
                           "--L", str(rng.randint(2, 120)), *common, *fmt])
    reflectivities = ["--r1", _reflectivity(rng), "--r2", _reflectivity(rng)]
    if command == "transport":
        L = rng.randint(1, 300)
        modes = sorted(rng.sample(range(1, L + 2), rng.randint(1, min(4, L + 1))))
        return shlex.join(["transport", *reflectivities, "--L", str(L),
                           "--modes", ",".join(map(str, modes)), *common, *fmt])
    oracle = rng.random() < 0.25
    L = rng.randint(1, 200 if oracle else 2000)
    return shlex.join(["evolve", *reflectivities, "--L", str(L), *common, *fmt,
                       *(["--oracle"] if oracle else [])])


def random_argvs(count: int, seed: int) -> list[str]:
    """count random argvs, the four subcommands in turn."""
    rng = random.Random(seed)
    commands = ("evolve", "scan", "transport", "thresholds")
    return [random_argv(rng, commands[i % 4]) for i in range(count)]


def run(src: str, argv: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one argv under the source tree src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "gausscollide.cli", *shlex.split(argv)],
                          env=env, capture_output=True, check=False)
    return done.returncode, done.stdout, done.stderr


def token_deviation(old: str, new: str) -> str:
    """The changed tokens of two outputs and their largest deviations."""
    a, b = ([t for t in TOKEN_SPLIT.split(text) if t] for text in (old, new))
    if len(a) != len(b):
        return f"{len(a)} against {len(b)} tokens"
    changed, worst_abs, worst_rel = 0, 0.0, 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        changed += 1
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        if math.isfinite(fx) and math.isfinite(fy):
            dev = abs(fx - fy)
            worst_abs = max(worst_abs, dev)
            if fx or fy:
                worst_rel = max(worst_rel, dev / max(abs(fx), abs(fy)))
    return (f"{changed} of {len(a)} tokens changed, max abs {worst_abs:.3g}, "
            f"max rel {worst_rel:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the reference tree's src directory")
    parser.add_argument("new_src", help="the compared tree's src directory")
    parser.add_argument("--argv", action="append", default=[],
                        help="one more argv, quoted; may repeat")
    args = parser.parse_args(argv)

    argvs = (golden_argvs(GOLDEN_PATH) + random_argvs(RANDOM_ARGVS, SEED) + LONG_ARGVS
             + FAULT_ARGVS + args.argv)
    mismatches = 0
    for line in argvs:
        (old_code, old_out, old_err), (new_code, new_out, new_err) = (
            run(src, line) for src in (args.old_src, args.new_src))
        digest = hashlib.sha256(new_out).hexdigest()[:16]
        if (old_code, old_out, old_err) == (new_code, new_out, new_err):
            print(f"same  exit {new_code} sha256 {digest}  {line}")
            continue
        mismatches += 1
        details = [f"exit {old_code} -> {new_code}"]
        if old_out != new_out:
            details.append(token_deviation(old_out.decode(), new_out.decode()))
        if old_err != new_err:
            details.append("stderr {!r} -> {!r}".format(
                *(err.decode().splitlines()[-1:] for err in (old_err, new_err))))
        print(f"DIFF  {', '.join(details)}  {line}")
    print(f"{mismatches} of {len(argvs)} argvs differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
