"""Golden CLI output: the exact stdout bytes and exit code of the README
commands and of the benchmark workloads.

Each argv's stdout is pinned by its sha256 digest.  The README scan runs
its grid at --L 40 --jobs 1 to keep the test short.  The three argvs after
the README ones are the seed-1 workloads of perfbench/run.py (evolve-long,
scan-grid, transport-chain); then come a transport in JSON lines and an
evolve with skipped divisibility steps, in CSV and JSON lines.  A
changed digest is a changed output: it needs a reason, not a new digest.
"""

import contextlib
import hashlib
import io

import pytest

from gausscollide.cli import main

GOLDEN = [
    # Re-pinned for the block-power evaluator: 4 of 2510 tokens moved, in their 12th digit
    # (at most 1.1e-11 relative, 1e-13 absolute); 3 of the 4 are closer to 60 digits.
    ("evolve --r1 0.4 --r2 0.3 --xi 1 --L 250 --env vacuum", 0,
     "751fd992b62d2bee71ef5f7fe9a611e1fc4f64521582e9598c6869fb4f201918"),
    ("evolve --r1 0.4 --r2 0.3 --L 50 --oracle", 0,
     "a28f77610bf249f2c0b7c3101c0f4bd80bdaa6625baaad0963ed7353fbaf7617"),
    ("scan --grid-r1 0.05:0.95:21 --grid-r2 0.05:0.95:21 --L 40 --jobs 1", 0,
     "2b74e8727ba54dc16c20378e9214ad1291e884383f1fbacfe0512360e0e74342"),
    ("transport --r1 0.4 --r2 0.3 --L 20 --modes 2,4,6", 0,
     "254d9bd334f3e74600cd7ff62c2e3d4f4fe1be068d8ae355bad5c8c81da07ddb"),
    ("thresholds --family s-to-an --n-values 0,0.5,1,2", 0,
     "215a36ffc45edf599b8cca474a178c5f3b501d78fbc2c9c5fe77eefcfd30ad48"),
    ("thresholds --family an-to-s-thermal --n-values 0:2:5 --xi-values 1", 0,
     "617539357a33cec0e17e2b0d92c5c912de0376c2d487da75dc30c9258a4dce57"),
    ("thresholds --family an-to-s-squeezed --xi-values 0.5 --zeta-values 0:1.4:8", 0,
     "218acf78e1b228dbb7b96c366afc98e7eda80beb548f6d0fe9164b87e4968788"),
    # Re-pinned for the block-power evaluator: 31 of 40010 tokens moved, at most 1e-35
    # absolute and 1.9e-11 relative (an im_c22 of 5.7e-60); 23 of the 31 are closer to
    # 60 digits.
    ("evolve --r1 0.51721 --r2 0.482887 --phi 2.356796 --xi 0.908478 --env squeezed-thermal"
     " --n 0.87214 --zeta 0.364692 --phi-env 2.805858 --L 4000", 0,
     "63a5ac216bb85a8ecf1db3a519c2f1c2aac2d13fb422bd6d50038a24ca39bf20"),
    ("scan --grid-r1 0.100526,0.180526,0.260526,0.340526,0.420526,0.500526,0.580526,"
     "0.660526,0.740526,0.820526 --grid-r2 0.161158,0.251158,0.341158,0.431158,0.521158,"
     "0.611158,0.701158,0.791158,0.881158,1.0 --jobs 1 --phi 2.850333 --xi 1.789994"
     " --env thermal --n 0.463324 --L 250", 0,
     "5e83eee9debeb900b6369ac53c0fce184f138746ae7ac8001853a78860a1d187"),
    ("transport --r1 0.24809 --r2 0.138982 --phi 2.878446 --xi 1.348243"
     " --env squeezed-thermal --n 0.943627 --zeta 0.714603 --phi-env 4.533368 --L 1000"
     " --modes 3,498,1001", 0,
     "1823bf4948652eb0c450e38302529f75c39d91882f2cba03a14d41f09cfb0433"),
    # Transport JSONL over modes 1, a middle k and L + 1; E_6 steers the ancilla at j = 5.
    ("transport --r1 0.2 --r2 0.1 --phi 0.6 --xi 2.5 --env squeezed-thermal --n 0.02"
     " --zeta 0.2 --phi-env 0.7 --L 12 --modes 1,6,13 --format jsonl", 0,
     "83895238fb9d837c6034e34494e3ea75454291432a6f43de6a312d92f6380022"),
    # r1 = 0: every other step has c22 = 0, so the next one is skipped (skip_flag = 1).
    ("evolve --r1 0 --r2 0.5 --xi 0.7 --env thermal --n 0.3 --L 12", 0,
     "2ad6d457c60531e6a8598053d2f71dac3d54962f42e4a27fff8d33d48697133f"),
    ("evolve --r1 0 --r2 0.5 --xi 0.7 --env thermal --n 0.3 --L 12 --format jsonl", 0,
     "72188dceb0142efff7074a6ec60dd317ceb911917e0d974231d414ab97020095"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0][:40] for g in GOLDEN])
def test_stdout_is_byte_identical(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv.split()) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
