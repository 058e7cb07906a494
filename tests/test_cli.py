"""Command-line interface: schemas, formatting, determinism, config
handling, and exit codes."""

import concurrent.futures
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscollide.cli as cli
import gausscollide.engine as engine
import gausscollide.reference as reference
import gausscollide.steering as steering
import gausscollide.witnesses as witnesses
from gausscollide.cli import ENV_FAMILIES, main, parse_angle, parse_values
from gausscollide.divisibility import nm_cptp
from gausscollide.engine import SimulationConfig, env_ancilla_cm, iter_steps, run
from gausscollide.errors import DegenerateCovarianceError, GaussCollideError
from gausscollide.states import EnvironmentSpec, JointSpec
from gausscollide.steering import Direction, nm_from_steering, steerability, steering_series

LNCOSH1_TOKEN = format(math.log(math.cosh(1.0)), ".12g")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("pi", math.pi),
            ("PI", math.pi),
            ("pi/2", math.pi / 2),
            ("2pi", 2 * math.pi),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi", -math.pi),
            ("-pi/4", -math.pi / 4),
            ("0.5pi", 0.5 * math.pi),
            ("1.5", 1.5),
            ("-2.25", -2.25),
        ],
    )
    def test_angles(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=1e-15)

    def test_bad_angle(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("piz")

    def test_values_list_and_linspace(self):
        assert parse_values("0.1,0.2,0.5") == [0.1, 0.2, 0.5]
        np.testing.assert_allclose(parse_values("0:1:5"), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_values(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_values("0:1:1")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_values("a,b")


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "explode")[0] == 2

    def test_missing_reflectivities(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--r2", "0.3")
        assert code == 2
        assert "--r1" in err

    @pytest.mark.parametrize(
        "argv,command",
        [
            (("thresholds", "--family", "an-to-s-thermal", "--n-values", "1"), "thresholds"),
            (("evolve", "--r2", "0.3"), "evolve"),
            (("scan", "--grid-r1", "0,1"), "scan"),
            (("transport", "--r1", "0.4", "--r2", "0.3"), "transport"),
        ],
    )
    def test_usage_error_prints_the_subcommand_usage(self, capsys, argv, command):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"usage: gausscollide {command} ")

    @pytest.mark.parametrize("argv,flags", [
        (("evolve",), "--L"), (("transport", "--modes", "1"), "--L or the number of --modes"),
    ], ids=["evolve", "transport"])
    def test_absurd_length_is_refused_by_the_block_term(self, capsys, monkeypatch, argv, flags):
        # 10^30 steps: a block of 10^15 steps cannot fit, refused before the first step.
        def no_steps(*args):
            raise AssertionError("the chain started stepping")

        monkeypatch.setattr(engine, "_blocks", no_steps)
        code, out, err = run_cli(capsys, *argv, "--r1", ".4", "--r2", ".3", "--L", str(10**30))
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory (L = 1000000000000000000000000000000 needs ")
        assert err.endswith(f"; lower {flags}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,token", [("--phi", "pi/0"), ("--phi-env", "2pi/0.")])
    def test_zero_angle_denominator(self, capsys, tmp_path, flag, token):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {token}\n")
        for source in ([flag, token], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", *source)
            assert code == 2 and out == ""
            assert f"argument {flag}: invalid angle {token!r}: zero denominator" in err

    def test_out_of_domain_reflectivity(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--r1", "1.5", "--r2", "0.3", "--L", "3")
        assert code == 2
        assert "error" in err

    def test_env_family_conflicts(self, capsys):
        assert run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3",
                       "--env", "vacuum", "--n", "1")[0] == 2
        assert run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3",
                       "--env", "thermal", "--zeta", "0.5")[0] == 2
        assert run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3",
                       "--env", "squeezed", "--n", "0.5")[0] == 2

    @pytest.mark.parametrize(
        "flag,value,name",
        [
            ("--xi", "nan", "xi"),
            ("--xi", "800", "xi"),
            ("--n", "inf", "n"),
            ("--zeta", "800", "zeta"),
            ("--phi", "nan", "phi_shift"),
            ("--phi-env", "nan", "phi_env"),
            ("--xi", "300", "xi"),
            ("--n", "1e300", "n"),
            ("--zeta", "700", "zeta"),
        ],
    )
    def test_non_finite_or_overflowing_parameter(self, capsys, flag, value, name):
        code, _, err = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3",
                               "--env", "squeezed-thermal", flag, value)
        assert code == 2
        assert err.startswith(f"error: {name} ")
        assert "symmetric" not in err

    @pytest.mark.parametrize("argv", [("evolve",), ("transport", "--modes", "1")],
                             ids=["evolve", "transport"])
    def test_degeneracy_names_the_step(self, capsys, corrupt_blocks, argv):
        def unphysical_at_step_0(start, c22, w):
            if start == 0:
                w[:, 0] = 10.0  # |W| <= 1 - |c22|^2 on a physical row

        corrupt_blocks(unphysical_at_step_0)
        code, _, err = run_cli(capsys, *argv, "--r1", "0.4", "--r2", "0.3", "--L", "3")
        assert code == 2
        assert err.startswith("error: coefficient column not normalized at row 0: |W| = 10.0 ")

    @pytest.mark.parametrize("argv", [("evolve",), ("transport", "--modes", "1,50")],
                             ids=["evolve", "transport"])
    @pytest.mark.parametrize("target_kind", ["stdout", "out", "existing"])
    def test_degeneracy_in_a_later_block_writes_nothing(self, capsys, monkeypatch, corrupt_blocks,
                                                        tmp_path, argv, target_kind):
        monkeypatch.setattr(cli, "EMIT_ROWS", 20)

        def unphysical_at_step_77(start, c22, w):
            if start <= 77 < start + w.shape[1]:
                w[:, 77 - start] = 10.0

        walks = corrupt_blocks(unphysical_at_step_77)
        target = tmp_path / "table"
        if target_kind == "existing":
            target.write_bytes(b"j,g\r\n0,1\n")
        out_flag = ("--out", str(target)) if target_kind != "stdout" else ()
        code, out, err = run_cli(capsys, *argv, "--r1", ".4", "--r2", ".3", "--L", "100", *out_flag)
        assert code == 2 and out == ""
        if target_kind == "existing":
            assert target.read_bytes() == b"j,g\r\n0,1\n"
        else:
            assert not target.exists()
        assert err.startswith("error: coefficient column not normalized at row 77: ")
        assert [starts for _, _, starts in walks] == [[0, 20, 40, 60]]  # stopped in block four

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_spool_error_names_the_temporary_directory(self, capsys, monkeypatch, tmp_path,
                                                       to_file):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.tempfile, "TemporaryFile", no_space)
        target = tmp_path / "table"
        out_flag = ("--out", str(target)) if to_file else ()
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "10",
                                 *out_flag)
        assert code == 2 and out == "" and not target.exists()
        assert err == (f"error: temporary file in {cli.tempfile.gettempdir()}: "
                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    def test_full_spool_names_the_temporary_directory(self, tmp_path):
        # The child caps the size of the files it writes, so the temporary file
        # fills up (EFBIG) partway through its rows; stdout, a pipe, has no cap.
        child = ("import resource, signal, sys\n"
                 "from gausscollide.cli import main\n"
                 "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                 "resource.setrlimit(resource.RLIMIT_FSIZE, (2**16, 2**16))\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        target = tmp_path / "table"
        for out_flag in ((), ("--out", str(target))):
            done = subprocess.run([sys.executable, "-X", "dev", "-c", child, "evolve", "--r1", ".4",
                                   "--r2", ".3", "--L", "5000", *out_flag],
                                  capture_output=True, text=True, env=env)
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr == (f"error: temporary file in {cli.tempfile.gettempdir()}: "
                                   f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n")
        assert not target.exists()

    @pytest.mark.parametrize("argv,steering_per_block", [
        (("evolve",), 2), (("evolve", "--oracle"), 2), (("transport", "--modes", "1,50"), 1)],
        ids=["evolve", "evolve-oracle", "transport"])
    def test_each_run_makes_one_pass(self, capsys, monkeypatch, corrupt_blocks, argv,
                                     steering_per_block):
        monkeypatch.setattr(cli, "EMIT_ROWS", 20)
        walks, series, determinants = corrupt_blocks(), [], steering.reduced_determinants

        def counted_series(c_sq, *args):  # once per steering_columns call
            if c_sq.ndim == 2:  # a block of the chain, not transport's E_k rows
                _, _, starts = walks[-1]
                series.append(starts[-1])
            return determinants(c_sq, *args)

        monkeypatch.setattr(steering, "reduced_determinants", counted_series)
        code, out, _ = run_cli(capsys, *argv, "--r1", ".4", "--r2", ".3", "--L", "100")
        assert code == 0 and len(out.splitlines()) == 102
        assert len(walks) == 1
        blocks = walks[0][2]
        assert blocks == [0, 20, 40, 60, 80, 100]
        assert series == [start for start in blocks for _ in range(steering_per_block)]

    def test_degeneracy_exit_code(self, capsys, corrupt_blocks):
        def explode(start, c22, w):
            raise DegenerateCovarianceError("synthetic")

        corrupt_blocks(explode)
        code, _, err = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3")
        assert code == 3
        assert "degeneracy" in err

    def test_environment_squeezing_bound(self, capsys):
        argv = ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3", "--env", "squeezed")
        assert run_cli(capsys, *argv, "--zeta", "5")[0] == 0
        for value in ("5.000001", "-6", "40"):
            code, out, err = run_cli(capsys, *argv, "--zeta", value)
            assert code == 2 and out == ""
            assert err.startswith("error: zeta ") and "|zeta| <= 5" in err

    @settings(max_examples=30, deadline=None)
    @given(
        xi=st.one_of(st.just(177.0), st.floats(0.0, 177.0)),
        zeta=st.one_of(st.just(5.0), st.floats(0.0, 5.0)),
        n=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        r=st.floats(0.0, 1.0),
        phi=st.floats(-4.0, 4.0),
    )
    def test_accepted_extremes_never_exit_3(self, xi, zeta, n, r, phi):
        shared = [f"--phi={phi!r}", f"--xi={xi!r}", "--env=squeezed-thermal", f"--n={n!r}",
                  f"--zeta={zeta!r}", "--L=30"]
        common = [f"--r1={r!r}", f"--r2={1.0 - r!r}", *shared]
        axis = f"{r!r},{1.0 - r!r}"
        for argv in (["evolve", *common], ["transport", *common, "--modes=1,15,31"],
                     ["scan", f"--grid-r1={axis}", f"--grid-r2={axis}", *shared]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            assert "nan" not in buf.getvalue() and "inf" not in buf.getvalue()


def run_captured(*args):
    """run_cli without capsys, which hypothesis does not reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def check_exit(code, out, err, names, rows):
    """Exit 2 with nothing on stdout and one error line, naming one of
    names, that ends stderr (after the subcommand's usage, for a usage
    error); or exit 0 with the expected rows, unique header names and no
    non-finite value."""
    assert code in (0, 2), err
    if code == 2:
        lines = err.splitlines()
        assert out == "" and err.endswith("\n")
        assert [line for line in lines if "error:" in line] == lines[-1:], err
        assert len(lines) == 1 or lines[0].startswith("usage: gausscollide "), err
        assert any(name in lines[-1] for name in names), err
        return
    if out.startswith("{"):
        records = [json.loads(line, object_pairs_hook=list) for line in out.splitlines()]
        header = [key for key, _ in records[0]]
    else:
        header, *records = out.splitlines()
        header = header.split(",")
    assert len(records) == rows > 0
    assert len(set(header)) == len(header), header
    assert "nan" not in out and "inf" not in out


MODE_TOKENS = ["", " ", "x", "1.5", "2e0", "-1", "+2", " 3", "4 ", "1 2", "nan"]
AXIS_TOKENS = ["", ",", " , ", "0", "0.5", "-1", "nan", "inf", "1e300", "1e-300", "180",
               "0:2:3", "0:1:1", "2:0:4", "0:1:x", "1:2", "nan:1:3", "0,,1"]


# The parameter each numeric flag sets, as an error message names it.
FLAG_PARAMETERS = {"r1": "r1", "r2": "r2", "phi": "phi_shift", "xi": "xi", "n": "n",
                   "zeta": "zeta", "phi-env": "phi_env"}
NUMBER_TOKENS = ["", " ", "0", "-0", "0.5", "1", "-1", "nan", "inf", "-inf", "1e300", "1e-300",
                 "5e-324", "180", "x", "0,1", "0:1:2", "pi", "-pi/2", "2pi/3", "0.5pi", "pi/0",
                 "2pi/0.", "piz"]
L_TOKENS = ["", " ", "x", "2.5", "1e1", "-1", "0"]
GRID_ITEMS = ["", " ", "0", "1", "nan", "-0.1", "1.5", "inf", "x", "pi"]
GRID_ENDS = ["0", "1", "0.2", "0.9", "-1", "2", "nan", "x"]
GRID_SPECS = (st.lists(st.sampled_from(GRID_ITEMS) | st.floats(0.0, 1.0).map(repr),
                       max_size=6).map(",".join)
              | st.lists(st.floats(0.0, 1.0).map(repr), min_size=2, max_size=6).map(",".join)
              | st.builds("{}:{}:{}".format, st.sampled_from(GRID_ENDS),
                          st.sampled_from(GRID_ENDS), st.integers(0, 6)))


@st.composite
def numeric_flags(draw, command, max_flags=3):
    """Valid defaults for the command, --env, an --L of at most 50 and up to
    max_flags numeric flags, each with a drawn token."""
    flags = {"scan": {"grid-r1": "0.2,0.8", "grid-r2": "0.3,0.6,0.9"},
             "evolve": {"r1": "0.4", "r2": "0.3"},
             "transport": {"r1": "0.4", "r2": "0.3", "modes": "1"}}[command]
    flags["env"] = draw(st.sampled_from(ENV_FAMILIES))
    flags["L"] = draw(st.integers(1, 50).map(str) | st.sampled_from(L_TOKENS))
    names = [name for name in FLAG_PARAMETERS if command != "scan" or name[0] != "r"]
    token = st.sampled_from(NUMBER_TOKENS) | st.floats(0.0, 1.0).map(repr)
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=max_flags)):
        flags[name] = draw(token)
    return flags


def run_flags(command, flags):
    return run_captured(command, *(f"--{key}={value}" for key, value in flags.items()))


def check_flags(command, flags, result):
    """check_exit of a run of command with flags: an error line names a
    flag or a parameter."""
    code, out, err = result
    names = [f"--{key}" for key in flags] + ["--steps", "error: L "]
    for parameter in FLAG_PARAMETERS.values():
        names += [f"error: {parameter} ", f" {parameter} = "]
    rows = 0
    if code == 0 and command == "scan":
        rows = len(parse_values(flags["grid-r1"])) * len(parse_values(flags["grid-r2"]))
    elif code == 0:
        rows = int(flags["L"]) + 1
    check_exit(code, out, err, names, rows)


class TestArgvExitCodes:
    """Malformed and extreme argv tokens exit 0 or 2, never with a
    traceback, a repeated column or a non-finite value (L <= 50)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), L=st.integers(1, 50), fmt=st.sampled_from(["csv", "jsonl"]))
    def test_transport_modes(self, data, L, fmt):
        token = st.integers(0, L + 2).map(str) | st.sampled_from(MODE_TOKENS)
        modes = ",".join(data.draw(st.lists(token, min_size=1, max_size=5)))
        code, out, err = run_captured("transport", "--r1=0.4", "--r2=0.3", f"--L={L}",
                                      f"--modes={modes}", f"--format={fmt}")
        check_exit(code, out, err, ["--modes"], L + 1)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), family=st.sampled_from(sorted(cli.THRESHOLD_FAMILIES)),
           fmt=st.sampled_from(["csv", "jsonl"]))
    def test_threshold_values(self, data, family, fmt):
        names = cli.THRESHOLD_FAMILIES[family][0]
        token = st.sampled_from(AXIS_TOKENS) | st.floats(-10.0, 10.0).map(repr)
        axes = [data.draw(token) for _ in names]
        flags = [f"--{name}-values={axis}" for name, axis in zip(names, axes)]
        code, out, err = run_captured("thresholds", f"--family={family}", *flags,
                                      f"--format={fmt}")
        rows = math.prod(len(parse_values(axis)) for axis in axes) if code == 0 else 0
        check_exit(code, out, err, [f"--{name}-values" for name in names]
                   + [f"error: {name} " for name in names] + [f" {name} = " for name in names],
                   rows)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["evolve", "transport", "scan"]))
    def test_numeric_flags(self, data, command):
        flags = data.draw(numeric_flags(command))
        check_flags(command, flags, run_flags(command, flags))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), grid_r1=GRID_SPECS, grid_r2=GRID_SPECS)
    def test_scan_grids(self, data, grid_r1, grid_r2):
        flags = {**data.draw(numeric_flags("scan", max_flags=0)),
                 "grid-r1": grid_r1, "grid-r2": grid_r2}
        check_flags("scan", flags, run_flags("scan", flags))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["evolve", "transport", "scan"]))
    def test_config_file(self, data, command, tmp_path_factory):
        flags = data.draw(numeric_flags(command))
        if command == "scan":
            flags.update({"grid-r1": data.draw(GRID_SPECS), "grid-r2": data.draw(GRID_SPECS)})
        config = tmp_path_factory.getbasetemp() / "argv.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in flags.items()))
        check_flags(command, flags, run_captured(command, f"--config={config}"))


class TestEvolve:
    def test_basic_table(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "j,re_c22,im_c22,abs_c22_sq,g_s_to_an,g_an_to_s,"
            "nu_set_min,nu_set_max,ratio,skip_flag"
        )
        assert len(lines) == 6
        assert lines[1] == f"0,1,0,1,{LNCOSH1_TOKEN},{LNCOSH1_TOKEN},,,,0"
        fields = lines[2].split(",")
        assert fields[:5] == ["1", "0.4", "0", "0.16", "0"]
        assert float(fields[5]) > 0.0
        assert fields[6:] == ["0", "0.84", "0.16", "0"]

    def test_row_count_default_length(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3")
        assert code == 0
        assert len(out.strip().split("\n")) == 252

    def test_divisible_chain_has_no_negative_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--r1", "0.5", "--r2", "1", "--L", "10")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        for line in lines:
            fields = line.split(",")
            if fields[6]:
                assert float(fields[6]) >= -1e-10
        g_san = [float(line.split(",")[4]) for line in lines]
        g_ans = [float(line.split(",")[5]) for line in lines]
        assert all(b <= a + 1e-10 for a, b in zip(g_san, g_san[1:]))
        assert all(b <= a + 1e-10 for a, b in zip(g_ans, g_ans[1:]))

    def test_steering_columns_non_monotone_at_revival_point(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3",
                            "--xi", "1", "--L", "250", "--env", "vacuum")
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 251
        for col in (4, 5):
            series = [float(line.split(",")[col]) for line in lines]
            diffs = np.diff(series)
            assert np.any(diffs > 1e-6) and np.any(diffs < -1e-6)

    def test_skip_flag_on_singular_step(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--r1", "0", "--r2", "0.5", "--L", "3")
        lines = out.strip().split("\n")
        fields = lines[3].split(",")  # j = 2: previous c22 is exactly zero
        assert fields[0] == "2"
        assert fields[6] == "" and fields[7] == "" and fields[8] == ""
        assert fields[9] == "1"

    def test_oracle_flag_cross_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--r1", "0.55", "--r2", "0.35", "--phi", "1.1",
            "--env", "squeezed-thermal", "--n", "0.7", "--zeta", "0.45",
            "--phi-env", "0.9", "--L", "12", "--oracle",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 14

    @staticmethod
    def printed_columns(config):
        """evolve's joint covariances, g_s_to_an and g_an_to_s, which --oracle checks."""
        traj = run(config)
        return traj.joint_cm, *(steering_series(traj, d) for d in cli.DIRECTIONS)

    def test_oracle_checks_the_printed_covariances(self, capsys, corrupt_blocks):
        def perturbed(start, c22, w):
            c22[:, 7] *= 1 - 1e-6  # |c22|^2, joint_cm[7] and both steering columns follow

        corrupt_blocks(perturbed)  # one block
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12",
                                 "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 7:" in err

    def test_oracle_checks_the_printed_steering(self):
        # A G off by 1e-6 with its |c22|^2 left alone: no fault of the chain makes one.
        config = SimulationConfig(r1=0.4, r2=0.3, L=12)
        joint_cm, g_san, g_ans = self.printed_columns(config)
        g_ans[5] += 1e-6
        with pytest.raises(GaussCollideError,
                           match="oracle mismatch at step 5: max deviation 1e-06 in g_an_to_s"):
            reference.verify_against_oracle(config, joint_cm, g_san, g_ans)

    def test_oracle_allows_for_the_conditioning_of_its_determinants(self, capsys):
        # At xi = 12 the 4x4 determinants resolve G only to about 1e-6.
        code, out, _ = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12",
                               "--xi", "12", "--oracle")
        assert code == 0 and len(out.split("\n")) == 15

    LARGE_XI = ("evolve", "--r1", ".4", "--r2", ".3", "--L", "50", "--xi", "18",
                "--env", "squeezed-thermal", "--n", "0.3", "--zeta", "0.5")

    def test_oracle_scales_its_covariance_tolerance_with_the_entries(self, capsys):
        # At xi = 18 the entries reach cosh 18 = 3.3e7, so rounding alone moves them by 1e-8.
        _, plain, _ = run_cli(capsys, *self.LARGE_XI)
        code, out, err = run_cli(capsys, *self.LARGE_XI, "--oracle")
        assert (code, out, err) == (0, plain, "")

    def test_oracle_still_checks_covariances_with_large_entries(self, capsys, corrupt_blocks):
        def perturbed(start, c22, w):
            c22[:, 22] *= np.exp(1e-6j)  # only joint_cm follows; steering reads |c22|^2

        corrupt_blocks(perturbed)  # one block
        code, out, err = run_cli(capsys, *self.LARGE_XI, "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 22:" in err and "in joint_cm" in err

    def test_oracle_checks_steering_below_its_absolute_floor(self, capsys):
        # At xi = 1 the conditioning term is far below 1e-8, so a G in (0, 1e-8]
        # is checked to 1e-8 absolute, not counted as unchecked.
        argv = ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "600")
        _, plain, _ = run_cli(capsys, *argv)
        g = np.array([line.split(",")[4:6] for line in plain.split("\n")[1:-1]], float)
        assert np.any((0.0 < g) & (g <= 1e-8))
        assert run_cli(capsys, *argv, "--oracle") == (0, plain, "")

    @pytest.mark.parametrize("xi", ["20", "100", "177"])
    def test_oracle_skips_steering_where_its_determinant_rounds_to_zero(self, capsys, xi):
        argv = ("evolve", "--r1", ".4", "--r2", ".3", "--L", "12", "--xi", xi)
        _, plain, _ = run_cli(capsys, *argv)
        unchecked = {"20": 1, "100": 3, "177": 4}[xi]
        assert run_cli(capsys, *argv, "--oracle") == (0, plain, (
            f"warning: --oracle could not check the steering at {unchecked} of 13 steps, "
            "first at step 0\n"))

    def test_oracle_names_the_steps_its_tolerance_cannot_resolve(self, capsys):
        # At xi = 19 the steering tolerance at step 0 (16 eps cosh^2 xi, about 51)
        # exceeds G = ln cosh 19, so an error of 5 there passes, but not silently.
        config = SimulationConfig(r1=0.4, r2=0.3, joint=JointSpec(xi=19.0), L=12)
        joint_cm, g_san, g_ans = self.printed_columns(config)
        g_ans[0] += 5.0
        reference.verify_against_oracle(config, joint_cm, g_san, g_ans)
        assert capsys.readouterr().err == ("warning: --oracle could not check the steering at 1 "
                                           "of 13 steps, first at step 0\n")

    def test_oracle_checks_covariances_where_it_cannot_check_steering(self, capsys,
                                                                       corrupt_blocks):
        def perturbed(start, c22, w):
            c22[:, 1] *= np.exp(1e-6j)  # only joint_cm follows; steering reads |c22|^2

        corrupt_blocks(perturbed)  # one block
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12",
                                 "--xi", "20", "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 1:" in err and "in joint_cm" in err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_skipped_steps_straddling_blocks_keep_their_bytes(self, capsys, monkeypatch, fmt):
        # r1 = 0: every other step follows c22 = 0 and is skipped, so blocks of
        # 3 steps start at skipped and unskipped steps alike.
        argv = ("evolve", "--r1", "0", "--r2", "0.5", "--xi", "0.7", "--env", "thermal",
                "--n", "0.3", "--L", "12", "--format", fmt)
        code, whole, _ = run_cli(capsys, *argv)  # one block
        assert code == 0
        monkeypatch.setattr(cli, "EMIT_ROWS", 3)
        blocks = list(witnesses.witness_blocks([SimulationConfig(r1=0.0, r2=0.5, L=12)], 12,
                                               (Direction.B_TO_A,), cli.EMIT_ROWS))
        assert [j[0] for j, *_ in blocks] == [0, 3, 6, 9, 12]
        assert {c_sq[0, -1] < 1e-14 for _, _, c_sq, *_ in blocks[:-1]} == {True, False}
        assert run_cli(capsys, *argv) == (0, whole, "")

    @pytest.mark.parametrize("argv", [
        ("evolve", "--env", "squeezed-thermal", "--n", "0.3", "--zeta", "0.8", "--phi-env", "0.7"),
        ("evolve", "--env", "squeezed-thermal", "--n", "0.3", "--zeta", "0.8", "--phi-env", "0.7",
         "--format", "jsonl"),
        ("transport", "--modes", "1,35,301"),
    ], ids=["evolve-csv", "evolve-jsonl", "transport"])
    def test_stdout_does_not_depend_on_the_block_size(self, capsys, monkeypatch, argv):
        # At L = 300 the evaluator's blocks are 17 steps, gathered to 17 (EMIT_ROWS
        # 1 and 3), 34 (20) or 272 (256): a block's first divisibility step reads
        # the |c22|^2 carried from the block before, and E_35's middle row, step 34,
        # opens a block at 1, 3 and 20.
        argv = (*argv, "--r1", "0.4", "--r2", "0.3", "--L", "300")
        code, whole, _ = run_cli(capsys, *argv)
        assert code == 0 and len(whole.splitlines()) == 301 + ("jsonl" not in argv)
        for rows in (1, 3, 20):
            monkeypatch.setattr(cli, "EMIT_ROWS", rows)
            assert run_cli(capsys, *argv) == (0, whole, ""), rows

    @pytest.mark.parametrize("xi", ["10", "20", "100", "177"])
    def test_large_squeezing_prints_ln_cosh_xi(self, capsys, xi):
        code, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3",
                               "--xi", xi)
        assert code == 0
        token = format(math.log(math.cosh(float(xi))), ".12g")
        assert out.split("\n")[1].split(",")[4:6] == [token, token]

    def test_oracle_memory_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "physical_memory", lambda: 10 * 2**20)
        # The oracle's one (2L + 6)^2 covariance takes 32 MB at L = 1000.
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3",
                                 "--L", "1000", "--oracle")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "L = 1000 " in err and err.count("\n") == 1
        code, _, _ = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12", "--oracle")
        assert code == 0

    def test_deterministic_repeat(self, capsys):
        args = ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "40")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_pi_token_matches_radians(self, capsys):
        _, symbolic, _ = run_cli(capsys, "evolve", "--r1", "0.75", "--r2", "0.15",
                                 "--phi", "pi", "--L", "20")
        _, numeric, _ = run_cli(capsys, "evolve", "--r1", "0.75", "--r2", "0.15",
                                "--phi", repr(math.pi), "--L", "20")
        assert symbolic == numeric

    def test_jsonl_format(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3",
                            "--L", "3", "--format", "jsonl")
        lines = out.strip().split("\n")
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert list(first) == [
            "j", "re_c22", "im_c22", "abs_c22_sq", "g_s_to_an", "g_an_to_s",
            "nu_set_min", "nu_set_max", "ratio", "skip_flag",
        ]
        assert first["j"] == 0
        assert first["re_c22"] == 1
        assert first["nu_set_min"] is None
        assert first["skip_flag"] is False
        second = json.loads(lines[1])
        assert second["abs_c22_sq"] == pytest.approx(0.16)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        _, out, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "5")
        code = main(["evolve", "--r1", "0.4", "--r2", "0.3", "--L", "5",
                     "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text() == out


def _token(v, fmt: str) -> str:
    """The reference formatter: one value of a row tuple as a CSV or JSON token."""
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


def _reference_text(header, rows, fmt: str) -> str:
    """The reference table text, one row tuple at a time (None is blank)."""
    if fmt == "csv":
        return "".join([",".join(header) + "\n"]
                       + [",".join(_token(v, fmt) for v in row) + "\n" for row in rows])
    keys = [f'"{k}": ' for k in header]
    lines = ["{" + ", ".join(k + _token(v, fmt) for k, v in zip(keys, row)) + "}\n"
             for row in rows]
    return "".join(lines)


def _table(rows, width):
    """Row tuples as emit's table (NaN where a tuple has None) and blank rows
    (the tuples with a None)."""
    values = [[math.nan if v is None else v for v in row] for row in rows]
    blank = [None in row for row in rows]
    return np.array(values, float).reshape(-1, width), np.array(blank, bool)


EVOLVE_HEADER = ["j", "re_c22", "im_c22", "abs_c22_sq", "g_s_to_an", "g_an_to_s",
                 "nu_set_min", "nu_set_max", "ratio", "skip_flag"]

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
                     1e300, -1e300, 1e-300, -1e-300, 0.1234567890125, 1.0000000000005,
                     9.9999999999995, 999999999999.5, 123456789012.5, 2.0**53]),
    st.integers(-2**53, 2**53).map(float),
)


class TestEmit:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 2**53), st.lists(FINITE, min_size=3, max_size=3),
                                st.booleans(), st.booleans()), max_size=9),
        fmt=st.sampled_from(["csv", "jsonl"]),
        emit_rows=st.sampled_from([1, 2, 256]),
    )
    def test_bytes_equal_the_reference(self, rows, fmt, emit_rows):
        # A blank row leaves its BLANK_COLUMNS empty, here nu_set_max and ratio but not a.
        header = ["j", "a", "nu_set_max", "ratio", "skip_flag"]
        rows = [(j, a, *([None] * 2 if blank else values), flag)
                for j, (a, *values), blank, flag in rows]
        table, blank = _table(rows, len(header))
        buf = io.StringIO()
        with mock.patch.object(cli, "EMIT_ROWS", emit_rows), contextlib.redirect_stdout(buf):
            cli.emit(header, table, fmt, sys.stdout, blank)
        assert buf.getvalue() == _reference_text(header, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_value_is_refused_before_writing(self, fmt):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(GaussCollideError, match="output row 1, column b: non-finite"):
                cli.emit(["a", "b"], np.array([(1.0, 2.0), (3.0, value)]), fmt, io.StringIO())

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_measure_exits_3(self, capsys, monkeypatch, tmp_path, fmt):
        divisibility_columns = witnesses.divisibility_columns

        def unbounded_violation(c_sq, env):  # at step L: n_cptp adds -nu_plus = inf
            nu_p, *rest = divisibility_columns(c_sq, env)
            nu_p[..., -1] = -math.inf
            return nu_p, *rest

        monkeypatch.setattr(witnesses, "divisibility_columns", unbounded_violation)
        argv = ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9", "--L", "10", "--format", fmt)
        existing = tmp_path / "table"
        existing.write_bytes(b"r1,r2\r\n0.2,0.3\n")
        for out_flag in ((), ("--out", str(existing))):
            code, out, err = run_cli(capsys, *argv, *out_flag)
            assert code == 3 and out == ""
            assert err.startswith("error: ") and "column n_cptp" in err and err.count("\n") == 1
        assert existing.read_bytes() == b"r1,r2\r\n0.2,0.3\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_are_written_in_chunks(self, capsys, monkeypatch, fmt):
        header = ["j", "v", "ratio", "skip_flag"]
        rows = [(j, j / 7, None if j % 3 else j / 3, j % 2 == 0) for j in range(10)]
        table, blank = _table(rows, len(header))
        cli.emit(header, table, fmt, sys.stdout, blank)
        whole = capsys.readouterr().out
        writes = []
        monkeypatch.setattr(cli, "EMIT_ROWS", 3)
        monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(write=writes.append))
        cli.emit(header, table, fmt, sys.stdout, blank)
        assert "".join(writes) == whole
        assert len(writes) == (5 if fmt == "csv" else 4)  # the header, then 3 + 3 + 3 + 1 rows

    def test_late_non_finite_value_writes_nothing(self, monkeypatch):
        monkeypatch.setattr(cli, "EMIT_ROWS", 2)
        table = np.array([(j, float(j)) for j in range(9)] + [(9, math.inf)])
        with pytest.raises(GaussCollideError, match="output row 9, column b: non-finite"):
            cli.emit(["a", "b"], table, "csv", io.StringIO())

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_late_non_finite_cell_exits_3_and_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                             to_file):
        # emit writes the blocks before the bad one to the spool, which is never copied out.
        monkeypatch.setattr(cli, "EMIT_ROWS", 20)
        witness_blocks = cli.witness_blocks

        def inf_at_step_77(configs, L, directions, rows):
            for j, c22, c_sq, w, *g in witness_blocks(configs, L, directions, rows):
                if j[0] <= 77 <= j[-1]:
                    for series in g:
                        series[:, 77 - j[0]] = math.inf
                yield j, c22, c_sq, w, *g

        monkeypatch.setattr(cli, "witness_blocks", inf_at_step_77)
        existing = tmp_path / "table"
        existing.write_bytes(b"j,g\r\n0,1\n")
        out_flag = ("--out", str(existing)) if to_file else ()
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "100",
                                 *out_flag)
        assert (code, out) == (3, "")
        assert err == ("error: numerical degeneracy: output row 77, column g_s_to_an: "
                       "non-finite value inf\n")
        assert existing.read_bytes() == b"j,g\r\n0,1\n"

    def test_blank_cells_are_not_checked(self, capsys):
        # A blank row leaves only its BLANK_COLUMNS unchecked.
        table = np.array([[1.0, math.nan], [2.0, -math.inf], [3.0, 4.0]])
        cli.emit(["a", "ratio"], table, "csv", sys.stdout, np.array([True, True, False]))
        assert capsys.readouterr().out == "a,ratio\n1,\n2,\n3,4\n"
        with pytest.raises(GaussCollideError, match="output row 0, column a: non-finite value inf"):
            cli.emit(["a", "ratio"], np.array([[math.inf, 1.0]]), "csv", io.StringIO(),
                     np.array([True]))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_divisibility_cell_exits_3(self, capsys, monkeypatch, fmt):
        # A row that is not blank keeps its divisibility cells checked.
        divisibility_columns = cli.divisibility_columns

        def nan_ratio_at_step_5(c_sq, env):
            nu_p, nu_m, ratio, skipped = divisibility_columns(c_sq, env)
            assert not skipped[-6]
            ratio[-6] = math.nan  # one block: the columns end at step L = 10
            return nu_p, nu_m, ratio, skipped

        monkeypatch.setattr(cli, "divisibility_columns", nan_ratio_at_step_5)
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "10",
                                 "--format", fmt)
        assert (code, out) == (3, "")
        assert err == ("error: numerical degeneracy: output row 5, column ratio: "
                       "non-finite value nan\n")

    def test_string_cells_are_refused(self, capsys):
        with pytest.raises(TypeError):
            cli.emit(["name"], np.array([['say "hi"']]), "jsonl", sys.stdout)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_memory_is_bounded_by_the_chunk(self, monkeypatch, fmt):
        # Beyond the table itself, emit holds one chunk of EMIT_ROWS rows at a
        # time (about 90 B per cell), whatever the number of rows.
        n = 10**5
        rng = np.random.default_rng(n)
        table = rng.normal(size=(n, len(EVOLVE_HEADER)))
        table[:, 0], table[:, -1] = np.arange(n), rng.random(n) < 0.1
        blank = table[:, -1] == 1
        written = []
        monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(
            write=lambda text: written.append(len(text))))
        tracemalloc.start()
        try:
            cli.emit(EVOLVE_HEADER, table, fmt, sys.stdout, blank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.EMIT_ROWS * len(EVOLVE_HEADER) * 128 < table.nbytes / 20, peak
        assert len(written) == (n // cli.EMIT_ROWS + 1) + (fmt == "csv")  # every row written


class TestConfigFile:
    def test_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r1 = 0.4\nr2 = 0.3\nL = 5  # five rounds\n")
        _, from_cfg, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        _, from_flags, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "5")
        assert from_cfg == from_flags

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r1=0.4\nr2=0.3\nsteps=5\n")
        _, overridden, _ = run_cli(capsys, "evolve", "--config", str(cfg), "--r2", "0.8")
        _, direct, _ = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.8", "--L", "5")
        assert overridden == direct

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r1=0.4\nwarp=9\n")
        code, _, err = run_cli(capsys, "evolve", "--config", str(cfg), "--r2", "0.3")
        assert code == 2
        assert "warp" in err

    @pytest.mark.parametrize("command,line,key", [
        (("thresholds", "--family", "s-to-an", "--n-values", "0,1"), "xi = 5", "xi"),
        (("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3"), "grid_r1 = 0,1", "grid_r1"),
        (("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3"), "modes = 1", "modes"),
        (("scan", "--grid-r1", "0,1", "--grid-r2", "0,1", "--L", "3"), "r1 = 0.4", "r1"),
    ], ids=["thresholds-xi", "evolve-grid_r1", "evolve-modes", "scan-r1"])
    def test_key_without_a_flag_in_the_subcommand_rejected(self, capsys, tmp_path, command,
                                                            line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = csv\n{line}\n")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {cfg}: config key {key!r} is not an option of {command[0]}\n"

    @pytest.mark.parametrize(
        "key,value",
        [("phi", "piz"), ("xi", "abc"), ("L", "2.5"), ("env", "warp"), ("format", "xml")],
    )
    def test_malformed_value_exits_2(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"r1 = 0.4\nr2 = 0.3\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 2
        assert repr(value) in err

    def test_file_not_utf8_names_itself(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"r1 = 0.4\nr2 = \xff0.3\n")
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 14")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "--config", "/nonexistent.cfg",
                             "--r1", "0.4", "--r2", "0.3")
        assert code == 2


class TestScan:
    def test_schema_and_row_major_order(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--grid-r1", "0.2,0.8",
                               "--grid-r2", "0.3,0.9", "--L", "30")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r1,r2,n_gs_s_to_an,n_gs_an_to_s,n_cptp"
        assert len(lines) == 5
        starts = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert starts == [("0.2", "0.3"), ("0.2", "0.9"), ("0.8", "0.3"), ("0.8", "0.9")]

    def test_grid_validation(self, capsys, tmp_path):
        assert run_cli(capsys, "scan", "--grid-r2", "0.1,0.9", "--L", "10")[0] == 2
        assert run_cli(capsys, "scan", "--grid-r1", "0.5", "--grid-r2", "0.1,0.9",
                       "--L", "10")[0] == 2
        code, _, err = run_cli(capsys, "scan", "--grid-r1", "0,1", "--grid-r2", "0,1", "--L", "1")
        assert code == 2 and err.endswith("error: scan needs --L >= 2\n")
        assert run_cli(capsys, "scan", "--grid-r1", "0.1,0.9", "--grid-r2", "0.1,0.9",
                       "--L", "10", "--jobs", "0")[0] == 2
        cfg = tmp_path / "grid.cfg"
        for spec in ("0:1:1", "a,b"):
            code, _, err = run_cli(capsys, "scan", "--grid-r1", spec, "--grid-r2", "0.1,0.9",
                                   "--L", "10")
            assert code == 2 and "--grid-r1" in err
            cfg.write_text(f"grid_r1 = {spec}\ngrid_r2 = 0.1,0.9\n")
            code, _, err = run_cli(capsys, "scan", "--config", str(cfg), "--L", "10")
            assert code == 2 and "--grid-r1" in err

    def test_jobs_starts_no_process(self, capsys, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("scan started a process")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
        args = ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.6,0.9", "--L", "10")
        code, serial, _ = run_cli(capsys, *args, "--jobs", "1")
        assert code == 0
        assert run_cli(capsys, *args, "--jobs", "100000") == (0, serial, "")

    def test_degeneracy_names_its_cell(self, capsys, corrupt_blocks):
        def unphysical_cell(start, c22, w):
            assert start == 0 and len(w) == 4  # the grid's one block
            w[3, 5] = 10.0  # r1 = 0.8, r2 = 0.9; |W| <= 1 - |c22|^2 on a physical row

        corrupt_blocks(unphysical_cell)
        code, out, err = run_cli(capsys, "scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9",
                                 "--L", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: cell r1 = 0.8, r2 = 0.9: coefficient column not normalized "
                              "at row 5: |W| = 10.0 exceeds H = 1 - |c22|^2 = ")
        assert err.count("\n") == 1

    def test_out_of_memory_length(self, capsys, monkeypatch):
        # A cell keeps up to 17 B per step of G increments: 1.7 GB at L = 10^8,
        # refused on a 1 GiB host before the first step.
        def no_steps(*args):
            raise AssertionError("scan started stepping")

        monkeypatch.setattr(engine, "physical_memory", lambda: 2**30)
        monkeypatch.setattr(engine, "_blocks", no_steps)
        code, out, err = run_cli(capsys, "scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9",
                                 "--L", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--L" in err and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [("0.1:0.9:250", "0.1:0.9:250"), ("0.1:0.9:62500", "0,1"),
                                      ("0:1:" + "9" * 18, "0,1")])
    def test_out_of_memory_grid(self, capsys, monkeypatch, grid):
        # A 250 x 250 grid at L = 2 asks for 27 MB (it peaks at 15 MiB of
        # traced heap): refused on a 20 MiB host before a block or an axis is built.
        def refused(*args):
            raise AssertionError("scan built its grid")

        monkeypatch.setattr(engine, "physical_memory", lambda: 20 * 2**20)
        monkeypatch.setattr(engine, "_blocks", refused)
        monkeypatch.setattr(np, "linspace", refused)
        code, out, err = run_cli(capsys, "scan", "--grid-r1", grid[0], "--grid-r2", grid[1],
                                 "--L", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--grid-r1" in err and err.count("\n") == 1
        assert err.endswith("; lower --L or the --grid-r1 and --grid-r2 counts\n")

    @pytest.mark.parametrize("argv,flag", [
        (("scan", "--grid-r1", "0:1:" + "9" * 400, "--grid-r2", "0,1", "--L", "2"), "--grid-r1"),
        (("thresholds", "--family", "s-to-an", "--n-values", "0:1:" + "9" * 400), "--n-values"),
    ])
    def test_count_beyond_an_array_is_a_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: grid count must be >= 2 "
                                             f"and <= {sys.maxsize}")

    def test_grid_within_memory_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "physical_memory", lambda: 20 * 2**20)
        code, out, _ = run_cli(capsys, "scan", "--grid-r1", "0.1:0.9:40", "--grid-r2",
                               "0.1:0.9:40", "--L", "2")
        assert code == 0 and out.count("\n") == 1 + 40 * 40

    @settings(max_examples=20, deadline=None)
    @given(
        r1=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.6]), min_size=2, max_size=3),
        r2=st.lists(st.sampled_from([0.0, 1.0, 0.35, 0.8]), min_size=2, max_size=3),
        phi=st.sampled_from([0.0, 0.7, -2.5]),
        family=st.sampled_from(ENV_FAMILIES),
        L=st.integers(2, 300),
        emit_rows=st.sampled_from([1, 3, 256]),
        whole_grid=st.booleans(),
    )
    def test_rows_match_per_cell_reference(self, r1, r2, phi, family, L, emit_rows, whole_grid):
        # Blocks of EMIT_ROWS or more steps, in chunks of one cell or of the
        # whole grid: block edges fall inside revivals and inside runs of
        # skipped steps, across which each cell carries G and |c22|^2.
        params = {"vacuum": {}, "thermal": {"n": 0.4}, "squeezed": {"zeta": 0.3},
                  "squeezed-thermal": {"n": 0.4, "zeta": 0.3, "phi_env": 1.1}}[family]
        flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in params.items()]
        argv = ["scan", "--grid-r1=" + ",".join(map(repr, r1)),
                "--grid-r2=" + ",".join(map(repr, r2)), f"--phi={phi!r}", f"--env={family}",
                *flags, f"--L={L}"]
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
            mp.setattr(cli, "EMIT_ROWS", emit_rows)
            cells = len(r1) * len(r2) if whole_grid else 1
            mp.setattr(witnesses, "SCAN_CHUNK_BYTES",
                       cells * witnesses.scan_chunk(1, L, cli.EMIT_ROWS)[1])
            assert main(argv) == 0
        env = EnvironmentSpec(**params)
        rows = []
        for a in r1:
            for b in r2:
                traj = run(SimulationConfig(r1=a, r2=b, phi_shift=phi, env=env, L=L))
                rows.append((a, b, nm_from_steering(steering_series(traj, Direction.B_TO_A)),
                             nm_from_steering(steering_series(traj, Direction.A_TO_B)),
                             nm_cptp(traj).value))
        header = ["r1", "r2", "n_gs_s_to_an", "n_gs_an_to_s", "n_cptp"]
        assert buf.getvalue() == _reference_text(header, rows, "csv")

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_markovian_line_prints_zero(self, capsys, monkeypatch, phi):
        # r2 = 1 hands every round a fresh environment mode: |c22|^2 = r1^(2j)
        # never increases, and every measure is exactly 0, over several blocks
        # of the block powers and in chunks of one cell and of many.
        r1s = (0.0, 0.5, 0.9, 0.99, 0.999999)
        configs = [SimulationConfig(r1=r1, r2=1.0, phi_shift=phi, L=5000) for r1 in r1s]
        argv = ("scan", "--grid-r1", ",".join(map(repr, r1s)), "--grid-r2", "0.5,1",
                "--phi", repr(phi), "--env", "thermal", "--n", "0.5", "--L", "5000")
        (block,) = engine._column_blocks(configs, 5000, 5001)
        for config, c_sq in zip(configs, engine._columns(*block)[1]):
            assert np.all(np.diff(c_sq) <= 0.0), config.r1
        outputs = []
        for cells in (1, len(configs)):
            monkeypatch.setattr(witnesses, "SCAN_CHUNK_BYTES",
                                cells * witnesses.scan_chunk(1, 5000, cli.EMIT_ROWS)[1])
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert [row[2:] for row in rows if row[1] == "1"] == [["0", "0", "0"]] * len(r1s)
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_parallel_matches_serial(self, capsys, tmp_path):
        base = ["scan", "--grid-r1", "0.2,0.5,0.8", "--grid-r2", "0.3,0.7",
                "--L", "25"]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_env_var(self, capsys, monkeypatch):
        # GAUSSCOLLIDE_JOBS is not read: no value changes the exit code or output
        args = ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9", "--L", "20")
        expected = run_cli(capsys, *args)
        assert expected[0] == 0
        for value in ("2", "0", "abc"):
            monkeypatch.setenv("GAUSSCOLLIDE_JOBS", value)
            assert run_cli(capsys, *args) == expected

    def test_markovian_line(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--grid-r1", "0.3,0.7",
                            "--grid-r2", "0.5,1.0", "--L", "60")
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            if fields[1] == "1":
                assert all(abs(float(v)) < 1e-10 for v in fields[2:])


class TestTransport:
    def test_schema_and_early_exchange(self, capsys):
        code, out, _ = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                               "--L", "6", "--modes", "2,3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,g_s_to_an,g_e2_to_an,g_e3_to_an"
        assert len(lines) == 8
        j1 = lines[2].split(",")
        assert float(j1[1]) == 0.0 and float(j1[2]) > 0.0
        j2 = lines[3].split(",")
        assert float(j2[1]) > 0.0 and float(j2[2]) == 0.0

    def test_mode_beyond_light_cone_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                            "--L", "8", "--modes", "8")
        lines = out.strip().split("\n")[1:]
        for line in lines[:5]:  # mode 8 first collides in round 7
            assert float(line.split(",")[2]) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_system_column_equals_evolve(self, seed):
        rng = np.random.default_rng(seed)
        family = ENV_FAMILIES[seed]
        common = [f"--r1={rng.uniform()!r}", f"--r2={rng.uniform()!r}",
                  f"--phi={rng.uniform(-3, 3)!r}", f"--xi={rng.uniform(0.1, 3)!r}",
                  f"--env={family}", f"--L={int(rng.integers(1, 300))}"]
        if family in ("thermal", "squeezed-thermal"):
            common.append(f"--n={rng.uniform(0, 2)!r}")
        if family in ("squeezed", "squeezed-thermal"):
            common += [f"--zeta={rng.uniform(0, 1.2)!r}", f"--phi-env={rng.uniform(0, 6)!r}"]
        columns = []
        for argv, column in ((["evolve", *common], 4), (["transport", *common, "--modes=1"], 1)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            columns.append([line.split(",")[column] for line in buf.getvalue().split("\n")[1:-1]])
        assert columns[0] == columns[1]

    @pytest.mark.parametrize("xi", ["0", "2.5", "14", "20", "177"])
    def test_system_column_bytes_equal_evolve_at_any_xi(self, xi):
        common = ["--r1=0.7", "--r2=0.2", "--phi=1.3", f"--xi={xi}", "--env=squeezed-thermal",
                  "--n=0.4", "--zeta=1.1", "--phi-env=0.5", "--L=40", "--format=jsonl"]
        columns = []
        for argv, key in ((["evolve", *common], "g_s_to_an"),
                          (["transport", *common, "--modes=1,20,41"], "g_s_to_an")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            columns.append([line.split(f'"{key}": ')[1].split(",")[0]
                            for line in buf.getvalue().split("\n")[:-1]])
        assert columns[0] == columns[1]
        assert columns[0][0] == format(math.log(math.cosh(float(xi))), ".12g")

    def test_out_of_memory_length(self, capsys, monkeypatch):
        # One block of 10^7 steps and three columns needs about 6 MB: refused
        # on a 2 MiB host before the first step.
        def no_steps(*args):
            raise AssertionError("transport started stepping")

        monkeypatch.setattr(engine, "physical_memory", lambda: 2 * 2**20)
        monkeypatch.setattr(engine, "_blocks", no_steps)
        code, out, err = run_cli(capsys, "transport", "--r1", ".4", "--r2", ".3",
                                 "--L", "10000000", "--modes", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory (L = 10000000 needs ")
        assert err.endswith("; lower --L or the number of --modes\n") and err.count("\n") == 1

    def test_memory_guard_charges_each_mode_once(self, capsys, monkeypatch):
        # The whole table of 10^4 steps would not fit 2 MiB; one block does.
        monkeypatch.setattr(engine, "physical_memory", lambda: 2 * 2**20)
        argv = ("transport", "--r1", ".4", "--r2", ".3", "--L", "10000", "--modes")
        code, out, _ = run_cli(capsys, *argv, "1,2000,4000,6000,8000,10001")
        assert code == 0 and len(out.split("\n")) == 10003
        # Eight columns (j, the system and six modes) charge one block term each.
        monkeypatch.setattr(engine, "physical_memory", lambda: 8 * engine.block_bytes(10000))
        code, out, _ = run_cli(capsys, *argv, "1,2000,4000,6000,8000,10001")
        assert code == 0 and len(out.split("\n")) == 10003
        code, out, err = run_cli(capsys, *argv, "1,2000,4000,6000,8000,9000,10001")
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory (L = 10000 needs ") and err.count("\n") == 1

    def test_runs_without_the_full_chain_oracle(self, capsys, monkeypatch):
        def oracle_only(*args, **kwargs):
            raise AssertionError("transport ran full-chain reference code")

        for module, name in ((reference, "apply_collision_to_cm"), (engine, "env_ancilla_cm"),
                             (engine, "initial_full_cm")):
            monkeypatch.setattr(module, name, oracle_only)
        code, out, _ = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                               "--L", "30", "--modes", "1,15,31")
        assert code == 0
        assert len(out.strip().split("\n")) == 32

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.integers(1, 40),
        r1=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        r2=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        phi=st.floats(-4.0, 4.0),
        xi=st.floats(0.0, 3.0),
        family=st.sampled_from(ENV_FAMILIES),
        n=st.floats(0.0, 2.0),
        zeta=st.floats(0.0, 1.2),
        phi_env=st.floats(0.0, 6.3),
    )
    def test_columns_match_the_full_chain_oracle(self, L, r1, r2, phi, xi, family, n,
                                                  zeta, phi_env):
        n = n if family in ("thermal", "squeezed-thermal") else 0.0
        zeta = zeta if family in ("squeezed", "squeezed-thermal") else 0.0
        modes = sorted({1, (L + 2) // 2, L + 1})
        argv = ["transport", f"--r1={r1!r}", f"--r2={r2!r}", f"--phi={phi!r}", f"--xi={xi!r}",
                f"--env={family}", f"--n={n!r}", f"--zeta={zeta!r}", f"--phi-env={phi_env!r}",
                f"--L={L}", "--modes=" + ",".join(map(str, modes))]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]

        config = SimulationConfig(
            r1=r1, r2=r2, phi_shift=phi, joint=JointSpec(xi=xi),
            env=EnvironmentSpec(n=n, zeta=zeta, phi_env=phi_env), L=L, oracle_enabled=True,
        )
        for j, _, sigma in iter_steps(config):
            for column, k in enumerate(modes, start=2):
                ref = steerability(env_ancilla_cm(sigma, k), Direction.A_TO_B)
                assert float(rows[j][column]) == pytest.approx(ref, rel=0, abs=1e-10)
                if j < k - 1:
                    assert ref == 0.0 and rows[j][column] == "0"
                if j >= k:
                    assert rows[j][column] == rows[k][column]

    def test_degeneracy_names_step_and_column(self, capsys, monkeypatch):
        constants = engine._round_constants

        def leaky(block):  # the system amplitude gains 1% per round
            k = constants(block)
            return ((k[0][0] * 1.01, k[0][1] * 1.01), *k[1:])

        monkeypatch.setattr(engine, "_round_constants", leaky)
        # The E_k rows are checked before the chain: the first to fail is E_30's
        # carried row, printed at j = k - 1 = 29, or E_1's middle row, at j = k = 1.
        for modes, where in (("30,35", "column g_e30_to_an: coefficient column not normalized "
                                       "at row 29: |W| = 0.7802363833732157 exceeds "),
                             ("1", "column g_e1_to_an: coefficient column not normalized "
                                   "at row 1: |W| = ")):
            code, out, err = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                                     "--L", "40", "--modes", modes)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {where}")

    def test_steers_each_distinct_covariance_once(self, capsys, monkeypatch):
        stacks, determinants = [], steering.reduced_determinants

        def counted(c_sq, *args):  # once per steering_columns call
            stacks.append(c_sq.size)
            return determinants(c_sq, *args)

        monkeypatch.setattr(steering, "reduced_determinants", counted)
        code, out, _ = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                               "--L", "30", "--modes", "1,15,31")
        assert code == 0 and len(out.strip().split("\n")) == 32
        assert sum(stacks) <= 31 + 3 * 3

    def test_mode_validation(self, capsys):
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5", "--modes", "7")[0] == 2
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5", "--modes", "x")[0] == 2
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5")[0] == 2

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_repeated_mode_is_refused(self, capsys, fmt):
        # each mode names one column: a repeat would print a key twice
        code, out, err = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                                 "--L", "5", "--modes", "1,2,2", "--format", fmt)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith("error: --modes repeats index 2")

    def test_out_of_range_mode_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                                 "--L", "5", "--modes", "7")
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith("error: --modes index 7 is out of range 1..6")


@pytest.mark.parametrize("argv", [
    ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "30"),
    ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3:0.9:3", "--L", "30"),
    ("scan", "--grid-r1", "0.2:0.8:3", "--grid-r2", "0.3:0.9:3", "--L", "30"),
    ("transport", "--r1", "0.4", "--r2", "0.3", "--L", "30", "--modes", "1,15,31"),
], ids=["evolve", "scan-per-cell", "scan-batched", "transport"])
def test_production_paths_take_no_matrix_determinant(capsys, monkeypatch, argv):
    def refused(*args, **kwargs):
        raise AssertionError("a 4x4 covariance was built or decomposed")

    monkeypatch.setattr(np.linalg, "det", refused)
    monkeypatch.setattr(engine, "joint_cm_stack", refused)
    code, out, _ = run_cli(capsys, *argv, "--env", "squeezed-thermal", "--n", "0.3",
                           "--zeta", "0.4")
    assert code == 0 and out.count("\n") > 6


@pytest.mark.parametrize("argv", [
    ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "30", "--env", "squeezed-thermal",
     "--n", "0.3", "--zeta", "0.4"),
    ("transport", "--r1", "0.4", "--r2", "0.3", "--L", "30", "--modes", "1,15,31"),
    ("scan", "--grid-r1", "0.2:0.8:3", "--grid-r2", "0.3:0.9:3", "--L", "30"),
    ("thresholds", "--family", "s-to-an", "--n-values", "0,0.5"),
], ids=["evolve", "transport", "scan", "thresholds"])
def test_production_paths_never_step_one_at_a_time(capsys, monkeypatch, argv):
    """Without --oracle no subcommand reaches iter_steps, nor run, which
    steps through it: each reads the batch evaluator."""
    plain = run_cli(capsys, *argv)

    def refused(*args, **kwargs):
        raise AssertionError("the per-step stream was reached")

    monkeypatch.setattr(engine, "iter_steps", refused)
    assert not hasattr(cli, "iter_steps")  # --oracle steps engine.iter_steps, from reference
    assert plain[0] == 0 and plain[1].count("\n") > 2
    assert run_cli(capsys, *argv) == plain


def child_env() -> dict:
    """The environment of a child process that imports this source tree."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def run_child(*argv):
    """`python -X importtime -m gausscollide.cli ARGV`: its stderr ends with one
    line per module the process imported."""
    return subprocess.run([sys.executable, "-X", "importtime", "-m", "gausscollide.cli", *argv],
                          capture_output=True, env=child_env())


def imported(stderr: bytes) -> set:
    return {line.rsplit("|", 1)[1].strip() for line in stderr.decode().splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv", [
    ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "30"),
    ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9", "--L", "30"),
    ("transport", "--r1", "0.4", "--r2", "0.3", "--L", "30", "--modes", "1,15,31"),
    ("thresholds", "--family", "s-to-an", "--n-values", "0,0.5"),
    ("evolve", "--help"),
], ids=["evolve", "scan", "transport", "thresholds", "help"])
def test_commands_never_import_the_reference(argv):
    done = run_child(*argv)
    assert done.returncode == 0 and done.stdout
    modules = imported(done.stderr)
    assert "gausscollide.engine" in modules  # the import trace covers the package
    assert "gausscollide.reference" not in modules


def test_oracle_imports_the_reference_and_keeps_the_bytes():
    argv = ("evolve", "--r1", "0.4", "--r2", "0.3", "--L", "50", "--phi", "0.7",
            "--env", "squeezed-thermal", "--n", "0.3", "--zeta", "0.4")
    plain, checked = run_child(*argv), run_child(*argv, "--oracle")
    assert plain.returncode == checked.returncode == 0
    assert checked.stdout == plain.stdout and plain.stdout.count(b"\n") == 52
    assert "gausscollide.reference" in imported(checked.stderr)
    assert "gausscollide.reference" not in imported(plain.stderr)


def test_reader_closing_the_pipe_is_not_an_error():
    # Like `| head -1`: the child still has about 2 MB to copy out when its reader leaves.
    argv = [sys.executable, "-X", "dev", "-m", "gausscollide.cli", "evolve", "--r1", ".4",
            "--r2", ".3", "--L", "100000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as child:
        header = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
    assert header.startswith(b"j,re_c22,")
    assert (child.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_write_error_names_its_target(to_file):
    # /dev/full takes the bytes into its buffer and fails the write (ENOSPC).
    argv = [sys.executable, "-X", "dev", "-m", "gausscollide.cli", "evolve", "--r1", ".4",
            "--r2", ".3", "--L", "2000", *(["--out", "/dev/full"] if to_file else [])]
    with open("/dev/full", "wb") as full:
        done = subprocess.run(argv, stdout=subprocess.PIPE if to_file else full,
                              stderr=subprocess.PIPE, env=child_env())
    target = "--out /dev/full" if to_file else "stdout"
    assert (done.returncode, done.stdout or b"") == (2, b"")
    assert done.stderr.decode() == (f"error: {target}: [Errno {errno.ENOSPC}] "
                                    f"{os.strerror(errno.ENOSPC)}\n")


class TestThresholds:
    def test_s_to_an_table(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--family", "s-to-an",
                               "--n-values", "0,0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,threshold"
        assert lines[1] == "0,0.5"
        assert lines[2] == "0.5,0.666666666667"

    def test_thermal_table(self, capsys):
        _, out, _ = run_cli(capsys, "thresholds", "--family", "an-to-s-thermal",
                            "--n-values", "0,1", "--xi-values", "1")
        lines = out.strip().split("\n")
        assert lines[0] == "n,xi,threshold"
        assert lines[1] == "0,1,0"
        assert lines[2].startswith("1,1,0.850359758")

    def test_squeezed_table(self, capsys):
        _, out, _ = run_cli(capsys, "thresholds", "--family", "an-to-s-squeezed",
                            "--xi-values", "0.7", "--zeta-values", "0,0.7,1.4")
        lines = out.strip().split("\n")
        assert lines[0] == "xi,zeta,threshold"
        assert lines[1] == "0.7,0,0"
        assert lines[2] == "0.7,0.7,0"
        assert float(lines[3].split(",")[2]) > 0.0

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("an-to-s-thermal", "--n-values", "1", "--xi-values", "800"), "xi"),
            (("s-to-an", "--n-values", "nan"), "n"),
            (("an-to-s-squeezed", "--xi-values", "800", "--zeta-values", "1"), "xi"),
            (("an-to-s-thermal", "--n-values", "1e300", "--xi-values", "700"), "n"),
        ],
    )
    def test_non_finite_or_overflowing_parameter(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "thresholds", "--family", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} ")

    def test_family_required_arguments(self, capsys):
        assert run_cli(capsys, "thresholds", "--family", "s-to-an")[0] == 2
        assert run_cli(capsys, "thresholds", "--family", "an-to-s-thermal",
                       "--n-values", "1")[0] == 2
        assert run_cli(capsys, "thresholds", "--family", "warp")[0] == 2
        assert run_cli(capsys, "thresholds")[0] == 2

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("argv,flag", [
        (("s-to-an", "--n-values", ""), "--n-values"),
        (("s-to-an", "--n-values", ","), "--n-values"),
        (("an-to-s-thermal", "--n-values", "1", "--xi-values", " , "), "--xi-values"),
        (("an-to-s-squeezed", "--xi-values", "1", "--zeta-values", ""), "--zeta-values"),
    ])
    def test_empty_axis_is_refused(self, capsys, argv, flag, fmt):
        code, out, err = run_cli(capsys, "thresholds", "--family", *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(f"error: {flag} is empty: give at least one value")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("argv,flag", [
        (("s-to-an", "--n-values", "0,1", "--xi-values", "5", "--zeta-values", "3"), "--xi-values"),
        (("s-to-an", "--n-values", "0,1", "--zeta-values", "3"), "--zeta-values"),
        (("an-to-s-thermal", "--n-values", "1", "--xi-values", "1", "--zeta-values", "0"),
         "--zeta-values"),
        (("an-to-s-squeezed", "--xi-values", "1", "--zeta-values", "0", "--n-values", "0"),
         "--n-values"),
    ])
    def test_axis_the_family_does_not_sweep_is_refused(self, capsys, argv, flag, fmt):
        code, out, err = run_cli(capsys, "thresholds", "--family", *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("usage: gausscollide thresholds ")
        assert err.splitlines()[-1].endswith(f"error: family {argv[0]} does not sweep {flag}")

    @pytest.mark.parametrize("argv,flag", [
        (("s-to-an", "--n-values", "0:1:100000"), "--n-values"),
        (("an-to-s-thermal", "--n-values", "0:1:1000", "--xi-values", "1:2:1000"), "--n-values"),
        (("an-to-s-squeezed", "--xi-values", "1:2:100000", "--zeta-values", "0,1"),
         "--zeta-values"),
    ])
    def test_out_of_memory_table(self, capsys, monkeypatch, argv, flag):
        # 10^5 rows and more: refused on a 20 MiB host before an axis or a row is built.
        def refused(*args):
            raise AssertionError("thresholds built its table")

        monkeypatch.setattr(engine, "physical_memory", lambda: 20 * 2**20)
        monkeypatch.setattr(np, "linspace", refused)
        names, _ = cli.THRESHOLD_FAMILIES[argv[0]]
        monkeypatch.setitem(cli.THRESHOLD_FAMILIES, argv[0], (names, refused))
        code, out, err = run_cli(capsys, "thresholds", "--family", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1
        assert err.endswith("; lower the --n-values, --xi-values and --zeta-values counts\n")

    def test_undefined_threshold_names_its_inputs(self, capsys):
        code, out, err = run_cli(capsys, "thresholds", "--family", "an-to-s-thermal",
                                 "--n-values", "0", "--xi-values", "0")
        assert code == 2 and out == ""
        assert err == ("error: threshold undefined at n = 0, xi = 0: "
                       "(2n+1) cosh(xi) - 1 must be positive\n")
