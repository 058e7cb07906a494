"""Command-line interface: schemas, formatting, determinism, config
handling, and exit codes."""

import concurrent.futures
import contextlib
import io
import json
import math
import os
import subprocess
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscollide.cli as cli
import gausscollide.engine as engine
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

    def test_out_of_memory_length(self, capsys):
        # 1e8 steps of records exceed physical memory: refused before the first step.
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--L" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv,where",
        [
            (("evolve",), "step 0:"),
            (("transport", "--modes", "1"), "step 0, column g_s_to_an:"),
        ],
    )
    def test_degeneracy_names_the_step(self, capsys, monkeypatch, argv, where):
        run = cli.run

        def unphysical_at_step_0(config):
            traj = run(config)
            w = traj.env_square_sum.copy()
            w[0] = 10.0  # |W| <= 1 - |c22|^2 on a physical row
            return replace(traj, env_square_sum=w)

        monkeypatch.setattr(cli, "run", unphysical_at_step_0)
        code, _, err = run_cli(capsys, *argv, "--r1", "0.4", "--r2", "0.3", "--L", "3")
        assert code == 3
        assert where in err

    def test_degeneracy_exit_code(self, capsys, monkeypatch):
        def explode(config):
            raise DegenerateCovarianceError("synthetic")

        monkeypatch.setattr(cli, "run", explode)
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
        common = [f"--r1={r!r}", f"--r2={1.0 - r!r}", f"--phi={phi!r}", f"--xi={xi!r}",
                  "--env=squeezed-thermal", f"--n={n!r}", f"--zeta={zeta!r}", "--L=30"]
        for argv in (["evolve", *common], ["transport", *common, "--modes=1,15,31"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            assert "nan" not in buf.getvalue() and "inf" not in buf.getvalue()


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

    def test_oracle_checks_the_printed_covariances(self, capsys, monkeypatch):
        run = cli.run

        def perturbed(config):
            traj = run(config)
            c_sq = traj.c22_abs_sq.copy()
            c_sq[7] -= 1e-6  # joint_cm[7] and both steering columns follow
            return replace(traj, c22_abs_sq=c_sq)

        monkeypatch.setattr(cli, "run", perturbed)
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12",
                                 "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 7:" in err

    def test_oracle_checks_the_printed_steering(self, capsys, monkeypatch):
        steering_series = cli.steering_series

        def perturbed(traj, direction):
            series = steering_series(traj, direction)
            if direction is Direction.A_TO_B:
                series[5] += 1e-6
            return series

        monkeypatch.setattr(cli, "steering_series", perturbed)
        code, out, err = run_cli(capsys, "evolve", "--r1", ".4", "--r2", ".3", "--L", "12",
                                 "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 5: max deviation 1e-06 in g_an_to_s" in err

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

    def test_oracle_still_checks_covariances_with_large_entries(self, capsys, monkeypatch):
        run = cli.run

        def perturbed(config):
            traj = run(config)
            c22 = traj.c22.copy()
            c22[22] *= 1 + 1e-6  # only joint_cm follows; steering reads |c22|^2
            return replace(traj, c22=c22)

        monkeypatch.setattr(cli, "run", perturbed)
        code, out, err = run_cli(capsys, *self.LARGE_XI, "--oracle")
        assert code == 3 and out == ""
        assert "oracle mismatch at step 22:" in err and "in joint_cm" in err

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


class TestEmit:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_value_is_refused_before_writing(self, tmp_path, fmt):
        target = tmp_path / "table"
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(GaussCollideError, match="output row 1, column b: non-finite"):
                cli.emit(["a", "b"], [(1.0, 2.0), (3.0, value)], fmt, str(target))
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_non_finite_measure_exits_3(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "nm_cptp", lambda traj: SimpleNamespace(value=math.nan))
        code, out, err = run_cli(capsys, "scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9",
                                 "--L", "10", "--format", fmt)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "column n_cptp" in err and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_are_written_in_chunks(self, capsys, monkeypatch, fmt):
        rows = [(j, j / 7, None, j % 2 == 0, "x") for j in range(10)]
        header = ["j", "v", "none", "flag", "s"]
        cli.emit(header, rows, fmt, None)
        whole = capsys.readouterr().out
        writes = []
        monkeypatch.setattr(cli, "EMIT_ROWS", 3)
        monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(writelines=writes.extend))
        cli.emit(header, rows, fmt, None)
        assert "".join(writes) == whole
        assert len(writes) == (5 if fmt == "csv" else 4)  # the header, then 3 + 3 + 3 + 1 rows

    def test_late_non_finite_value_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "EMIT_ROWS", 2)
        target = tmp_path / "table"
        rows = [(j, float(j)) for j in range(9)] + [(9, math.inf)]
        with pytest.raises(GaussCollideError, match="output row 9, column b: non-finite"):
            cli.emit(["a", "b"], rows, "csv", str(target))
        assert not target.exists()

    def test_jsonl_strings_are_escaped(self, capsys):
        text = 'say "hi"\\\n'
        cli.emit(["name"], [(text,)], "jsonl", None)
        assert json.loads(capsys.readouterr().out) == {"name": text}


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
        assert run_cli(capsys, "scan", "--grid-r1", "0.1,0.9", "--grid-r2", "0.1,0.9",
                       "--L", "1")[0] == 2
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

    def test_out_of_memory_length(self, capsys, monkeypatch):
        def no_steps(*args):
            raise AssertionError("scan started stepping")

        monkeypatch.setattr(engine, "_batched_history", no_steps)
        code, out, err = run_cli(capsys, "scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9",
                                 "--L", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--L" in err and err.count("\n") == 1

    @settings(max_examples=20, deadline=None)
    @given(
        r1=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.6]), min_size=2, max_size=3),
        r2=st.lists(st.sampled_from([0.0, 1.0, 0.35, 0.8]), min_size=2, max_size=3),
        phi=st.sampled_from([0.0, 0.7, -2.5]),
        family=st.sampled_from(ENV_FAMILIES),
        L=st.integers(2, 40),
    )
    def test_rows_match_per_cell_reference(self, r1, r2, phi, family, L):
        params = {"vacuum": {}, "thermal": {"n": 0.4}, "squeezed": {"zeta": 0.3},
                  "squeezed-thermal": {"n": 0.4, "zeta": 0.3, "phi_env": 1.1}}[family]
        flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in params.items()]
        argv = ["scan", "--grid-r1=" + ",".join(map(repr, r1)),
                "--grid-r2=" + ",".join(map(repr, r2)), f"--phi={phi!r}", f"--env={family}",
                *flags, f"--L={L}"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        env = EnvironmentSpec(**params)
        rows = []
        for a in r1:
            for b in r2:
                traj = run(SimulationConfig(r1=a, r2=b, phi_shift=phi, env=env, L=L))
                rows.append((a, b, nm_from_steering(steering_series(traj, Direction.B_TO_A)),
                             nm_from_steering(steering_series(traj, Direction.A_TO_B)),
                             nm_cptp(traj).value))
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            cli.emit(["r1", "r2", "n_gs_s_to_an", "n_gs_an_to_s", "n_cptp"], rows, "csv", None)
        assert buf.getvalue() == expected.getvalue()

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
        # 10^4 steps of STEP_BYTES + MODE_STEP_BYTES (700 B) need about 7 MB
        monkeypatch.setattr(engine, "physical_memory", lambda: 5 * 2**20)
        code, out, err = run_cli(capsys, "transport", "--r1", ".4", "--r2", ".3",
                                 "--L", "10000", "--modes", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--L" in err and err.count("\n") == 1

    def test_memory_guard_charges_each_mode_once(self, capsys, monkeypatch):
        # Six mode columns need about 0.6 kB per step more than one, not 6 x 1.2 kB.
        monkeypatch.setattr(engine, "physical_memory", lambda: 10 * 2**20)
        code, out, _ = run_cli(capsys, "transport", "--r1", ".4", "--r2", ".3", "--L", "4000",
                               "--modes", "1,800,1600,2400,3200,4001")
        assert code == 0 and len(out.split("\n")) == 4003
        code, out, err = run_cli(capsys, "transport", "--r1", ".4", "--r2", ".3", "--L", "10000",
                                 "--modes", "1,2000,4000,6000,8000,10001")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--L" in err and err.count("\n") == 1

    def test_runs_without_the_full_chain_oracle(self, capsys, monkeypatch):
        def oracle_only(*args, **kwargs):
            raise AssertionError("transport ran full-chain reference code")

        for name in ("apply_collision_to_cm", "env_ancilla_cm", "initial_full_cm"):
            monkeypatch.setattr(engine, name, oracle_only)
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

    @staticmethod
    def unphysical_rows(monkeypatch, rows):
        """Make env_mode_columns' rows at the given positions unphysical:
        |W| = 10 > 1 - |c|^2."""
        columns = cli.env_mode_columns

        def patched(config, modes):
            c22, c_sq, w, h = columns(config, modes)
            w = w.copy()
            w[rows] = 10.0
            return c22, c_sq, w, h

        monkeypatch.setattr(cli, "env_mode_columns", patched)

    def test_degeneracy_names_step_and_column(self, capsys, monkeypatch):
        self.unphysical_rows(monkeypatch, [4])  # E_3's carried row, printed at j = k - 1 = 2
        code, out, err = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                                 "--L", "5", "--modes", "1,3,5")
        assert code == 3
        assert out == ""
        assert "step 2, column g_e3_to_an:" in err

    def test_unprinted_covariances_are_not_checked(self, capsys, monkeypatch):
        argv = ("transport", "--r1", "0.4", "--r2", "0.3", "--L", "5", "--modes", "1,6")
        _, expected, _ = run_cli(capsys, *argv)
        self.unphysical_rows(monkeypatch, [0, 5])  # E_1's unit row, E_6's middle row
        assert run_cli(capsys, *argv) == (0, expected, "")

    def test_steers_each_distinct_covariance_once(self, capsys, monkeypatch):
        stacks, steering_columns = [], cli.steering_columns

        def counted(c_sq, *args):
            stacks.append(len(c_sq))
            return steering_columns(c_sq, *args)

        monkeypatch.setattr(cli, "steering_columns", counted)
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
