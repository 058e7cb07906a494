"""Command-line interface: schemas, formatting, determinism, config
handling, and exit codes."""

import concurrent.futures
import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscollide.cli as cli
import gausscollide.engine as engine
from gausscollide.cli import ENV_FAMILIES, main, parse_angle, parse_values
from gausscollide.engine import SimulationConfig, env_ancilla_cm, iter_steps
from gausscollide.errors import DegenerateCovarianceError
from gausscollide.states import EnvironmentSpec, JointSpec
from gausscollide.steering import Direction, steerability

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
    def test_degeneracy_names_the_step(self, capsys, argv, where):
        code, _, err = run_cli(capsys, *argv, "--r1", "0.4", "--r2", "0.3", "--L", "3",
                               "--xi", "20")
        assert code == 3
        assert where in err

    def test_degeneracy_exit_code(self, capsys, monkeypatch):
        def explode(config):
            raise DegenerateCovarianceError("synthetic")

        monkeypatch.setattr(cli, "run", explode)
        code, _, err = run_cli(capsys, "evolve", "--r1", "0.4", "--r2", "0.3", "--L", "3")
        assert code == 3
        assert "degeneracy" in err


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

    def test_pool_is_bounded_by_cells_and_cpus(self, capsys, monkeypatch):
        created = []

        class SerialPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.6,0.9", "--L", "10")
        _, serial, _ = run_cli(capsys, *args, "--jobs", "1")
        for cpus in (4, 64, None):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            code, out, _ = run_cli(capsys, *args, "--jobs", "100000")
            assert code == 0 and out == serial
        # min(jobs, 6 cells, cpus); one CPU (None counts as one) runs serially.
        assert created == [4, 6]

    def test_parallel_matches_serial(self, capsys, tmp_path):
        base = ["scan", "--grid-r1", "0.2,0.5,0.8", "--grid-r2", "0.3,0.7",
                "--L", "25"]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_env_var(self, capsys, monkeypatch):
        args = ("scan", "--grid-r1", "0.2,0.8", "--grid-r2", "0.3,0.9", "--L", "20")
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("GAUSSCOLLIDE_JOBS", "2")
        _, from_env, _ = run_cli(capsys, *args)
        assert from_env == serial

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

    def test_degeneracy_names_step_and_column(self, capsys, monkeypatch):
        closed_form = cli.iter_env_ancilla_cms

        def singular_at_step_2(config, modes):
            for j, coeffs, env_cms in closed_form(config, modes):
                if j == 2:
                    env_cms = (env_cms[0], np.zeros((4, 4)), *env_cms[2:])
                yield j, coeffs, env_cms

        monkeypatch.setattr(cli, "iter_env_ancilla_cms", singular_at_step_2)
        code, out, err = run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                                 "--L", "5", "--modes", "1,3,5")
        assert code == 3
        assert out == ""
        assert "step 2, column g_e3_to_an:" in err

    def test_mode_validation(self, capsys):
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5", "--modes", "7")[0] == 2
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5", "--modes", "x")[0] == 2
        assert run_cli(capsys, "transport", "--r1", "0.4", "--r2", "0.3",
                       "--L", "5")[0] == 2


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
