import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

import homlim.cli
import homlim.machines
import homlim.model
import homlim.scaling
from homlim.cli import main, parse_quantity
from homlim.costs import BUILTIN_COEFFS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


class TestQuantityParsing:
    def test_plain_numbers(self):
        assert parse_quantity("1e12") == 1e12
        assert parse_quantity("3.5") == 3.5
        assert parse_quantity("-2e-3") == -2e-3

    def test_suffixes(self):
        assert parse_quantity("1102Pflop/s") == pytest.approx(1.102e18)
        assert parse_quantity("122.3PB/s") == pytest.approx(1.223e17)
        assert parse_quantity("3.1TB") == pytest.approx(3.1e12)
        assert parse_quantity("826mm2") == pytest.approx(826e-6)
        assert parse_quantity("370m2") == 370.0

    def test_unknown_suffix(self):
        with pytest.raises(ValueError):
            parse_quantity("5parsecs")

    @pytest.mark.parametrize("text", [".", "1.2.3", "0..0", "..e3"])
    def test_malformed_number(self, text):
        with pytest.raises(ValueError, match="cannot parse number"):
            parse_quantity(text)

    def test_bare_fraction_forms(self):
        assert parse_quantity(".5") == 0.5
        assert parse_quantity("2.") == 2.0
        assert parse_quantity("1EB") == 1e18


class TestSolve:
    def test_json_output(self, runner):
        result = runner.invoke(main, ["solve", "--machine", "frontier",
                                      "--alg", "cg", "--n", "1e9"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["machine"] == "frontier"
        assert data["algorithm"] == "CG"
        assert data["regime"] in ("compute-bound", "memory-bound", "latency-bound")
        assert 0 < data["v_star"] <= 370.0
        assert data["total"] == pytest.approx(
            data["t_work"] + data["t_io"] + data["t_lat"], rel=1e-9)

    def test_fixed_v_evaluation(self, runner):
        result = runner.invoke(main, ["solve", "--machine", "a100-homogeneous",
                                      "--alg", "mxm", "--n", "1e6", "--v", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["v_star"] == 1.0

    def test_unknown_machine_exit_2(self, runner):
        result = runner.invoke(main, ["solve", "--machine", "atari", "--n", "1e6"])
        assert result.exit_code == 2
        assert "atari" in result.output

    def test_invalid_override_exit_2_names_invariant(self, runner):
        result = runner.invoke(main, ["solve", "--n", "1e6", "--pi", "-1"])
        assert result.exit_code == 2
        assert "pi" in result.output

    def test_table_format(self, runner):
        result = runner.invoke(main, ["solve", "--n", "1e6", "--format", "table"])
        assert result.exit_code == 0
        assert "regime" in result.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machine = fugaku\nalg = fft\npi = 1e10\n")
        result = runner.invoke(main, ["solve", "--n", "1e6",
                                      "--config", str(cfg), "--pi", "1e12"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["machine"] == "fugaku"
        assert data["algorithm"] == "FFT"
        # Flag wins over the config value: check via t_work = W/(pi*v).
        result2 = runner.invoke(main, ["solve", "--n", "1e6",
                                       "--config", str(cfg)])
        d2 = json.loads(result2.output)
        assert data["t_work"] != d2["t_work"]

    def test_custom_cost_from_config(self, runner, tmp_path):
        cfg = tmp_path / "cost.cfg"
        cfg.write_text("cost_a=1\ncost_p=1\ncost_b=1\ncost_w=1\ncost_g=1\ncost_h=1\n")
        result = runner.invoke(main, ["solve", "--alg", "custom", "--n", "1e6",
                                      "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["algorithm"] == "CUSTOM"

    def test_cost_overflow_exit_1_without_traceback(self, runner):
        result = runner.invoke(main, ["solve", "--machine", "frontier",
                                      "--alg", "mxm", "--n", "1e120"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.startswith("Error: ")
        assert len(result.output.strip().splitlines()) == 1

    def test_underflowed_fast_memory_exit_1(self, runner):
        # S = s*v underflows to 0, so Q = a*n^p/S^q has no finite value: not t_io = 0.
        result = runner.invoke(main, ["solve", "--config", str(GOLDEN / "custom.cfg"),
                                      "--n", "1e6", "--s", "1e-320"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert "cost overflowed a double" in result.output
        assert len(result.output.strip().splitlines()) == 1

    def test_underflowed_volume_exit_1(self, runner):
        # Below V ~ 2.5e-294 the floor 1e-30*V is 0.0, so W/(pi*v) has no finite value.
        result = runner.invoke(main, ["solve", "--v-total", "1e-310", "--n", "1e6"])
        _assert_one_error_line(result, 1)
        assert result.output == ("Error: volume minimization failed: t_work=inf is not "
                                 "representable (n=1000000.0, v=0.0)\n")

    def test_distance_fitting_a_double_though_v_to_the_exponent_does_not(self, runner):
        # v**2 = 1e400 overflows, but D = 1e-300 * (2e200)**2 = 4e100 fits a double.
        args = ["solve", "--v-total", "1e200", "--distance-exponent", "2",
                "--distance-prefactor", "1e-300", "--n", "1e6", "--format", "json"]
        fixed = runner.invoke(main, args + ["--v", "1e200"])
        assert fixed.exit_code == 0, fixed.output
        assert json.loads(fixed.output)["t_lat"] == pytest.approx(1.33333333e92, rel=1e-8)
        solved = runner.invoke(main, args)
        assert solved.exit_code == 0, solved.output
        data = json.loads(solved.output)
        assert data["v_star"] == pytest.approx(1e170, rel=1e-12)  # the floor 1e-30*V
        assert data["total"] == pytest.approx(1.33333333e32, rel=1e-8)

    def test_distance_overflowing_a_double_though_t_lat_does_not(self, runner):
        # D = 1e-90 * (1e200)**2 = 1e310 overflows a double, but t_lat = D/c = 1e290 fits.
        result = runner.invoke(main, ["solve", "--v-total", "1e200", "--distance-exponent", "2",
                                      "--distance-prefactor", "1e-90", "--c", "1e20",
                                      "--n", "1e6", "--v", "1e200"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["t_lat"] == pytest.approx(4.0e290, rel=1e-12)

    @pytest.mark.parametrize("config", [
        "cost_a = 1e400\n",
        "cost_a = 1\ncost_p = 1\ncost_q = 1\ncost_r = -1e400\n",
    ], ids=["cost_a-inf", "cost_r-minus-inf"])
    def test_infinite_cost_coefficient_exit_2(self, runner, tmp_path, config):
        cfg = tmp_path / "cost.cfg"
        cfg.write_text(config)
        result = runner.invoke(main, ["solve", "--alg", "custom", "--config", str(cfg),
                                      "--n", "1e6"])
        _assert_one_error_line(result, 2)
        assert "must be finite" in result.output

    @pytest.mark.parametrize("args", [
        ["--n", "0.5"], ["--n", "1e400"], ["--n", "0.5", "--v", "1"],
    ], ids=["n-below-1", "n-inf", "n-below-1-fixed-v"])
    def test_bad_problem_size_exit_2(self, runner, args):
        result = runner.invoke(main, ["solve", *args])
        _assert_one_error_line(result, 2)
        assert "must be finite and >= 1" in result.output


class TestSweep:
    def test_csv_contract(self, runner):
        result = runner.invoke(main, ["sweep", "--machine", "frontier",
                                      "--alg", "cg", "--axis", "n:1e6:1e12:4"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "pi,beta,s,c,V,n,v_star,t_work,t_io,t_lat,total,performance,regime"
        assert len(data) == 5
        row = data[1].split(",")
        assert len(row) == 13
        # 9 significant digits in scientific notation.
        mantissa = row[0].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 9
        assert row[-1] in ("compute-bound", "memory-bound", "latency-bound")

    def test_bad_problem_size_is_unprefixed_error_row(self, runner):
        result = runner.invoke(main, ["sweep", "--n", "0.5"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1].endswith(
            ",error:problem size n=0.5 must be finite and >= 1")

    def test_multi_machine_blocks(self, runner):
        result = runner.invoke(main, ["sweep", "--machine", "frontier,fugaku",
                                      "--alg", "cg,fft", "--n", "1e9"])
        assert result.exit_code == 0
        blocks = [l for l in result.output.splitlines()
                  if l.startswith("# machine=")]
        assert len(blocks) == 4

    def test_n_list_becomes_axis(self, runner):
        result = runner.invoke(main, ["sweep", "--n", "1e3,1e6,1e9"])
        assert result.exit_code == 0
        data = [l for l in result.output.splitlines()
                if l and not l.startswith("#")]
        assert len(data) == 1 + 3

    def test_cost_overflow_gives_error_rows(self, runner):
        result = runner.invoke(main, ["sweep", "--machine", "frontier", "--alg", "mxm",
                                      "--axis", "n:1e100:1e120:3"])
        assert result.exit_code == 0
        rows = _csv_rows(result.output)[1:]
        assert len(rows) == 3
        assert not rows[0][-1].startswith("error:")
        assert all(row[-1].startswith("error:") for row in rows[1:])

    def test_underflowed_fast_memory_gives_error_rows(self, runner):
        # MXM divides by sqrt(S); where S = s*v underflows to 0 the point is an error row.
        result = runner.invoke(main, ["sweep", "--machine", "frontier", "--alg", "mxm",
                                      "--n", "1e9", "--axis", "s:1e-320:1e-300:3"])
        assert result.exit_code == 0
        rows = _csv_rows(result.output)[1:]
        assert len(rows) == 3
        assert all(row[-1].startswith("error:") and "cost overflowed a double" in row[-1]
                   for row in rows[:2])
        assert not rows[2][-1].startswith("error:")

    def test_underflowed_volume_gives_error_row(self, runner):
        result = runner.invoke(main, ["sweep", "--v-total", "1e-310", "--n", "1e6"])
        assert result.exit_code == 0
        rows = _csv_rows(result.output)[1:]
        assert len(rows) == 1
        assert rows[0][-1] == ("error:volume minimization failed: t_work=inf is not "
                               "representable (n=1000000.0, v=0.0)")

    def test_volume_axis_ends_on_v(self, runner):
        result = runner.invoke(main, ["sweep", "--machine", "fugaku", "--n", "1e9",
                                      "--axis", "v:1:1920:5"])
        assert result.exit_code == 0
        assert "error" not in result.output

    def test_missing_n_exit_2(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "pi:1:10:3"])
        assert result.exit_code == 2

    def test_bad_axis_exit_2(self, runner):
        result = runner.invoke(main, ["sweep", "--n", "1e6", "--axis", "zeta:1:10:3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("axis", ["v", "c", "zeta"])
    def test_bare_axis_without_default_range_exit_2(self, runner, axis):
        result = runner.invoke(main, ["sweep", "--n", "1e9", "--axis", axis])
        _assert_one_error_line(result, 2)
        message = "unknown sweep parameter" if axis == "zeta" else "has no default range"
        assert message in result.output

    def test_signal_speed_axis(self, runner):
        result = runner.invoke(main, ["sweep", "--n", "1e9", "--axis", "c:1e5:1e8:3"])
        assert result.exit_code == 0, result.output
        rows = [l.split(",") for l in result.output.splitlines() if l and not l.startswith("#")]
        assert rows[0][3] == "c"
        assert [float(row[3]) for row in rows[1:]] == pytest.approx([1e5, 10**6.5, 1e8], rel=1e-8)

    @pytest.mark.parametrize("args, name", [
        (["--n", "1e9", "--axis", "n:1e3:1e6:2"], "n"),
        (["--n", "1e9", "--v", "5", "--axis", "v:1:2:2"], "v"),
        (["--n", "1e9", "--pi", "5", "--axis", "pi:1:2:2"], "pi"),
        (["--n", "1e9", "--v-total", "5", "--axis", "V:1:2:2"], "V"),
    ], ids=["n", "v", "pi", "V"])
    def test_fixed_and_swept_parameter_exit_2(self, runner, args, name):
        result = runner.invoke(main, ["sweep", *args])
        _assert_one_error_line(result, 2)
        assert f"sweep parameter {name!r} is both fixed and swept" in result.output

    def test_config_spec_value_is_fixed(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 5\n")
        args = ["sweep", "--config", str(cfg), "--n", "1e9"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "fixed={'beta': 5.0, 'n': 1000000000.0}" in result.output
        assert float(_csv_rows(result.output)[1][1]) == 5.0
        result = runner.invoke(main, args + ["--axis", "beta:1:2:2"])
        _assert_one_error_line(result, 2)
        assert "sweep parameter 'beta' is both fixed and swept" in result.output

    def test_invalid_spec_row_keeps_its_inputs(self, runner):
        result = runner.invoke(main, ["sweep", "--n", "1e9", "--axis", "pi:0:1:3:linear"])
        assert result.exit_code == 0, result.output
        first = _csv_rows(result.output)[1]
        assert len(first) == 13
        assert [float(x) for x in first[:6]] == [0.0, 1.0, 1.0, 3e8, 1e6, 1e9]
        assert first[-1] == "error:ComputerSpec.pi must be positive and finite, got 0.0"

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--n", "1e6", "--output", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("#")


@pytest.mark.parametrize("command", [
    ["solve", "--n", "1e9"],
    ["sweep", "--n", "1e9"],
    ["scale", "--mode", "strong", "--n0", "1e9"],
    ["laws", "--law", "amdahl", "--n0", "1e9"],
], ids=["solve", "sweep", "scale", "laws"])
def test_unwritable_output_exit_2(runner, tmp_path, command):
    out = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, command + ["--output", str(out)])
    _assert_one_error_line(result, 2)
    assert "cannot write --output" in result.output and "No such file or directory" in result.output


class TestScale:
    def test_strong_csv(self, runner):
        result = runner.invoke(main, ["scale", "--machine", "frontier",
                                      "--alg", "cg", "--mode", "strong",
                                      "--n0", "1e12", "--v0", "1", "--v", "1:370:5"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert lines[0] == "v,n,total,efficiency"
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0)  # efficiency 1 at v0

    def test_weak_records_k_policy(self, runner):
        result = runner.invoke(main, ["scale", "--machine", "fugaku",
                                      "--alg", "fft", "--mode", "weak",
                                      "--n0", "1e9", "--v0", "1", "--v", "1,10,100",
                                      "--k", "n"])
        assert result.exit_code == 0
        assert "# k_policy=n" in result.output
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        ns = [float(l.split(",")[1]) for l in lines[1:]]
        assert ns == pytest.approx([1e9, 1e10, 1e11], rel=1e-6)

    def test_readme_weak_example(self, runner):
        result = runner.invoke(main, ["scale", "--machine", "fugaku", "--alg", "fft",
                                      "--mode", "weak", "--n0", "1e9", "--k", "output"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert len(lines) == 21
        assert float(lines[-1].split(",")[0]) == 1920.0

    def test_unreachable_weak_target_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "sqrt.cfg"
        cfg.write_text("cost_out_exp = 0.5\n")
        result = runner.invoke(main, ["scale", "--alg", "custom", "--config", str(cfg),
                                      "--mode", "weak", "--n0", "1e300", "--v0", "1",
                                      "--v", "1,1e5", "--k", "output"])
        assert result.exit_code == 1
        assert "Traceback" not in result.output

    def test_v_below_v0_exit_2(self, runner):
        result = runner.invoke(main, ["scale", "--mode", "strong", "--n0", "1e6",
                                      "--v0", "10", "--v", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--mode", "weak", "--v", "20,1"],
        ["--mode", "strong", "--v", "1"],
    ], ids=["weak", "strong"])
    def test_volumes_checked_before_baseline(self, runner, args):
        # f(v0, n0) overflows for MXM at n0 = 1e120 (exit 1), but the bad volume comes first.
        result = runner.invoke(main, ["scale", "--alg", "mxm", "--n0", "1e120", "--v0", "10",
                                      *args])
        _assert_one_error_line(result, 2)
        assert "v=1.0 must be >= v0=10.0" in result.output

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("alg, n0", [("cg", "1e9"), ("mxm", "1e120")],
                             ids=["cg", "mxm-overflow"])
    def test_volume_above_V_exit_2(self, runner, mode, alg, n0):
        # Checked before f(v0, n0), which overflows for MXM at n0 = 1e120 (exit 1), and
        # before K is inverted, where the weak target is above K(n) for every n (exit 1).
        result = runner.invoke(main, ["scale", "--machine", "frontier", "--alg", alg,
                                      "--mode", mode, "--n0", n0, "--k", "n", "--v", "1e300"])
        _assert_one_error_line(result, 2)
        assert "active volume v=1e+300 outside (0, V=370.0]" in result.output

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_infinite_n0_exit_2(self, runner, mode):
        # n0 is checked before K is inverted, so weak scaling rejects it as strong scaling does.
        result = runner.invoke(main, ["scale", "--mode", mode, "--n0", "1e400"])
        _assert_one_error_line(result, 2)
        assert "problem size n=inf must be finite and >= 1" in result.output


class TestLaws:
    def test_amdahl_with_limit_line(self, runner):
        result = runner.invoke(main, ["laws", "--law", "amdahl",
                                      "--machine", "fugaku", "--alg", "cg",
                                      "--n0", "1e9"])
        assert result.exit_code == 0
        assert "# speedup_limit=" in result.output
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert lines[0] == "v,speedup"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0)

    def test_gustafson(self, runner):
        result = runner.invoke(main, ["laws", "--law", "gustafson",
                                      "--n0", "1e6", "--v0", "1", "--v", "1,2,4"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        # Affine in v/v0: equal second difference structure.
        assert vals[2] - vals[1] == pytest.approx(2 * (vals[1] - vals[0]), rel=1e-9)

    @pytest.mark.parametrize("args, message", [
        (["--law", "gustafson", "--v0", "1e-310"], "gustafson speedup=nan"),
        (["--law", "amdahl", "--v0", "1e-310", "--v", "370"], "amdahl speedup=inf"),
    ], ids=["gustafson-nan", "amdahl-inf"])
    def test_non_finite_speedup_exit_1(self, runner, args, message):
        # At a subnormal v0 the latency share is 0 and v/v0 overflows: nan and inf.
        result = runner.invoke(main, ["laws", "--machine", "frontier", "--n0", "1e3", *args])
        _assert_one_error_line(result, 1)
        assert f"{message} is not representable (v=370.0)" in result.output

    @pytest.mark.parametrize("args, gustafson_exit", [
        (["--machine", "frontier", "--v0", "1e-200"], 0),
        (["--c", "1e-200", "--v0", "1e-303"], 1),  # V/v0 = 1e309 overflows a double
    ], ids=["frontier", "slow-signal"])
    def test_amdahl_checks_only_its_own_law(self, runner, args, gustafson_exit):
        # A tiny v0 gives a finite Amdahl curve even where the Gustafson one overflows.
        result = runner.invoke(main, ["laws", "--law", "amdahl", "--n0", "1e3", *args])
        assert result.exit_code == 0, result.output
        rows = [l.split(",") for l in result.output.splitlines()[2:-1]]
        assert len(rows) == 10
        assert all(math.isfinite(float(x)) for row in rows for x in row)
        result = runner.invoke(main, ["laws", "--law", "gustafson", "--n0", "1e3", *args])
        assert result.exit_code == gustafson_exit, result.output

    @pytest.mark.parametrize("law", ["amdahl", "gustafson"])
    def test_overflowing_limit_exit_1(self, runner, law):
        # T_L(v0) = 1.4e-156 > 0, so the ceiling T/T_L is finite but above the largest double.
        result = runner.invoke(main, ["laws", "--machine", "frontier", "--law", law,
                                      "--n0", "1e3", "--v0", "1e-300"])
        _assert_one_error_line(result, 1)
        assert "speedup limit T/T_L" in result.output and "overflows a double" in result.output

    @pytest.mark.parametrize("volumes", ["1e400", "1e300", "1,1e300"])
    def test_volume_above_V_exit_2(self, runner, volumes):
        result = runner.invoke(main, ["laws", "--machine", "frontier", "--law", "gustafson",
                                      "--n0", "1e9", "--v", volumes])
        _assert_one_error_line(result, 2)
        assert "outside (0, V=370.0]" in result.output

    @pytest.mark.parametrize("volumes, message", [
        ("20,1", "v=1.0 must be >= v0=10.0"),
        ("1e300", "active volume v=1e+300 outside (0, V=370.0]"),
    ], ids=["below-v0", "above-V"])
    def test_volumes_checked_before_baseline(self, runner, volumes, message):
        # f(v0, n0) overflows for MXM at n0 = 1e120 (exit 1), but the bad volume comes first.
        result = runner.invoke(main, ["laws", "--machine", "frontier", "--alg", "mxm",
                                      "--law", "amdahl", "--n0", "1e120", "--v0", "10",
                                      "--v", volumes])
        _assert_one_error_line(result, 2)
        assert message in result.output


@pytest.mark.parametrize("args, f_builds, inversions", [
    (["solve", "--n", "1e9"], 1, 0),
    (["sweep", "--axis", "n:1e3:1e30:20"], 20, 0),
    (["scale", "--mode", "strong", "--n0", "1e9"], 21, 0),
    (["scale", "--mode", "weak", "--n0", "1e9"], 21, 20),
    (["laws", "--law", "amdahl", "--n0", "1e9"], 1, 0),
    (["laws", "--law", "gustafson", "--n0", "1e9"], 1, 0),
], ids=["solve", "sweep-n", "scale-strong", "scale-weak", "laws-amdahl", "laws-gustafson"])
def test_f_builds_per_command(runner, monkeypatch, args, f_builds, inversions):
    # f is built once per solve or sweep point, once per scale volume plus the
    # baseline, and once for a whole laws curve; weak scaling inverts K per volume.
    counts = {"f": 0, "invert_k": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(homlim.model, "_f_terms", counted("f", homlim.model._f_terms))
    monkeypatch.setattr(homlim.scaling, "invert_k", counted("invert_k", homlim.scaling.invert_k))
    result = runner.invoke(main, [args[0], "--machine", "frontier", *args[1:]])
    assert result.exit_code == 0, result.output
    assert counts == {"f": f_builds, "invert_k": inversions}


@pytest.mark.parametrize("args", [
    ["solve", "--machine", "frontier", "--n", "1e9"],
    ["sweep", "--machine", "frontier,fugaku", "--axis", "n:1e3:1e30:4"],
], ids=["solve", "sweep-two-machines"])
def test_preset_registry_read_once_per_command(runner, monkeypatch, args):
    # Every machine of a command is looked up in one reading of the preset files.
    calls = []
    read = homlim.machines.available_presets

    def counted():
        calls.append(1)
        return read()

    for module in (homlim.machines, homlim.cli):
        monkeypatch.setattr(module, "available_presets", counted)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


class TestConfig:
    """A --config file supplies option defaults; explicit flags beat it."""

    @pytest.fixture
    def fugaku_fft(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machine = fugaku\nalg = fft\n")
        return str(cfg)

    def test_explicit_ideal_machine_beats_config(self, runner, fugaku_fft):
        result = runner.invoke(main, ["solve", "--machine", "ideal", "--config", fugaku_fft,
                                      "--n", "1e6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["machine"] == "ideal"

    def test_explicit_cg_beats_config(self, runner, fugaku_fft):
        result = runner.invoke(main, ["solve", "--alg", "cg", "--config", fugaku_fft,
                                      "--n", "1e6"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["machine"] == "fugaku"
        assert data["algorithm"] == "CG"

    def test_sweep_reads_machine_and_alg(self, runner, fugaku_fft):
        result = runner.invoke(main, ["sweep", "--config", fugaku_fft, "--n", "1e6"])
        assert result.exit_code == 0
        assert "machines=fugaku algs=fft" in result.output.splitlines()[0]

    def test_scale_reads_machine_and_alg(self, runner, fugaku_fft):
        result = runner.invoke(main, ["scale", "--config", fugaku_fft, "--mode", "strong",
                                      "--n0", "1e9"])
        assert result.exit_code == 0
        assert "machine=fugaku alg=FFT" in result.output.splitlines()[0]

    def test_fft_row_from_cost_keys(self, runner, tmp_path):
        # Every CostCoefficients field is a cost_ key; FFT's row, cost_m included, gives FFT.
        coeffs = BUILTIN_COEFFS["fft"]
        cfg = tmp_path / "fft.cfg"
        cfg.write_text("".join(f"cost_{field.name} = {getattr(coeffs, field.name)!r}\n"
                               for field in dataclasses.fields(coeffs)))
        args = ["solve", "--machine", "frontier", "--n", "1e9"]
        custom = runner.invoke(main, args + ["--alg", "custom", "--config", str(cfg)])
        builtin = runner.invoke(main, args + ["--alg", "fft"])
        assert custom.exit_code == 0 and builtin.exit_code == 0
        assert "cost_m = 1.0" in cfg.read_text()
        assert custom.output == builtin.output.replace('"FFT"', '"CUSTOM"')

    @pytest.mark.parametrize("key,flag,value", [
        ("distance_exponent", "--distance-exponent", "0.4"),
        ("distance_prefactor", "--distance-prefactor", "3"),
        ("V", "--v-total", "100m2"),
    ])
    def test_config_key_equals_flag(self, runner, tmp_path, key, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"machine = frontier\n{key} = {value}\n")
        args = ["solve", "--alg", "mxm", "--n", "1e6"]
        from_config = runner.invoke(main, args + ["--config", str(cfg)])
        from_flag = runner.invoke(main, args + ["--machine", "frontier", flag, value])
        baseline = runner.invoke(main, args + ["--machine", "frontier"])
        assert from_config.exit_code == from_flag.exit_code == 0
        assert from_config.output == from_flag.output
        assert from_config.output != baseline.output


def _csv_rows(output):
    """The header and data rows of a sweep's CSV output, read as RFC 4180 CSV."""
    return list(csv.reader(l for l in output.splitlines() if l and not l.startswith("#")))


def _assert_one_error_line(result, code):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len([l for l in result.output.splitlines() if l.startswith("Error:")]) == 1


class TestNoTraceback:
    """Inputs that once escaped as Python tracebacks now exit 2 with one Error: line."""

    @pytest.mark.parametrize("args", [
        ["scale", "--mode", "strong", "--n0", "1e6", "--v", "1:2"],
        ["laws", "--law", "amdahl", "--n0", "1e6", "--v", "10:1:5"],
        ["solve", "--n", "."],
        ["sweep", "--n", "0..0"],
        ["solve", "--n", "1e6", "--distance-exponent", "1_0"],
    ], ids=["scale-v-two-fields", "laws-v-reversed", "solve-n-dot", "sweep-n-double-dot",
            "solve-distance-exponent-underscore"])
    def test_malformed_value_exit_2(self, runner, args):
        _assert_one_error_line(runner.invoke(main, args), 2)

    def test_bad_custom_coefficient_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cost.cfg"
        cfg.write_text("cost_a = abc\n")
        result = runner.invoke(main, ["solve", "--alg", "custom", "--config", str(cfg),
                                      "--n", "1e6"])
        _assert_one_error_line(result, 2)

    def test_config_directory_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", "--config", str(tmp_path), "--n", "1e6"])
        _assert_one_error_line(result, 2)

    def test_config_line_without_equals_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machine fugaku\n")
        result = runner.invoke(main, ["solve", "--config", str(cfg), "--n", "1e6"])
        _assert_one_error_line(result, 2)
        assert "expected key=value" in result.output

    def test_config_duplicate_key_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pi = 1e10\npi = 1e12\n")
        result = runner.invoke(main, ["solve", "--config", str(cfg), "--n", "1e6"])
        _assert_one_error_line(result, 2)
        assert "run.cfg:2: key 'pi' given twice" in result.output

    def test_config_unknown_key_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alg = fft\nmahcine = fugaku\n")
        result = runner.invoke(main, ["solve", "--config", str(cfg), "--n", "1e6"])
        _assert_one_error_line(result, 2)
        assert "unknown key 'mahcine'" in result.output

    def test_config_keys_of_other_commands_accepted(self, runner, tmp_path):
        # A key is checked against every command, so one file can serve them all.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machine = fugaku\nalg = fft\npi = 1e14\nmode = strong\ncost_a = 2\n")
        result = runner.invoke(main, ["solve", "--config", str(cfg), "--n", "1e6"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["machine"] == "fugaku"

    @pytest.mark.parametrize("command", [
        ["scale", "--mode", "strong", "--n0", "1e6"],
        ["laws", "--law", "amdahl", "--n0", "1e6"],
    ], ids=["scale", "laws"])
    def test_volume_count_above_cap_exit_2(self, runner, command):
        # Rejected before any volume array is built: 1e8 points would take 800 MB.
        result = runner.invoke(main, command + ["--v", "1:2:100000000"])
        _assert_one_error_line(result, 2)
        assert "cap" in result.output


class TestMachines:
    def test_list_has_five_builtins(self, runner):
        result = runner.invoke(main, ["machines", "list"])
        assert result.exit_code == 0
        names = result.output.split()
        assert set(names) == {"ideal", "frontier", "fugaku", "dgx-gh200",
                              "a100-homogeneous", "a100-homogeneous-1e9"}
        assert len(names) == 6

    def test_show(self, runner):
        result = runner.invoke(main, ["machines", "show", "fugaku"])
        assert result.exit_code == 0
        assert "fugaku" in result.output
        assert "4.88000000e+17" in result.output
        assert "\nword_bytes          8\n" in result.output

    def test_show_unknown_exit_2(self, runner):
        result = runner.invoke(main, ["machines", "show", "cray-1"])
        assert result.exit_code == 2

    def test_env_preset_path(self, runner, tmp_path, monkeypatch):
        (tmp_path / "toy.preset").write_text(
            "name = toy\npi_total_flops = 1e15\nb_total_bytes = 8e12\n"
            "s_total_bytes = 8e9\nvolume = 1.0\nc = 3e8\n")
        monkeypatch.setenv("HOMLIM_PRESET_PATH", str(tmp_path))
        result = runner.invoke(main, ["machines", "list"])
        assert "toy" in result.output.split()
        result = runner.invoke(main, ["solve", "--machine", "toy", "--n", "1e6"])
        assert result.exit_code == 0
