"""Command line contract: exit codes, CSV schema, determinism."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from isingcyl import cli, energy, exact, kernels, multiscale, scaling, spectral, verify
from isingcyl.cli import main
from isingcyl.lattice import CylinderGeometry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_oracle_within_tolerance(capsys):
    code, out, _ = run(capsys, "partition", "--L", "4", "--M", "3",
                       "--beta", "0.25", "--J1", "1", "--J2", "2", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema,1"
    assert lines[1] == "seed,0"
    header = lines[2].split(",")
    data = lines[3].split(",")
    rel_err = float(data[header.index("rel_err")])
    assert rel_err <= 1e-10


def test_partition_rejects_odd_circumference(capsys):
    code, _, err = run(capsys, "partition", "--L", "3", "--M", "3",
                       "--beta", "0.25", "--J1", "1", "--J2", "2")
    assert code == 1
    assert "even" in err


def test_partition_critical_line_coupling(capsys):
    code, out, _ = run(capsys, "partition", "--L", "4", "--M", "3",
                       "--critical", "--t1", "0.5")
    assert code == 0
    header = out.splitlines()[2].split(",")
    data = out.splitlines()[3].split(",")
    t2 = float(data[header.index("t2")])
    assert abs(t2 - 1.0 / 3.0) < 1e-15


def test_partition_tolerance_failure_exits_two(capsys):
    # this configuration has a known nonzero (1e-16 scale) roundoff gap
    code, out, err = run(capsys, "partition", "--L", "4", "--M", "3",
                         "--beta", "0.25", "--J1", "1", "--J2", "2",
                         "--oracle", "--tol", "1e-30")
    assert code == 2
    assert "tolerance" in err
    # the CSV row is still emitted for inspection
    assert "rel_err" in out


def test_missing_couplings_is_usage_error(capsys):
    code, _, err = run(capsys, "partition", "--L", "4", "--M", "3")
    assert code == 1
    assert "beta" in err


def test_config_file_fills_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "L": 4, "M": 3, "beta": 0.25, "J1": 1.0, "J2": 2.0, "oracle": True,
    }))
    code, out, _ = run(capsys, "partition", "--config", str(cfg))
    assert code == 0
    assert "oracle_log_z" in out
    # explicit flags win over the file
    code, out, _ = run(capsys, "partition", "--config", str(cfg), "--M", "2")
    assert code == 0
    assert out.splitlines()[3].split(",")[1] == "2"
    # a config tol is the gate, as --tol is, and a later flag still wins
    cfg.write_text(json.dumps({
        "L": 4, "M": 3, "beta": 0.25, "J1": 1.0, "J2": 2.0, "oracle": True, "tol": 0,
    }))
    code, out, err = run(capsys, "partition", "--config", str(cfg))
    assert code == 2 and err.startswith("tolerance failure:") and "rel_err" in out
    code, _, _ = run(capsys, "partition", "--config", str(cfg), "--tol", "1")
    assert code == 0
    # null leaves an option unset: the seed keeps its default, the switch is off
    cfg.write_text(json.dumps({
        "L": 4, "M": 3, "beta": 0.25, "J1": 1.0, "J2": 2.0, "oracle": None, "seed": None,
        "output": None,
    }))
    code, out, _ = run(capsys, "partition", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "seed,0" and "oracle_log_z" not in out


def test_unknown_config_key_rejected(capsys, tmp_path):
    # "parallel" is no option either: the CLI runs single-threaded; "func"
    # and "command" are parser internals, "config" and "help" no settings
    for key in ("bogus", "parallel", "func", "command", "config", "help"):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "partition", "--config", str(cfg))
        assert code == 1
        assert key in err


@pytest.mark.parametrize("command,config,message", [
    (["multiscale", "--L", "8", "--M", "8", "--critical", "--t1", "isotropic",
      "--check-telescoping"], {"seed": "x"}, "argument --seed: invalid int value: 'x'"),
    (["partition", "--L", "4", "--M", "3", "--beta", "0.25", "--J1", "1", "--J2", "2",
      "--oracle"], {"tol": "abc"}, "argument --tol: invalid float value: 'abc'"),
    (["partition", "--M", "3", "--beta", "0.25", "--J1", "1", "--J2", "2"],
     {"L": 8.9}, "argument --L: invalid int value: '8.9'"),
    (["propagator", "--L", "6", "--M", "4", "--critical", "--t1", "isotropic",
      "--z", "2,1", "--zp", "5,3"], {"route": "fast"}, "argument --route: invalid choice"),
    (["multiscale", "--L", "8", "--M", "8", "--critical", "--t1", "isotropic"],
     {"gram": 1}, "config key 'gram': --gram takes true or false"),
    (["kernels", "--random", "2,1", "--bounds"], {"rate_step": "a"},
     "argument --rate-step: invalid float value: 'a'"),
], ids=["seed", "tol", "L", "route", "gram", "rate_step"])
def test_config_values_are_checked_like_flags(capsys, tmp_path, command, config, message):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert_one_usage_line(code, err)
    assert message in err
    assert out == ""


def test_config_numbers_in_strings_parse_like_flags(capsys, tmp_path):
    cfg = tmp_path / "gram.json"
    cfg.write_text(json.dumps({"n_pairs": "3", "seed": "2", "gram": True}))
    base = ["multiscale", "--L", "8", "--M", "8", "--critical", "--t1", "isotropic"]
    code, out, _ = run(capsys, *base, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "seed,2" and out.splitlines()[3].endswith(",3")
    code, flags, _ = run(capsys, *base, "--gram", "--n-pairs", "3", "--seed", "2")
    assert code == 0 and flags == out


def test_propagator_routes_agree(capsys):
    args = ["--L", "6", "--M", "4", "--critical", "--t1", "isotropic",
            "--z", "2,1", "--zp", "5,3"]
    code, dense, _ = run(capsys, "propagator", *args, "--route", "dense")
    assert code == 0
    code, spectral, _ = run(capsys, "propagator", *args, "--route", "spectral")
    assert code == 0
    d = [float(x) for x in dense.splitlines()[3].split(",")[4:]]
    s = [float(x) for x in spectral.splitlines()[3].split(",")[4:]]
    assert max(abs(a - b) for a, b in zip(d, s)) < 1e-10


def test_propagator_spectral_needs_criticality(capsys):
    code, _, err = run(capsys, "propagator", "--L", "6", "--M", "4",
                       "--beta", "0.3", "--J1", "1", "--J2", "1",
                       "--z", "1,1", "--zp", "2,2", "--route", "spectral")
    assert code == 1
    assert "critical" in err


def test_multiscale_telescoping_gate(capsys):
    code, out, _ = run(capsys, "multiscale", "--L", "8", "--M", "8",
                       "--critical", "--t1", "isotropic",
                       "--check-telescoping")
    assert code == 0
    assert out.splitlines()[2] == "z1,z2,zp1,zp2,h,max_residual"
    residuals = [float(line.split(",")[-1]) for line in out.splitlines()[3:]]
    assert max(residuals) <= 1e-9


def test_output_file_and_rerun_identical(capsys, tmp_path):
    target = tmp_path / "a.csv"
    argv = ["scaling", "--l1", "1", "--l2", "1", "--meshes", "8,16",
            "--pairs", '[[[0.25, 0.25], [0.75, 0.5]]]',
            "--output", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_spectral_table_matches_single_pairs(capsys):
    pairs = [((1, 1), (8, 8)), ((3, 2), (6, 5)), ((5, 8), (5, 1)),
             ((2, 4), (2, 4)), ((7, 3), (1, 6))]
    base = ["propagator", "--L", "8", "--M", "8", "--critical", "--t1",
            "isotropic", "--route", "spectral"]
    table = base + ["--pairs", json.dumps(pairs)]
    code, first, _ = run(capsys, *table)
    assert code == 0
    code, again, _ = run(capsys, *table)
    assert code == 0 and again == first
    rows = first.splitlines()[3:]
    assert len(rows) == len(pairs)
    for (z, zp), row in zip(pairs, rows):
        code, out, _ = run(capsys, *base, "--z", "%d,%d" % z, "--zp", "%d,%d" % zp)
        assert code == 0
        single = out.splitlines()[3].split(",")
        assert single[:4] == row.split(",")[:4]
        diff = max(abs(float(a) - float(b))
                   for a, b in zip(single[4:], row.split(",")[4:]))
        assert diff <= 1e-14


def test_scaling_reaches_mesh_one_over_128(capsys):
    code, out, err = run(capsys, "scaling", "--l1", "1", "--l2", "1",
                         "--meshes", "32,64,128",
                         "--pairs", '[[[0.25, 0.25], [0.75, 0.5]]]')
    assert code == 0, err
    assert [line.split(",")[3] for line in out.splitlines()[3:]] == ["32", "64", "128"]


def test_correlations_against_oracle(capsys):
    code, out, _ = run(capsys, "correlations", "--L", "4", "--M", "3",
                       "--beta", "0.3", "--J1", "1.1", "--J2", "0.8",
                       "--bonds", '[[1,1,1],[2,2,2]]', "--oracle")
    assert code == 0
    header = out.splitlines()[2].split(",")
    data = out.splitlines()[3].split(",")
    assert float(data[header.index("abs_err")]) < 1e-9


def test_correlations_continuum_mode(capsys):
    code, out, _ = run(capsys, "correlations", "--l1", "1", "--l2", "1",
                       "--marked", '[[0.3125,0.375,2],[0.6875,0.625,2]]')
    assert code == 0
    header = out.splitlines()[2].split(",")
    value = float(out.splitlines()[3].split(",")[header.index("value")])
    assert abs(value - 0.604742323599146) < 1e-9


def test_correlations_marked_points_equal_around_the_ring(capsys):
    code, _, err = run(capsys, "correlations", "--l1", "1", "--l2", "1",
                       "--marked", '[[0,0.5,2],[1,0.5,2]]')
    assert code == 1
    assert "distinct" in err


@pytest.mark.parametrize("exc", [AssertionError, RuntimeError])
def test_certificate_failure_exits_two_in_one_line(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("root residual 1.1e-13 too large")

    monkeypatch.setattr(scaling, "scaling_remainder_records", fail)
    code, _, err = run(capsys, "scaling", "--l1", "1", "--l2", "1",
                       "--meshes", "8,16", "--pairs", '[[[0.25, 0.25], [0.75, 0.5]]]')
    assert code == 2
    assert err.splitlines() == ["certificate failure: root residual 1.1e-13 too large"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["partition"],
    ["propagator", "--z", "1,1", "--zp", "2,3"],
    ["correlations", "--bonds", "[[1,1,2],[3,2,2]]"],
])
def test_singular_ring_block_exits_two_in_one_line(capsys, monkeypatch, command):
    original = exact.ring_blocks

    def zero_blocks(geometry, couplings):
        x, y = original(geometry, couplings)
        return 0.0 * x, 0.0 * y

    monkeypatch.setattr(exact, "ring_blocks", zero_blocks)
    code, _, err = run(capsys, *command, "--L", "4", "--M", "3",
                       "--beta", "0.4", "--J1", "1", "--J2", "1")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("certificate failure:")
    assert "Traceback" not in err


def test_imaginary_ring_determinant_exits_two_in_one_line(capsys, monkeypatch):
    original = exact.ring_blocks
    theta = math.pi / (2 * 4 * 3)  # det(e^{i theta} D_k) is 30 degrees off the real axis

    def rotated_blocks(geometry, couplings):
        x, y = original(geometry, couplings)
        return math.cos(theta) * x - math.sin(theta) * y, math.sin(theta) * x + math.cos(theta) * y

    monkeypatch.setattr(exact, "ring_blocks", rotated_blocks)
    code, _, err = run(capsys, "partition", "--L", "4", "--M", "3",
                       "--beta", "0.4", "--J1", "1", "--J2", "1")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("certificate failure:") and "phase" in err


def test_partition_at_32_by_32(capsys):
    code, out, _ = run(capsys, "partition", "--L", "32", "--M", "32",
                       "--beta", "0.4", "--J1", "1", "--J2", "1")
    assert code == 0
    header, row = out.splitlines()[2].split(","), out.splitlines()[3].split(",")
    assert float(row[header.index("pf_sign")]) == 1.0
    assert math.isfinite(float(row[header.index("log_z")]))


def test_partition_names_the_coupling_whose_tanh_rounds_to_one(capsys):
    code, _, err = run(capsys, "partition", "--L", "4", "--M", "3",
                       "--beta", "50", "--J1", "1", "--J2", "0.9")
    assert_one_usage_line(code, err)
    assert err.startswith("error: beta*J1 = 50 too large") and "19.06" in err
    assert "t1" not in err


def test_correlations_bond_outside_cylinder(capsys):
    code, _, err = run(capsys, "correlations", "--L", "4", "--M", "3",
                       "--beta", "0.3", "--J1", "1", "--J2", "1",
                       "--bonds", '[[1,3,2]]')
    assert code == 1
    assert "leaves" in err


def test_kernels_roundtrip_through_files(capsys, tmp_path):
    saved = tmp_path / "k.txt"
    code, _, _ = run(capsys, "kernels", "--random", "2,1", "--entries", "4",
                     "--seed", "5", "--save", str(saved))
    assert code == 0
    code, out, _ = run(capsys, "kernels", "--input", str(saved))
    assert code == 0
    assert out == saved.read_text()


def test_kernels_bounds_report(capsys, tmp_path):
    saved = tmp_path / "k.txt"
    assert main(["kernels", "--random", "2,0", "--seed", "3",
                 "--save", str(saved)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "kernels", "--input", str(saved), "--bounds",
                       "--rate", "0,0.2", "--rate-step", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "rate,rate_step,name,value,bound,margin"
    assert all(float(line.split(",")[-1]) >= 0.0 for line in lines[3:])


@pytest.mark.parametrize("sector", ["9,0", "12,0", "1,0", "3,1", "2,5", "4,-1"])
def test_kernels_random_rejects_bad_sectors_quickly(capsys, sector):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "kernels", "--random", sector)
    assert code == 1
    assert err.startswith("error: --random:")
    assert time.perf_counter() - t0 < 1.0


def test_kernels_eight_field_symmetrize_output_and_memory():
    # 2 entries x 4 reflections x 8! orderings: the dump is pinned by its
    # SHA-1, and the array route keeps the child's peak RSS well below
    # the 283 MB that a Python tuple per ordering took
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.Popen(
        [sys.executable, "-m", "isingcyl.cli", "kernels", "--random", "8,0",
         "--apply", "symmetrize", "--entries", "2"],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert out.count(b"\n") == 161281
    assert hashlib.sha1(out).hexdigest() == "4ab2276dbf4fa75e6625ea2334ae9d55799d6924"
    if sys.platform.startswith("linux"):  # ru_maxrss is in KiB there
        assert usage.ru_maxrss < 220 * 1024


def test_kernels_input_and_random_exclusive(capsys):
    code, _, err = run(capsys, "kernels")
    assert code == 1
    assert "--input" in err and "--random" in err


def test_verify_subset_table(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "telescoping")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion")]
    assert len(lines) == 1
    assert "PASS" in lines[0]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "no check matches" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def assert_one_usage_line(code, err):
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,word", [("--box", "box"), ("--entries", "entries")])
def test_kernels_random_reports_bad_draw_sizes(capsys, flag, word):
    code, out, err = run(capsys, "kernels", "--random", "2,1", flag, "-1")
    assert_one_usage_line(code, err)
    assert word in err and "no sector" not in err
    assert out == ""


def test_non_integer_site_is_usage_error(capsys):
    code, _, err = run(capsys, "propagator", "--L", "4", "--M", "3",
                       "--beta", "0.3", "--J1", "1", "--J2", "1",
                       "--z", "a,b", "--zp", "1,1")
    assert_one_usage_line(code, err)
    assert "--z" in err


@pytest.mark.parametrize("kind", ["invalid_json", "directory"])
def test_unreadable_json_file_is_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "bad.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("{bad")
    code, _, err = run(capsys, "propagator", "--L", "4", "--M", "4", "--critical",
                       "--t1", "isotropic", "--pairs", str(path))
    assert_one_usage_line(code, err)
    assert err.startswith("error: --pairs:")


@pytest.mark.parametrize("command,flag", [
    (["partition", "--L", "4", "--M", "3", "--beta", "0.3", "--J1", "1",
      "--J2", "1"], "--output"),
    (["kernels", "--random", "2,1"], "--save"),
    (["verify", "--suite", "telescoping"], "--json"),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, command, flag):
    code, _, err = run(capsys, *command, flag, str(tmp_path / "missing" / "f"))
    assert_one_usage_line(code, err)
    assert err.startswith(f"error: {flag}:")


@pytest.mark.parametrize("pair", [
    "[[[0.25, 0.25], [1.25, 0.25]]]",  # coincident around the ring
    "[[[0.25, 0.0], [0.75, 0.5]]]",    # a point on the boundary row
])
def test_scaling_bad_pair_is_usage_error(capsys, pair):
    code, _, err = run(capsys, "scaling", "--l1", "1", "--l2", "1",
                       "--meshes", "8,16", "--pairs", pair)
    assert_one_usage_line(code, err)


def test_correlations_mirror_coincident_points_is_usage_error(capsys):
    code, _, err = run(capsys, "correlations", "--l1", "1", "--l2", "1",
                       "--marked", "[[0.3,0.5,2],[0.3,1.5,2]]")
    assert_one_usage_line(code, err)
    assert "coincident" in err


@pytest.mark.parametrize("flag,value", [("--rate", "nan"), ("--rate", "inf"),
                                        ("--rate-step", "nan")])
def test_kernels_bounds_reject_non_finite_rates(capsys, flag, value):
    code, out, err = run(capsys, "kernels", "--random", "2,1", "--bounds",
                         flag, value)
    assert_one_usage_line(code, err)
    assert out == ""


@pytest.mark.parametrize("flag,value,message", [
    ("--rate", "500", "error: rate 500.0 (rate_step 0.5): a weighted norm overflows"),
    ("--rate-step", "1e-300", "error: rate_step must be finite and positive"),
])
def test_kernels_bounds_reject_out_of_range_rates(capsys, flag, value, message):
    code, out, err = run(capsys, "kernels", "--random", "4,1", "--apply", "symmetrize",
                         "--bounds", flag, value)
    assert_one_usage_line(code, err)
    assert err.startswith(message) and out == ""


def test_csv_rows_are_the_csv_module_bytes(capsys):
    rows = [[3, -7, "isotropic", -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324],
            [0, 1, "", 0.1, 1.0, -2.5, 1 / 3, 1e300, 2.0 ** -1074],
            ["a,b", 'say "x"', "two\nlines", 2, True, None, 0.5, "", "end"],
            [""], [], [4.0]]
    # every prefix: the one-pass rows, and the rows the csv module must quote
    for count in range(len(rows) + 1):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([["schema", "1"], ["seed", "5"], ["h1", "h2"]])
        writer.writerows([["%.17g" % x if isinstance(x, float) else str(x) for x in row]
                          for row in rows[:count]])
        cli._emit_csv(argparse.Namespace(seed=5, output=None), ["h1", "h2"], rows[:count])
        assert capsys.readouterr().out == buf.getvalue()
    cli._emit_csv(argparse.Namespace(seed=5, output=None), ["h"], rows[:2])
    assert capsys.readouterr().out.splitlines()[3:] == [
        "3,-7,isotropic,-0,nan,inf,-inf,1e-300,4.9406564584124654e-324",
        "0,1,,0.10000000000000001,1,-2.5,0.33333333333333331,1.0000000000000001e+300,"
        "4.9406564584124654e-324"]


@pytest.mark.parametrize("mode", [["--gram"], ["--decay", "tail"], ["--decay", "bulk"]])
def test_multiscale_h_list_below_h_star_is_usage_error(capsys, mode):
    code, out, err = run(capsys, "multiscale", "--L", "8", "--M", "8", "--critical",
                         "--t1", "isotropic", *mode, "--h-list", "1,9")
    assert_one_usage_line(code, err)
    assert err.startswith("error: --h-list:") and "h* = -3" in err and "0..3" in err
    assert out == ""


def test_multiscale_edge_decay_too_deep_is_usage_error(capsys):
    # on 8 x 8 the edge windows at h* = -3 reach edge distances of 8..20,
    # past the longest edge distance the cylinder has
    code, out, err = run(capsys, "multiscale", "--L", "8", "--M", "8", "--critical",
                         "--t1", "isotropic", "--decay", "edge", "--h-list", "3")
    assert_one_usage_line(code, err)
    assert err.startswith("error: --h-list: could not place enough edge samples at h = -3")
    assert out == ""
    code, out, _ = run(capsys, "multiscale", "--L", "8", "--M", "8", "--critical",
                       "--t1", "isotropic", "--decay", "edge", "--h-list", "2")
    assert code == 0 and out.splitlines()[3].startswith("-2,")


def test_multiscale_edge_default_stops_above_h_star(capsys):
    # the default depths lie strictly between h* = -7 and 0 on 128 x 128;
    # an explicit h* still has no room for its edge windows
    base = ["multiscale", "--L", "128", "--M", "128", "--critical", "--t1", "isotropic",
            "--decay", "edge"]
    code, out, _ = run(capsys, *base)
    assert code == 0 and [row.split(",")[0] for row in out.splitlines()[3:]] == [
        "-6", "-5", "-4", "-3", "-2", "-1"]
    code, out, err = run(capsys, *base, "--h-list", "7")
    assert_one_usage_line(code, err)
    assert err == ("error: --h-list: could not place enough edge samples at h = -7 "
                   "on 128 x 128; use shallower depths\n")
    assert out == ""


def test_multiscale_default_tail_is_a_seed_free_sup_bound(capsys):
    # the default depths h* < h < 0 of 16 x 16, each bounding all 256^2 site pairs
    base = ["multiscale", "--L", "16", "--M", "16", "--critical", "--t1", "isotropic",
            "--decay", "tail"]
    code, out, _ = run(capsys, *base, "--seed", "0")
    rows = out.splitlines()[3:]
    assert code == 0 and [row.split(",")[0] for row in rows] == ["-3", "-2", "-1"]
    assert all(row.split(",")[4] == "65536" for row in rows)
    code, out, _ = run(capsys, *base, "--seed", "5")
    assert code == 0 and out.splitlines()[3:] == rows


def test_multiscale_bulk_decay_below_h_minus_seven(capsys):
    code, out, _ = run(capsys, "multiscale", "--L", "256", "--M", "256", "--critical",
                       "--t1", "isotropic", "--decay", "bulk", "--h-list", "7,8")
    rows = out.splitlines()[3:]
    assert code == 0 and [row.split(",")[0] for row in rows] == ["-7", "-8"]


@pytest.mark.parametrize("n", ["0", "-2"])
def test_multiscale_gram_needs_a_pair(capsys, n):
    code, out, err = run(capsys, "multiscale", "--L", "8", "--M", "8", "--critical",
                         "--t1", "isotropic", "--gram", f"--n-pairs={n}")
    assert_one_usage_line(code, err)
    assert err.startswith("error: --n-pairs:")
    assert out == ""


def test_scaling_coarse_mesh_blames_meshes(capsys):
    code, out, err = run(capsys, "scaling", "--l1", "1", "--l2", "1", "--meshes", "2,4",
                         "--pairs", "[[[0.3,0.3],[0.6,0.6]]]")
    assert_one_usage_line(code, err)
    assert err.startswith("error: --meshes: mesh a=0.5 too coarse")
    assert out == ""


@pytest.mark.parametrize("meshes", ["1e-9,32", "32,4096", "1e-320,32"])
def test_scaling_rejects_a_mesh_beyond_the_site_cap(capsys, monkeypatch, meshes):
    def forbidden(*args, **kwargs):
        raise AssertionError("mode tables built for a rejected mesh")

    monkeypatch.setattr(spectral.SpectralData, "__init__", forbidden)
    monkeypatch.setattr(scaling, "scaling_remainder_records", forbidden)
    code, out, err = run(capsys, "scaling", "--l1", "1", "--l2", "1", "--meshes", meshes,
                         "--pairs", "[[[0.3,0.3],[0.6,0.6]]]")
    assert_one_usage_line(code, err)
    assert err.startswith("error: --meshes:")
    assert out == ""


@pytest.mark.parametrize("meshes,message", [
    ("1e-320,32", "mesh a=1e-320 too fine"),
    ("nan,32", "expected positive numbers"),
    ("inf,32", "expected positive numbers"),
])
def test_scaling_rejects_a_non_finite_mesh(capsys, meshes, message):
    code, out, err = run(capsys, "scaling", "--l1", "1", "--l2", "1", "--meshes", meshes,
                         "--pairs", "[[[0.3,0.3],[0.6,0.6]]]")
    assert_one_usage_line(code, err)
    assert err.startswith(f"error: --meshes: {message}")
    assert out == ""


def test_scaling_accepts_a_mesh_at_the_site_cap(capsys, monkeypatch):
    seen = []

    def record(cylinder, couplings, pairs, meshes):
        seen.append([cylinder.lattice_sizes(a) for a in meshes])
        return []

    monkeypatch.setattr(scaling, "scaling_remainder_records", record)
    code, _, err = run(capsys, "scaling", "--l1", "1", "--l2", "1", "--meshes", "32,2048",
                       "--pairs", "[[[0.3,0.3],[0.6,0.6]]]")
    assert code == 0, err
    assert seen == [[(32, 32), (2048, 2048)]]
    assert 2048 * 2048 == cli.SCALING_SITE_CAP


@pytest.mark.parametrize("command", [
    ["scaling", "--meshes", "8,16", "--pairs", "[[[0.25,0.25],[0.75,0.5]]]"],
    ["correlations", "--marked", "[[0.3125,0.375,2],[0.6875,0.625,2]]"],
])
@pytest.mark.parametrize("flags", [["--beta", "0.3"], ["--J1", "1"], ["--J2", "5"],
                                   ["--beta", "0.3", "--J1", "1", "--J2", "5"]])
def test_continuum_commands_reject_a_temperature(capsys, command, flags):
    code, out, err = run(capsys, *command, "--l1", "1", "--l2", "1", *flags)
    assert_one_usage_line(code, err)
    assert err.startswith(f"error: {flags[0]}") and "criticality" in err
    assert out == ""


def test_dense_paths_never_build_the_oracle_matrix(capsys, monkeypatch):
    built = []
    init = exact.PropagatorCache.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(exact.PropagatorCache, "__init__", recording)
    exact.propagator_from_A.cache_clear()
    code, _, _ = run(capsys, "propagator", "--L", "6", "--M", "4", "--beta", "0.3",
                     "--J1", "1", "--J2", "0.8", "--route", "dense",
                     "--pairs", "[[[1,1],[4,3]],[[6,2],[2,4]]]")
    assert code == 0
    cpl = exact.Couplings.from_beta(0.4, 1.0, 0.9)
    bonds = [energy.EnergyBond(8, 3, 1), energy.EnergyBond(1, 4, 2),
             energy.EnergyBond(2, 5, 2)]
    assert math.isfinite(energy.truncated_energy_correlation(
        CylinderGeometry(8, 8), cpl, bonds))
    assert verify.check_spectral_vs_inverse()["passed"]
    assert verify.check_boundary_and_symmetry()["passed"]
    assert len(built) == 1 + 1 + 6 + 2
    assert not [cache for cache in built if "matrix" in cache.__dict__]


_OFF_CRITICAL = ["--L", "4", "--M", "3", "--beta", "0.4", "--J1", "1", "--J2", "1"]
# per command: the library entry point it calls, outside any wrapper that
# prefixes a flag name, and flags that reach it
_ENTRY_POINTS = {
    "partition": (exact, "partition_function_log", _OFF_CRITICAL),
    "propagator": (exact, "dense_propagator", [*_OFF_CRITICAL, "--z", "1,1", "--zp", "2,3"]),
    "multiscale": (multiscale, "telescoping_residual",
                   ["--L", "8", "--M", "8", "--critical", "--t1", "isotropic",
                    "--check-telescoping"]),
    "scaling": (scaling, "ContinuumCylinder",
                ["--l1", "1", "--l2", "1", "--meshes", "8,16",
                 "--pairs", "[[[0.25, 0.25], [0.75, 0.5]]]"]),
    "correlations": (energy, "truncated_energy_correlation",
                     [*_OFF_CRITICAL, "--bonds", "[[1,1,2],[3,2,2]]"]),
    "kernels": (kernels, "symmetrize", ["--random", "2,1", "--apply", "symmetrize"]),
}


@pytest.mark.parametrize("exc,prefix", [(ValueError, "error: "),
                                        (MemoryError, "error: out of memory: ")])
@pytest.mark.parametrize("command", sorted(_ENTRY_POINTS))
def test_library_errors_exit_one_in_one_line(capsys, monkeypatch, command, exc, prefix):
    module, name, flags = _ENTRY_POINTS[command]

    def planted(*args, **kwargs):
        raise exc("planted")

    monkeypatch.setattr(module, name, planted)
    code, out, err = run(capsys, command, *flags)
    assert code == 1
    assert err == f"{prefix}planted\n"
    assert out == ""


def test_correlations_bond_site_outside_is_rejected_before_the_cache(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("propagator cache built for a bond outside the lattice")

    monkeypatch.setattr(exact.PropagatorCache, "__init__", forbidden)
    exact.propagator_from_A.cache_clear()
    code, _, err = run(capsys, "correlations", *_OFF_CRITICAL, "--bonds", "[[1,1,2],[5,1,1]]")
    assert_one_usage_line(code, err)
    assert err == "error: bond site (5, 1) outside the lattice\n"


@pytest.mark.parametrize("command,flags", [("partition", []),
                                           ("correlations", ["--bonds", "[[1,1,1],[3,2,2]]"])],
                         ids=["partition", "correlations"])
def test_oracle_cap_is_checked_before_the_exact_route(capsys, monkeypatch, command, flags):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact route ran before the --oracle cap")

    monkeypatch.setattr(exact.PropagatorCache, "__init__", forbidden)
    monkeypatch.setattr(exact, "partition_function_log", forbidden)
    exact.propagator_from_A.cache_clear()
    code, out, err = run(capsys, command, "--L", "512", "--M", "512", "--beta", "0.4",
                         "--J1", "1", "--J2", "0.9", *flags, "--oracle")
    assert_one_usage_line(code, err)
    assert err == "error: --oracle: 262144 sites exceed the brute-force cap (20)\n"
    assert out == ""


def test_correlations_points_one_winding_apart_are_not_distinct(capsys):
    # 1.3 % 1 != 0.3 in floating point, but the image sum sees the winding
    code, out, err = run(capsys, "correlations", "--l1", "1", "--l2", "1",
                         "--marked", "[[0.3,0.5,2],[1.3,0.5,2]]")
    assert_one_usage_line(code, err)
    assert "distinct" in err and out == ""

