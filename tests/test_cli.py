"""Command line contract: exit codes, CSV schema, determinism."""

import json

import pytest

from isingcyl import scaling
from isingcyl.cli import main


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


def test_unknown_config_key_rejected(capsys, tmp_path):
    # "parallel" is no option either: the CLI runs single-threaded
    for key in ("bogus", "parallel"):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "partition", "--config", str(cfg))
        assert code == 1
        assert key in err


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
