import json

import numpy as np
import pytest

import wgelfand as wg
from wgelfand.cli import main


def write_specs(tmp_path, group, subgroup, weight, automorphism=None, multipliers=()):
    paths = {}
    for name, spec in [("group", group), ("subgroup", subgroup), ("weight", weight)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    if automorphism is not None:
        p = tmp_path / "automorphism.json"
        p.write_text(json.dumps(automorphism))
        paths["automorphism"] = str(p)
    paths["multipliers"] = []
    for idx, spec in enumerate(multipliers):
        p = tmp_path / f"multiplier{idx}.json"
        p.write_text(json.dumps(spec))
        paths["multipliers"].append(str(p))
    return paths


S3 = {"kind": "symmetric", "n": 3}
K_TRANSPOSITION = {"seeds": [1]}
UNIFORM = {"kind": "uniform"}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_analyze_s3_gelfand(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["gelfand"]["gelfand"] is True
    assert report["spherical"]["count"] == 2
    assert report["fourier"]["rank"] == 2


def test_analyze_not_gelfand_exit_2(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, {"seeds": []}, UNIFORM)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]],
        capsys,
    )
    assert code == 2
    report = json.loads(out)
    assert report["gelfand"]["gelfand"] is False
    assert report["gelfand"]["witness"] is not None


def test_malformed_weight_exit_1(tmp_path, capsys):
    bad = {"kind": "by_element", "values": [1, 1, 1, 0, 1, 1]}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, bad)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "strictly positive" in captured.err


def test_unreadable_file_exit_1(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    code = main(
        ["analyze", "--group", str(tmp_path / "missing.json"),
         "--subgroup", paths["subgroup"], "--weight", paths["weight"]]
    )
    assert code == 1


def test_invalid_json_reports_position(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "symmetric", }')
    code = main(
        ["analyze", "--group", str(broken), "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert ":1:" in captured.err  # line/column diagnostics


def test_analyze_with_automorphism_rap(tmp_path, capsys):
    weight = {"kind": "by_element", "values": [1, 2, 3, 3, 2]}
    paths = write_specs(
        tmp_path, {"kind": "cyclic", "n": 5}, {"seeds": []}, weight,
        automorphism={"kind": "inversion"},
    )
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--automorphism", paths["automorphism"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["gelfand"]["rap"] is True
    assert report["weight"]["theta_invariant"] is True


def test_spherical_command(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code, out = run_cli(
        ["spherical", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    values = sorted(
        fn["coset_values"][1][0] for fn in report["spherical"]["functions"]
    )
    assert values == pytest.approx([-0.25, 0.5])


def test_multiplier_check_kernel(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}
    kernel = {"kind": "kernel", "coset_values": [[1.0, 0.0], [0.5, 0.5]]}
    kernel2 = {"kind": "kernel", "coset_values": [[2.0, 0.0], [-1.0, 0.0]]}
    paths = write_specs(
        tmp_path, S3, K_TRANSPOSITION, weight, multipliers=[kernel, kernel2]
    )
    code, out = run_cli(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"],
         "--multiplier", paths["multipliers"][0],
         "--multiplier", paths["multipliers"][1]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert all(m["is_multiplier"] for m in report["multipliers"])
    assert all(m["symbol_matches_kernel_transform"] for m in report["multipliers"])
    assert report["commutation"][0]["residual"] < 1e-9


def test_multiplier_check_rejects_bad_matrix(tmp_path, capsys):
    bad = {"kind": "matrix", "rows": [[[1, 0], [7, 0]], [[0, 0], [1, 0]]]}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM, multipliers=[bad])
    code, out = run_cli(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--multiplier", paths["multipliers"][0]],
        capsys,
    )
    assert code == 2
    report = json.loads(out)
    assert report["multipliers"][0]["is_multiplier"] is False
    assert "witness" in report["multipliers"][0]


def test_text_format(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "weighted Gelfand" in out
    assert "transform rank" in out


def test_output_file_and_determinism(tmp_path, capsys):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    args = ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(args + ["--output", str(out)]) == 0
        blob = json.loads(out.read_text())
        blob.pop("timings")
        reports.append(json.dumps(blob, sort_keys=True))
    assert reports[0] == reports[1]


def test_report_numbers_match_library(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]],
        capsys,
    )
    report = json.loads(out)
    group = wg.symmetric_group(3)
    K = wg.subgroup_closure(group, [1])
    part = wg.double_cosets(group, K)
    w = wg.weight_from_spec(weight, group, part)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    from_report = [
        [complex(re, im) for re, im in fn["coset_values"]]
        for fn in report["spherical"]["functions"]
    ]
    from_lib = [phi.coset_values.tolist() for phi in sset.functions]
    assert np.allclose(from_report, from_lib)


def assert_one_line_error(code, capsys, expected_code=1):
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize(
    "weight",
    [
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": float("inf")}},
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": "abc"}},
        {"kind": "by_element", "values": [1, "abc", 1, 1, 1, 1]},
    ],
    ids=["infinite", "non-numeric", "non-numeric-element"],
)
def test_bad_weight_values_exit_1(tmp_path, capsys, weight):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert_one_line_error(code, capsys)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--tolerance", "-1"),
        ("--tolerance", "0"),
        ("--tolerance", "abc"),
        ("--seed", "zz"),
        ("--seed", "-0x1"),
    ],
)
def test_bad_flag_values_exit_1(tmp_path, capsys, flag, value):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], f"{flag}={value}"]
    )
    assert flag in assert_one_line_error(code, capsys)


def test_tiny_tolerance_keeps_gelfand_verdict(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--tolerance", "1e-300"],
        capsys,
    )
    assert json.loads(out)["gelfand"]["gelfand"] is True


def test_overflowing_weight_exit_3(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1e200}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    with np.errstate(over="ignore"):
        code = main(
            ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]]
        )
    assert "overflow" in assert_one_line_error(code, capsys, expected_code=3)
