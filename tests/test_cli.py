import hashlib
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

import wgelfand as wg
from wgelfand.cli import main
from wgelfand.tolerance import RTOL, within

import oracles
from conftest import C300_ONE_WRONG, LOOP_5, gelfand_instances, involution


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


def assert_symbols_are_kernel_transforms(report, paths, count):
    """The reported symbols of the first `count` multipliers, all kernels,
    equal the transforms `sset.characters @ h` of their coset values h,
    within the tolerance at the scale of the transform; sset comes from the
    library run on the same spec files."""
    spec = {name: json.loads(Path(paths[name]).read_text())
            for name in ("group", "subgroup", "weight")}
    group = wg.group_from_spec(spec["group"])
    part = wg.double_cosets(group, wg.subgroup_from_spec(group, spec["subgroup"]))
    wd = wg.weight_from_spec(spec["weight"], part)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, wd))
    for entry, path in zip(report["multipliers"][:count], paths["multipliers"]):
        h = np.array(json.loads(Path(path).read_text())["coset_values"]) @ [1, 1j]
        want = sset.characters @ h
        got = np.array(entry["symbol"]) @ [1, 1j]
        assert within(np.max(np.abs(got - want)), np.max(np.abs(want))), path


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


def test_analyze_reports_multiplicities(tmp_path, capsys):
    """The rank and the multiplicities come from the orthogonality
    certificate. On S3 over a transposition, Ind_K^G 1 is the permutation
    representation on 3 points, 1 + 2; on C12 over the trivial subgroup
    every m_s is 1. The text format prints them on the spherical-count
    line."""
    for group, subgroup, want in ((S3, K_TRANSPOSITION, [2, 1]),
                                  ({"kind": "cyclic", "n": 12}, {"seeds": []}, [1] * 12)):
        paths = write_specs(tmp_path, group, subgroup, UNIFORM)
        args = ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
                "--weight", paths["weight"]]
        code, out = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["spherical"]["multiplicities"] == want
        code, out = run_cli(args + ["--format", "text"], capsys)
        assert f"{len(want)}  multiplicities={want}" in out


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


@pytest.mark.parametrize(
    "group, subgroup",
    [(S3, {"seeds": []}), ({"kind": "symmetric", "n": 4}, K_TRANSPOSITION)],
    ids=["S3/1", "S4/(0 1)"],
)
def test_not_gelfand_note_is_the_same_for_every_command(tmp_path, capsys, group, subgroup):
    kernel = {"kind": "kernel", "coset_values": [[1.0, 0.0]]}
    paths = write_specs(tmp_path, group, subgroup, UNIFORM, multipliers=[kernel])
    specs = ["--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]]
    notes = []
    for argv in (["analyze"] + specs,
                 ["multiplier-check", "--multiplier", paths["multipliers"][0]] + specs):
        code, out = run_cli(argv, capsys)
        report = json.loads(out)
        assert code == 2 and "spherical" not in report and "multipliers" not in report
        notes.append(report.get("note"))
    assert notes[0] == "not a weighted Gelfand pair; downstream stages skipped"
    assert notes == notes[:1] * 2


def test_complex_pairs_serialise_like_per_element_lists():
    """cli._pairs arrays, written by orjson as numpy, give the bytes of the
    per-element [re, im] lists of Python floats: for a vector, a matrix, its
    transpose (not contiguous) and the spherical functions of S3/<(0 1)>."""
    from wgelfand.cli import _pairs

    def dumps(value, option=0):
        return orjson.dumps(value, option=option | orjson.OPT_SERIALIZE_NUMPY)

    def per_element(z):
        if z.ndim == 1:
            return [[float(v.real), float(v.imag)] for v in z]
        return [per_element(row) for row in z]

    rng = np.random.default_rng(13)
    vec = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    vec[:6] = [0.1 + 0.2j, -0.0 + 0.0j, complex(0.0, -0.0), 1e-300 - 1e300j, 1 / 3, 7.0 - 2.5j]
    mat = vec.reshape(5, 8)
    for z in (vec, mat, mat.T):
        assert dumps(_pairs(z)) == orjson.dumps(per_element(z))
    assert b"-0.0" in dumps(_pairs(vec)) and b"1e300" in dumps(_pairs(vec))
    group = wg.symmetric_group(3)
    K = oracles.subgroup_closure(group, [1])
    part = wg.double_cosets(group, K.generators)
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}
    wd = wg.weight_from_spec(weight, part)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, wd))
    ours = [{"coset_values": phi, "character": chi}
            for phi, chi in zip(_pairs(sset.functions), _pairs(sset.characters))]
    old = [{"coset_values": per_element(phi), "character": per_element(chi)}
           for phi, chi in zip(sset.functions, sset.characters)]
    assert dumps(ours, orjson.OPT_SORT_KEYS) == orjson.dumps(old, option=orjson.OPT_SORT_KEYS)


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


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{", b"\xc3\x28", b"[" * 100_000 + b"]" * 100_000],
    ids=["utf16-bom-truncated", "invalid-utf8", "nested-100000-deep"],
)
def test_undecodable_spec_exit_1(tmp_path, capsys, raw):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    Path(paths["group"]).write_bytes(raw)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert paths["group"] in assert_one_line_error(code, capsys)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exit_1(tmp_path, capsys, where):
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    output = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--output", str(output)]
    )
    assert str(output) in assert_one_line_error(code, capsys)


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
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
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
    assert_symbols_are_kernel_transforms(report, paths, 2)
    assert report["commutation"][0]["residual"] < 1e-9


D6 = {"kind": "dihedral", "n": 6}
K_REFLECTION = {"seeds": [2]}  # element 2 is the generating reflection


def test_dihedral_2_reports_order_4(tmp_path, capsys):
    """D2 over the trivial subgroup: the Klein four-group, so four double
    cosets of one element each and four spherical functions."""
    paths = write_specs(tmp_path, {"kind": "dihedral", "n": 2}, {"seeds": []}, UNIFORM)
    code, out = run_cli(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["group"]["order"] == 4
    assert report["group"]["double_cosets"] == 4
    assert report["spherical"]["count"] == 4


def test_scaled_kernel_matches_its_transform(tmp_path, capsys):
    # the match is relative to the size of the transform, not an absolute 1e-8
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1.5, "2": 0.7, "3": 2.0}}
    kernel = {"kind": "kernel",
              "coset_values": [[1e8, 0.0], [2e8, 5e7], [-3e8, 0.0], [7e7, -1e8]]}
    paths = write_specs(tmp_path, D6, K_REFLECTION, weight, multipliers=[kernel])
    code, out = run_cli(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--multiplier", paths["multipliers"][0]],
        capsys,
    )
    assert code == 0
    entry = json.loads(out)["multipliers"][0]
    assert entry["is_multiplier"] is True
    assert entry["symbol_matches_kernel_transform"] is True
    assert_symbols_are_kernel_transforms(json.loads(out), paths, 1)


def test_weight_off_one_at_identity_gets_one_decision(tmp_path, capsys):
    weight = {"kind": "by_double_coset",
              "values": {"0": 1.0 + 1e-12, "1": 1.5, "2": 0.7, "3": 2.0}}
    paths = write_specs(tmp_path, D6, K_REFLECTION, weight)
    args = ["--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    code, out = run_cli(["analyze"] + args, capsys)
    report = json.loads(out)
    assert code == 0
    assert report["weight"]["unit_at_identity"] is False
    assert "w(e)" in report["note"] and "spherical" not in report
    kernel = {"kind": "kernel", "coset_values": [[1.0, 0.0]] * 4}
    paths = write_specs(tmp_path, D6, K_REFLECTION, weight, multipliers=[kernel])
    check = ["multiplier-check", "--multiplier", paths["multipliers"][0]] + args
    assert "w(e)" in assert_one_line_error(main(check), capsys)

    group = wg.dihedral_group(6)
    K = oracles.subgroup_closure(group, [2])
    part = wg.double_cosets(group, K.generators)
    wd = wg.weight_from_spec(weight, part)
    sc = wg.hecke_structure_constants(group, part, wd)
    with pytest.raises(wg.PreconditionError):
        wg.enumerate_spherical(sc)


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


@pytest.mark.parametrize(
    "multiplier",
    [
        {"kind": "kernel", "coset_values": [[True, False], [1, 0]]},
        {"kind": "kernel", "coset_values": [["1", 0], [1, 0]]},
        {"kind": "kernel", "coset_values": [[float("nan"), 0], [1, 0]]},
        {"kind": "kernel", "coset_values": [[10**400, 0], [1, 0]]},
        {"kind": "matrix", "rows": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]},
    ],
    ids=["boolean", "string", "nan", "int-overflow", "infinity"],
)
def test_malformed_multiplier_parts_exit_1(tmp_path, capsys, multiplier):
    """Every kernel operator is a multiplier, so a NaN kernel must not be
    reported as a failed one; it is an input error, like a boolean part."""
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM, multipliers=[multiplier])
    code = main(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--multiplier", paths["multipliers"][0]]
    )
    assert "numbers" in assert_one_line_error(code, capsys)


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


def test_text_format_prints_the_witness_the_condition_and_the_multipliers(tmp_path, capsys):
    """The text lines that only some reports reach, each the same value as
    the JSON report of the same call: the witness of a pair that is not
    Gelfand (S3 over the trivial subgroup, exit 2), and the sufficient
    condition, each multiplier with its symbol and the commutation residual
    of a multiplier-check on C5 with the inversion."""
    def both(argv):
        code, out = run_cli(argv, capsys)
        text_code, text = run_cli(argv + ["--format", "text"], capsys)
        assert text_code == code
        return code, json.loads(out), text.splitlines()

    paths = write_specs(tmp_path, S3, {"seeds": []}, UNIFORM)
    code, report, lines = both(["analyze", "--group", paths["group"], "--subgroup",
                                paths["subgroup"], "--weight", paths["weight"]])
    assert code == 2
    assert f"{'witness':<24}{report['gelfand']['witness']}" in lines
    assert not any(line.startswith("sufficient condition") for line in lines)

    kernels = [{"kind": "kernel", "coset_values": [[1, 0], [2, 0], [0, 0], [0, 0], [2, 0]]},
               {"kind": "kernel", "coset_values": [[0, 0], [1, 1], [3, 0], [3, 0], [1, -1]]}]
    paths = write_specs(tmp_path, {"kind": "cyclic", "n": 5}, {"seeds": []},
                        {"kind": "by_element", "values": [1, 2, 3, 3, 2]},
                        automorphism={"kind": "inversion"}, multipliers=kernels)
    code, report, lines = both(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--automorphism", paths["automorphism"],
         "--multiplier", paths["multipliers"][0], "--multiplier", paths["multipliers"][1]])
    assert code == 0
    assert f"{'sufficient condition':<24}True" in lines
    assert not any(line.startswith("witness") for line in lines)
    for entry in report["multipliers"]:
        at = lines.index(f"{'multiplier':<24}{entry['path']}: True")
        label, values = lines[at + 1].split(None, 1)
        assert label == "symbol"
        values = [complex(v) for v in values.split(", ")]
        assert np.allclose(values, np.array(entry["symbol"]) @ [1, 1j], rtol=1e-5)
    (pair,) = report["commutation"]
    assert f"{'commutation':<24}pair [0, 1] residual={pair['residual']:.3g}" in lines


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


def test_report_bytes_are_written_as_encoded(tmp_path, capsys, monkeypatch):
    """The report file holds orjson's bytes plus a newline, unchanged, and
    stdout gets the same text; the text format is encoded once, too."""
    import wgelfand.cli

    reports = []
    run = wgelfand.cli.run

    def recording_run(args):
        reports.append(run(args))
        return reports[-1]

    monkeypatch.setattr(wgelfand.cli, "run", recording_run)
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM)
    args = ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    out = tmp_path / "report.json"
    assert main(args + ["--output", str(out)]) == 0
    options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    expected = orjson.dumps(reports[-1][0], option=options) + b"\n"
    assert out.read_bytes() == expected
    code, printed = run_cli(args, capsys)
    assert code == 0
    assert printed == orjson.dumps(reports[-1][0], option=options).decode() + "\n"
    assert main(args + ["--output", str(out), "--format", "text"]) == 0
    assert out.read_bytes() == wgelfand.cli._format_text(reports[-1][0]).encode()


@pytest.fixture
def builds(monkeypatch):
    """The group specs that `main` builds a group from, one entry per
    `group_from_spec` call, with no group kept from an earlier test."""
    import wgelfand.cli

    monkeypatch.setattr(wgelfand.cli, "_last_group", None)
    specs = []
    build = wgelfand.cli.group_from_spec
    monkeypatch.setattr(wgelfand.cli, "group_from_spec", lambda spec: specs.append(spec) or build(spec))
    return specs


def _analyze(paths, group, output):
    """main's exit code for analyze on `group`, with the subgroup and weight
    of `paths`, and the report written to `output` without its timings, or
    None."""
    code = main(["analyze", "--group", str(group), "--subgroup", paths["subgroup"],
                 "--weight", paths["weight"], "--output", str(output)])
    if not output.exists():
        return code, None
    report = json.loads(output.read_bytes())
    report.pop("timings")
    output.unlink()
    return code, report


D6 = {"kind": "dihedral", "n": 6}


def test_byte_identical_group_specs_build_one_group(tmp_path, builds):
    """Two calls on the same group spec bytes at two paths build the group
    once, and their reports differ only in the path of the group spec."""
    paths = write_specs(tmp_path, D6, {"seeds": [2]}, UNIFORM)
    copy = tmp_path / "copy.json"
    copy.write_bytes(Path(paths["group"]).read_bytes())
    first = _analyze(paths, paths["group"], tmp_path / "out.json")
    second = _analyze(paths, copy, tmp_path / "out.json")
    assert builds == [D6]
    assert first[0] == second[0] == 0
    assert first[1]["inputs"]["group"]["path"] == paths["group"]
    assert second[1]["inputs"]["group"]["path"] == str(copy)
    second[1]["inputs"]["group"]["path"] = paths["group"]
    assert first == second


def test_a_one_byte_change_builds_again(tmp_path, builds):
    paths = write_specs(tmp_path, D6, {"seeds": [2]}, UNIFORM)
    changed = tmp_path / "changed.json"
    changed.write_bytes(Path(paths["group"]).read_bytes() + b"\n")
    first = _analyze(paths, paths["group"], tmp_path / "out.json")
    second = _analyze(paths, changed, tmp_path / "out.json")
    assert builds == [D6, D6]
    assert first[1]["inputs"]["group"]["sha256"] != second[1]["inputs"]["group"]["sha256"]
    assert first[1]["group"] == second[1]["group"]


def test_a_failing_group_spec_is_not_kept(tmp_path, capsys, builds):
    """Good A, bad B, A, B: B fails with its own message both times, and A,
    kept from its first call, is built once."""
    paths = write_specs(tmp_path, D6, {"seeds": []}, UNIFORM)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "cyclic", "n": 0}))
    out = tmp_path / "out.json"
    for group, want in [(paths["group"], 0), (bad, 1), (paths["group"], 0), (bad, 1)]:
        code, report = _analyze(paths, group, out)
        if want:
            assert report is None
            line = assert_one_line_error(code, capsys)
            assert line == "error: cyclic group order must be >= 1"
        else:
            assert code == 2 and report["group"]["order"] == 12
    assert builds == [D6, {"kind": "cyclic", "n": 0}, {"kind": "cyclic", "n": 0}]


def test_alternating_group_specs_build_every_time(tmp_path, builds):
    """One group is kept: A, B, A builds three groups."""
    paths = write_specs(tmp_path, D6, {"seeds": []}, UNIFORM)
    other = tmp_path / "c12.json"
    other.write_text(json.dumps({"kind": "cyclic", "n": 12}))
    orders = [_analyze(paths, g, tmp_path / "out.json")[1]["group"]["order"]
              for g in (paths["group"], other, paths["group"])]
    assert orders == [12, 12, 12]
    assert builds == [D6, {"kind": "cyclic", "n": 12}, D6]


def test_the_kept_group_refuses_writes(tmp_path, builds):
    import wgelfand.cli

    paths = write_specs(tmp_path, D6, {"seeds": [2]}, UNIFORM)
    assert _analyze(paths, paths["group"], tmp_path / "out.json")[0] == 0
    digest, group = wgelfand.cli._last_group
    assert digest == hashlib.sha256(Path(paths["group"]).read_bytes()).hexdigest()
    for array in (group.perms, group.inv, group.generators):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


# the keys whose value is null when there is nothing to report
NULLABLE = {("gelfand", "witness"), ("gelfand", "rap"), ("weight", "theta_invariant")}


def _nulls(node, path=()):
    """The path of every null in a parsed report."""
    if node is None:
        return [path]
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    return [p for key, child in items for p in _nulls(child, path + (key,))]


def load_report(out):
    """The parsed report, which must hold no NaN or Infinity and no null
    outside NULLABLE: the encoder writes a non-finite float as null."""
    report = json.loads(out, parse_constant=_reject_constant)
    assert [p for p in _nulls(report) if p not in NULLABLE] == []
    return report


def test_a_non_finite_value_cannot_hide_as_null():
    report = {"gelfand": {"witness": None, "rap": None}, "fourier": {"condition": float("nan")}}
    out = orjson.dumps(report).decode()
    assert json.loads(out)["fourier"]["condition"] is None
    with pytest.raises(AssertionError):
        load_report(out)
    del report["fourier"]
    assert load_report(orjson.dumps(report).decode()) == report


def test_report_numbers_match_library(tmp_path, capsys):
    """On S3/<(0 1)> and D6/<s>, both weighted, the report's spherical
    functions and characters are the library's bit for bit, and its
    transform matrix is the characters transposed:
    fourier.matrix[i][s] is spherical.functions[s].character[i]. Each report
    is valid JSON: it holds no NaN or Infinity, and no null outside the keys
    that may be null."""
    d6_weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1.5, "2": 0.7, "3": 2.0}}
    cases = [
        (S3, K_TRANSPOSITION, {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}),
        (D6, K_REFLECTION, d6_weight),
    ]
    for n, (group_spec, subgroup_spec, weight) in enumerate(cases):
        spec_dir = tmp_path / str(n)
        spec_dir.mkdir()
        paths = write_specs(spec_dir, group_spec, subgroup_spec, weight)
        code, out = run_cli(
            ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]],
            capsys,
        )
        assert code == 0
        report = load_report(out)
        group = wg.group_from_spec(group_spec)
        part = wg.double_cosets(group, wg.subgroup_from_spec(group, subgroup_spec))
        wd = wg.weight_from_spec(weight, part)
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, wd))
        from_report = [
            [complex(re, im) for re, im in fn["coset_values"]]
            for fn in report["spherical"]["functions"]
        ]
        from_lib = [phi.tolist() for phi in sset.functions]
        assert np.allclose(from_report, from_lib)

        functions = report["spherical"]["functions"]
        matrix = report["fourier"]["matrix"]
        d = part.num_cosets
        assert len(functions) == len(matrix) == d
        for i in range(d):
            for s in range(d):
                assert matrix[i][s] == functions[s]["character"][i]
        pairs = np.array([[fn["coset_values"], fn["character"]] for fn in functions])
        assert np.array_equal(pairs[:, 0, :, 0] + 1j * pairs[:, 0, :, 1], sset.functions)
        assert np.array_equal(pairs[:, 1, :, 0] + 1j * pairs[:, 1, :, 1], sset.characters)


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
    "values, message",
    [
        ([1, 0.5, 0], "must be an object"),
        ([1, 0.5], "must be an object"),
        ({"0": 1, "1": 0.5, "7": 3}, "unknown double coset '7'"),
    ],
    ids=["list-with-zero", "list", "unknown-key"],
)
def test_coset_weight_map_is_read_by_key_exit_1(tmp_path, capsys, values, message):
    """S3 over a transposition has d = 2: a list is not read by membership,
    and a key that names no double coset is not ignored."""
    weight = {"kind": "by_double_coset", "values": values}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert message in assert_one_line_error(code, capsys)


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


D3 = {"kind": "dihedral", "n": 3}


@pytest.mark.parametrize(
    "weight",
    [
        {"kind": "by_element", "values": [1, True, 1, 1, 1, 1]},
        {"kind": "by_element", "values": [1, "1.5", 1, 1, 1, 1]},
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": True}},
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": "2.0"}},
    ],
    ids=["element-true", "element-string", "coset-true", "coset-string"],
)
def test_boolean_and_string_weights_exit_1(tmp_path, capsys, weight):
    paths = write_specs(tmp_path, D3, {"seeds": []}, weight)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert "must be numbers" in assert_one_line_error(code, capsys)


def test_non_integer_automorphism_exit_1(tmp_path, capsys):
    # a boolean among integers would otherwise be read as 1: the identity here
    for perm in (["a", "b", "c", "d", "e", "f"], [0, True, 2, 3, 4, 5]):
        paths = write_specs(
            tmp_path, D3, {"seeds": []}, UNIFORM,
            automorphism={"kind": "perm", "perm": perm},
        )
        code = main(
            ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"], "--automorphism", paths["automorphism"]]
        )
        assert "automorphism" in assert_one_line_error(code, capsys)


def test_overflowing_weight_exit_3(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1e200}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    with np.errstate(over="ignore"):
        code = main(
            ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]]
        )
    assert "overflow" in assert_one_line_error(code, capsys, expected_code=3)


def test_overflowing_weight_exit_3_without_warnings(tmp_path, capsys):
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1e200}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert "overflow" in assert_one_line_error(code, capsys, expected_code=3)


def test_character_keys_beyond_the_float_range_exit_3_without_warnings(tmp_path, capsys):
    """On C3 over 1 with coset weights (1, 1e300, 1e300) the characters are
    finite, but their order keys, rounded to 9 decimals, and the row norms
    of F overflow: one error line, exit 3, and no RuntimeWarning (an error
    under the test settings)."""
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": 1e300, "2": 1e300}}
    paths = write_specs(tmp_path, {"kind": "cyclic", "n": 3}, {"seeds": []}, weight)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert "row norms overflow" in assert_one_line_error(code, capsys, expected_code=3)


HUGE_SCALAR = {"kind": "matrix", "rows": [[[1.5e308, 0], [0, 0]], [[0, 0], [1.5e308, 0]]]}
# L_h for h = (a, b) on S3/<(0 1)> is [[2a, 4b], [2b, 2a + 2b]], with
# eigenvalues (the symbol) 2a + 4b and 2a - 2b: a = 0.45e308, b = 0.4e308
# gives finite entries and the symbol value 2.5e308, beyond the float range
HUGE_EIGENVALUE = {
    "kind": "matrix",
    "rows": [[[0.9e308, 0], [1.6e308, 0]], [[0.8e308, 0], [1.7e308, 0]]],
}
LARGE_SCALAR = {"kind": "matrix", "rows": [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]}
# with coset weights {1, 1e14}, L_{T u} has the entry 4e28 (T u)_1 = 4e318 for
# (T u)_1 = 1e290, while the symbol values 2 (T u)_0 + {4e14, -2e14} (T u)_1
# stay finite
WIDE_WEIGHT = {"kind": "by_double_coset", "values": {"0": 1, "1": 1e14}}
UNIT_IMAGE_OVERFLOWS = {"kind": "matrix", "rows": [[[1, 0], [0, 0]], [[2e290, 0], [1, 0]]]}
# L_h sums h_i p[i,j,k] with p[1,1,0] = 4 on S3/<(0 1)>: 4 * 1e308 overflows
HUGE_KERNEL = {"kind": "kernel", "coset_values": [[1e308, 0], [1e308, 0]]}
# column e gives T u = (0.5, 0) and L_{T u} = I, but the entry
# 1.5e308 + 1.5e308 i has a modulus beyond the float range, so the scale of
# the check T = L_{T u} is inf, which every residual would pass
HUGE_MODULUS = {"kind": "matrix", "rows": [[[1, 0], [1.5e308, 1.5e308]], [[0, 0], [1, 0]]]}


@pytest.mark.parametrize(
    "weight, multipliers, message",
    [
        ({"kind": "by_double_coset", "values": {"0": 1, "1": 1e-320}}, [],
         "spherical functions overflow"),
        (UNIFORM, [HUGE_EIGENVALUE], "multiplier symbol overflows"),
        (UNIFORM, [LARGE_SCALAR, LARGE_SCALAR], "commutation residual overflows"),
        (UNIFORM, [HUGE_KERNEL], "kernel operator overflows"),
        (WIDE_WEIGHT, [UNIT_IMAGE_OVERFLOWS], "kernel operator overflows"),
        (UNIFORM, [HUGE_MODULUS], "multiplier check overflows"),
    ],
    ids=["spherical-tiny-weight", "symbol-huge-eigenvalue", "commutation-large-scalars",
         "kernel-operator-huge-kernel", "multiplier-check-wide-weight",
         "multiplier-check-huge-modulus"],
)
def test_non_finite_results_exit_3(tmp_path, capsys, weight, multipliers, message):
    """A value that overflows to inf or NaN is a numerical degeneracy: exit 3
    with one error line and no report, instead of inf or NaN in a report
    (a tiny coset weight divides the spherical functions; a true multiplier
    near the float range overflows its symbol or the commutator; a kernel
    near it overflows its operator L_h; a wide weight overflows the L_{T u}
    that is_multiplier compares a matrix with, and a complex entry beyond
    the float range overflows the scale of that comparison, either of
    which would otherwise pass any matrix as a multiplier)."""
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight, multipliers=multipliers)
    argv = ["analyze" if not multipliers else "multiplier-check",
            "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    for path in paths["multipliers"]:
        argv += ["--multiplier", path]
    assert message in assert_one_line_error(main(argv), capsys, expected_code=3)


def test_huge_scalar_multiplier_reports_its_symbol(tmp_path, capsys):
    """1.5e308 I is a multiplier with the finite symbol 1.5e308: the symbol
    is the transform of T u, which stays in the float range."""
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, UNIFORM, multipliers=[HUGE_SCALAR])
    code, out = run_cli(
        ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"], "--multiplier", paths["multipliers"][0]],
        capsys,
    )
    assert code == 0
    [entry] = json.loads(out)["multipliers"]
    assert entry["is_multiplier"] is True
    assert np.allclose(entry["symbol"], [[1.5e308, 0.0]] * 2, rtol=1e-15, atol=0)


@pytest.mark.parametrize("wide", [1e-10, 1e10, 1e100])
def test_fourier_rank_does_not_depend_on_the_weight(tmp_path, capsys, wide):
    """On S3/<(0 1)> with coset weights {1, wide}, F = diag(wd) F1 has full
    rank 2 whatever the weight: the rank is counted on F1. The bracket of
    its condition number is reported while it is finite; it holds the
    SVD's kappa_2, and its upper end is max(2 wide, 1 / wide): the spread of
    a = (sqrt 2, 2 wide) times sqrt 2 from m = (1, 2). At 1e100 F is
    singular in floating point, which exits 3 instead of writing Infinity."""
    weight = {"kind": "by_double_coset", "values": {"0": 1.0, "1": wide}}
    paths = write_specs(tmp_path, S3, K_TRANSPOSITION, weight)
    argv = ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    if wide == 1e100:
        assert "singular" in assert_one_line_error(main(argv), capsys, expected_code=3)
        return
    code, out = run_cli(argv, capsys)
    assert code == 0
    fourier = load_report(out)["fourier"]
    assert fourier["rank"] == 2
    lower, upper = fourier["condition"]
    F = np.asarray(fourier["matrix"]).view(complex)[..., 0]
    assert 1e9 < lower <= oracles.condition_number(F) <= upper
    assert upper == pytest.approx(max(2 * wide, 1 / wide), rel=RTOL)


def test_report_weight_flags_match_their_per_element_definitions(tmp_path, capsys):
    """The report reads its flags off the coset weights; on random
    bi-invariant weights with values in {1, 2} over every Gelfand instance
    they equal the definitions on G: v == v[inv], v[theta] == v, v[e] == 1."""
    rng = np.random.default_rng(31)
    seen = set()
    for name, group, K, part, _ in gelfand_instances():
        theta = involution(group)
        for trial in range(6):
            v = rng.integers(1, 3, part.num_cosets).astype(float)[part.coset_of]
            spec_dir = tmp_path / f"{name}-{trial}"
            spec_dir.mkdir()
            paths = write_specs(
                spec_dir, {"kind": "table", "table": oracles.mul_table(group).tolist()},
                {"elements": list(K.elements)}, {"kind": "by_element", "values": v.tolist()},
                automorphism={"kind": "perm", "perm": theta.tolist()},
            )
            code, out = run_cli(
                ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
                 "--weight", paths["weight"], "--automorphism", paths["automorphism"]],
                capsys,
            )
            assert code == 0, name
            flags = json.loads(out)["weight"]
            expected = {
                "k_bi_invariant": True,
                "symmetric": bool(np.all(v == v[group.inv])),
                "theta_invariant": bool(np.all(v[theta] == v)),
                "unit_at_identity": bool(v[group.identity] == 1.0),
            }
            assert flags == expected, name
            seen.update((key, value) for key, value in expected.items())
    assert len(seen) == 7  # every flag but k_bi_invariant took both values


def test_multiplier_check_stays_in_coset_coordinates(tmp_path, capsys, monkeypatch):
    """multiplier-check on D12 and, given as a table of order 260, on D130
    (both over a reflection): no G-level oracle and no random draw runs, and
    each multiplier file costs one `StructureConstants.left` call, made by
    `multiplier_from_kernel`: a kernel to build its operator L_h, which is a
    multiplier by Wendel's theorem, from `multiplier_from_spec`, and a matrix
    to build L_{T u} in `is_multiplier`. That `is_multiplier` accepts every kernel
    operator is checked directly by acceptance criterion 10."""
    import wgelfand.cli
    import wgelfand.fourier
    import wgelfand.hecke
    import wgelfand.spherical
    import wgelfand.weighted

    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on the pipeline")
        return record

    g_level = ("verify_functional_equation", "spherical_transform", "weighted_convolve")
    for module in (wg, wgelfand.cli, wgelfand.fourier, wgelfand.hecke,
                   wgelfand.spherical, wgelfand.weighted):
        for name in g_level:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorder(name))
    monkeypatch.setattr(np.random, "default_rng", recorder("default_rng"))

    left_callers = []
    left = wg.StructureConstants.left

    def counted_left(self, h):
        builder, caller = sys._getframe(1), sys._getframe(2)
        assert builder.f_code.co_name == "multiplier_from_kernel"
        left_callers.append(caller.f_code.co_name)
        return left(self, h)

    monkeypatch.setattr(wg.StructureConstants, "left", counted_left)

    groups = [
        ({"kind": "dihedral", "n": 12}, 7),
        ({"kind": "table", "table": oracles.mul_table(wg.dihedral_group(130)).tolist()}, 66),
    ]
    for group, d in groups:
        kernels = [
            {"kind": "kernel", "coset_values": [[1.0, 0.1 * k] for k in range(d)]},
            {"kind": "kernel", "coset_values": [[-0.2 * k, 0.3] for k in range(d)]},
            {"kind": "matrix", "rows": np.stack([np.eye(d), np.zeros((d, d))], -1).tolist()},
        ]
        paths = write_specs(tmp_path, group, {"seeds": [2]}, UNIFORM, multipliers=kernels)
        left_callers.clear()
        code, out = run_cli(
            ["multiplier-check", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]]
            + [arg for path in paths["multipliers"] for arg in ("--multiplier", path)],
            capsys,
        )
        assert calls == []
        assert code == 0
        assert sorted(left_callers) == ["is_multiplier"] + ["multiplier_from_spec"] * 2
        report = json.loads(out)
        assert report["spherical"]["count"] == d
        assert [m["is_multiplier"] for m in report["multipliers"]] == [True] * 3
        assert all(m["symbol_matches_kernel_transform"] for m in report["multipliers"][:2])
        assert_symbols_are_kernel_transforms(report, paths, 2)
        assert report["commutation"][0]["residual"] < 1e-9
        assert "seed" not in report


@pytest.mark.parametrize(
    "group, subgroup",
    [
        ({"kind": "cyclic", "n": "abc"}, {"seeds": []}),
        ({"kind": "dihedral", "n": 2.5}, {"seeds": []}),
        ({"kind": "cyclic", "n": 10**12}, {"seeds": []}),
        ({"kind": "symmetric", "n": 10**12}, {"seeds": []}),
        ({"kind": "table", "table": [[0, 1], [1]]}, {"seeds": []}),
        ({"kind": "generators", "generators": "abc"}, {"seeds": []}),
        (S3, {"seeds": ["a"]}),
        (S3, {"seeds": [1.5]}),
        (S3, {"elements": ["x"]}),
        (S3, {"elements": [0, 9]}),
        (S3, {"seeds": [0, True]}),
        (S3, {"elements": [0, True]}),
        ({"kind": "table", "table": C300_ONE_WRONG}, {"seeds": []}),
        ({"kind": "table", "table": LOOP_5}, {"seeds": []}),
    ],
    ids=["n-string", "n-fraction", "cyclic-too-large", "symmetric-too-large",
         "ragged-table", "generators-string", "seeds-string", "seeds-fraction",
         "elements-string", "elements-out-of-range", "seeds-boolean", "elements-boolean",
         "table-c300-one-entry", "table-loop-5"],
)
def test_malformed_group_and_subgroup_specs_exit_1(tmp_path, capsys, group, subgroup):
    paths = write_specs(tmp_path, group, subgroup, UNIFORM)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    assert_one_line_error(code, capsys)


@pytest.mark.parametrize(
    "group, automorphism, message",
    [
        ({"kind": "table", "table": [[0, 1], [1, 0], [0, 1]]}, None,
         "multiplication table must be square"),
        ({"kind": "table", "table": [[0, 1, 2], [1, 0, 5], [2, 5, 0]]}, None,
         "table entries out of range"),
        ({"kind": "cyclic", "n": 0}, None, "cyclic group order must be >= 1"),
        ({"kind": "dihedral", "n": 0}, None, "dihedral parameter must be >= 1"),
        ({"kind": "symmetric", "n": 0}, None, "symmetric group degree must be >= 1"),
        ({"kind": "generators"}, None, 'kind "generators" requires a "generators" field'),
        ({"kind": "cyclic"}, None, 'kind "cyclic" requires an "n" field'),
        ({"kind": "table"}, None, 'kind "table" requires a "table" field'),
        (S3, {"kind": "perm"}, 'kind "perm" requires a "perm" field'),
        (S3, {"kind": "perm", "perm": [0, 0, 2, 3, 4, 5]}, "not a permutation of 0..5"),
    ],
    ids=["table-not-square", "table-out-of-range", "cyclic-0", "dihedral-0", "symmetric-0",
         "no-generators", "no-n", "no-table", "no-perm", "perm-not-a-permutation"],
)
def test_group_and_automorphism_spec_errors_exit_1(tmp_path, capsys, group, automorphism,
                                                   message):
    """Each spec error exits 1 through the CLI with one line naming it. The
    out-of-range table has an identity and two-sided inverses, so only its
    entry 5 on 3 elements fails."""
    paths = write_specs(tmp_path, group, {"seeds": []}, UNIFORM, automorphism=automorphism)
    argv = ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    if automorphism is not None:
        argv += ["--automorphism", paths["automorphism"]]
    assert assert_one_line_error(main(argv), capsys) == f"error: {message}"


@pytest.mark.parametrize("seeds, bad", [([-1], -1), ([7], 7), ([1, 9, -2], 9)])
def test_seed_out_of_range_exits_1(tmp_path, capsys, seeds, bad):
    """A seed outside 0..5 on S3 exits 1 with one line naming the first bad
    seed in the given order, checked where the seeds are used, in
    double_cosets."""
    paths = write_specs(tmp_path, S3, {"seeds": seeds}, UNIFORM)
    code = main(
        ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
         "--weight", paths["weight"]]
    )
    line = assert_one_line_error(code, capsys)
    assert line == f"error: seed index {bad} out of range for order 6"


S4_OVER_S3 = {"elements": list(oracles.point_stabilizer(wg.symmetric_group(4), 3).elements)}


@pytest.mark.parametrize("command", ["analyze", "multiplier-check"])
@pytest.mark.parametrize(
    "group, subgroup, automorphism, d",
    [({"kind": "dihedral", "n": 6}, {"seeds": [2]}, {"kind": "identity"}, 4),
     ({"kind": "cyclic", "n": 8}, {"seeds": []}, {"kind": "inversion"}, 8),
     ({"kind": "symmetric", "n": 4}, S4_OVER_S3, None, 2)],
    ids=["D6-identity", "C8-inversion", "S4-none"],
)
def test_pipeline_never_reads_the_table(tmp_path, capsys, command, group, subgroup,
                                        automorphism, d):
    """Every command runs on groups built from generators, with and without
    an automorphism. A GroupTable keeps no |G|^2 table to read, and
    test_s7_over_s6_runs_without_the_table bounds the memory of a run."""
    kernel = {"kind": "kernel", "coset_values": [[1.0, 0.5]] * d}
    paths = write_specs(tmp_path, group, subgroup, UNIFORM, automorphism, [kernel])
    argv = [command, "--group", paths["group"], "--subgroup", paths["subgroup"],
            "--weight", paths["weight"]]
    if automorphism is not None:
        argv += ["--automorphism", paths["automorphism"]]
    if command == "multiplier-check":
        argv += ["--multiplier", paths["multipliers"][0]]
    code, out = run_cli(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["group"]["double_cosets"] == d
    assert report["spherical"]["count"] == d


def test_s7_over_s6_runs_without_the_table(tmp_path, capsys):
    """analyze on S7/S6 (|G| = 5040) traces a peak below 20 MB; the |G|^2
    int64 table alone would take 203 MB."""
    s7 = wg.symmetric_group(7)
    six_cycle = (1, 2, 3, 4, 5, 0, 6)  # with (0 1), element 1, it generates S6
    seeds = [1, int(np.flatnonzero((s7.perms == six_cycle).all(axis=1))[0])]
    paths = write_specs(tmp_path, {"kind": "symmetric", "n": 7}, {"seeds": seeds}, UNIFORM)
    tracemalloc.start()
    try:
        code, out = run_cli(
            ["analyze", "--group", paths["group"], "--subgroup", paths["subgroup"],
             "--weight", paths["weight"]],
            capsys,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(out)
    assert report["group"]["coset_sizes"] == [720, 4320]
    assert report["spherical"]["count"] == 2
    assert peak < 20 * 2**20


SPEC_FLAGS = ["--group", "g.json", "--subgroup", "k.json", "--weight", "w.json"]


@pytest.mark.parametrize(
    "argv",
    [["analyze"], [], ["nonsense"], ["analyze", "--group"], ["analyze", "--seed", "1"],
     ["spherical"] + SPEC_FLAGS, ["fourier"] + SPEC_FLAGS],
    ids=["missing-flags", "no-command", "unknown-command", "missing-value", "seed-removed",
         "spherical-removed", "fourier-removed"],
)
def test_usage_errors_exit_1(capsys, argv):
    assert_one_line_error(main(argv), capsys)


def test_readme_python_example_runs(capsys):
    """The README's Python example uses the public signatures as they are."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "True 2\n"
