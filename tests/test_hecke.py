import json
import sys

import numpy as np
import pytest

import wgelfand as wg
from wgelfand.cli import main
from wgelfand.errors import BiInvarianceError, NotInvolutiveError, PreconditionError

from conftest import (
    classical_convolve_oracle,
    random_bi_invariant_weight,
    random_symmetric_weight,
    weighted_convolve_oracle,
)


def test_structure_constants_full_subgroup():
    s3 = wg.symmetric_group(3)
    K = wg.subgroup_closure(s3, [1, 2])
    w = wg.uniform_weight(s3)
    sc = wg.hecke_structure_constants(s3, K, w)
    assert sc.dim == 1
    assert sc.c[0, 0, 0] == pytest.approx(6.0)

    # general weight: c = sum_y w(y) w(y^-1 x) / w(x) at any fixed x
    rng = np.random.default_rng(0)
    wv = np.full(6, rng.uniform(0.5, 2.0))  # bi-invariant for K = G means constant
    w2 = wg.Weight(wv)
    sc2 = wg.hecke_structure_constants(s3, K, w2)
    x = 3
    expected = sum(
        wv[y] * wv[s3.multiply(s3.inverse(y), x)] / wv[x] for y in range(6)
    )
    assert sc2.c[0, 0, 0] == pytest.approx(expected)


def test_structure_constants_s3(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, K, wg.uniform_weight(group), partition=part)
    # delta_1 * delta_1 = 4 delta_0 + 2 delta_1
    assert np.allclose(sc.c[1, 1], [4.0, 2.0])
    # cross-check against the double-loop classical oracle
    d1 = (part.coset_of == 1).astype(complex)
    prod = classical_convolve_oracle(d1, d1, group)
    assert np.allclose(prod, 4.0 * (part.coset_of == 0) + 2.0 * (part.coset_of == 1))


def test_structure_constants_trivial_subgroup_group_algebra(s3):
    K = wg.subgroup_closure(s3, [])
    sc = wg.hecke_structure_constants(s3, K, wg.uniform_weight(s3))
    for i in range(6):
        for j in range(6):
            expected = np.zeros(6)
            expected[s3.multiply(i, j)] = 1.0
            assert np.allclose(sc.c[i, j], expected)


def test_structure_constants_reject_non_invariant_weight(s3_pair):
    group, K, part = s3_pair
    with pytest.raises(BiInvarianceError) as exc:
        wg.hecke_structure_constants(group, K, wg.Weight(np.arange(1.0, 7.0)))
    x, y = exc.value.witness
    assert part.coset_of[x] == part.coset_of[y]


def test_gelfand_s3_pair(s3_pair):
    group, K, part = s3_pair
    report = wg.is_weighted_gelfand(group, K, wg.uniform_weight(group))
    assert report.is_weighted_gelfand
    assert report.witness is None
    assert report.unimodularity_identity


def test_not_gelfand_s3_trivial(s3):
    K = wg.subgroup_closure(s3, [])
    report = wg.is_weighted_gelfand(s3, K, wg.uniform_weight(s3))
    assert not report.is_weighted_gelfand
    i, j, x = report.witness
    # the witness pair genuinely fails to commute
    assert s3.multiply(i, j) != s3.multiply(j, i)


def test_gelfand_abelian_any_subgroup():
    c6 = wg.cyclic_group(6)
    rng = np.random.default_rng(1)
    for seeds in ([], [2], [3], [1]):
        K = wg.subgroup_closure(c6, seeds)
        part = wg.double_cosets(c6, K)
        w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
        assert wg.is_weighted_gelfand(c6, K, w, partition=part).is_weighted_gelfand


def test_weighted_transfer_invariant(s3_pair):
    group, K, part = s3_pair
    c1 = wg.hecke_structure_constants(group, K, wg.uniform_weight(group), partition=part).c
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = random_bi_invariant_weight(part, rng)
        cw = wg.hecke_structure_constants(group, K, w, partition=part).c
        wd = np.array([w.values[c[0]] for c in part.cosets])
        expected = c1 * wd[:, None, None] * wd[None, :, None] / wd[None, None, :]
        assert np.max(np.abs(cw - expected)) < 1e-9
        # commutativity verdict does not depend on the weight
        assert wg.is_weighted_gelfand(group, K, w, partition=part).is_weighted_gelfand


def test_rap_condition_cyclic5():
    c5 = wg.cyclic_group(5)
    K = wg.subgroup_closure(c5, [])
    theta = wg.inversion_automorphism(c5)
    w = wg.Weight(np.array([1.0, 2.0, 3.0, 3.0, 2.0]))
    assert wg.check_rap_condition(c5, K, w, theta)
    assert wg.is_weighted_gelfand(c5, K, w).is_weighted_gelfand


def test_rap_condition_s3_identity_theta(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6), require_involutive=True)
    assert wg.check_rap_condition(group, K, wg.uniform_weight(group), theta)


def test_rap_condition_fails_without_theta_invariance():
    c5 = wg.cyclic_group(5)
    K = wg.subgroup_closure(c5, [])
    theta = wg.inversion_automorphism(c5)
    w = wg.Weight(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))  # not symmetric
    assert not wg.check_rap_condition(c5, K, w, theta)


def test_rap_condition_requires_involutive():
    c5 = wg.cyclic_group(5)
    K = wg.subgroup_closure(c5, [])
    doubling = wg.check_automorphism(c5, [(2 * x) % 5 for x in range(5)])
    with pytest.raises(NotInvolutiveError):
        wg.check_rap_condition(c5, K, wg.uniform_weight(c5), doubling)


def test_unimodularity_identity_uniform(s4_pair):
    group, K, part = s4_pair
    assert wg.check_unimodularity_identity(group, K, wg.uniform_weight(group))


def test_unimodularity_identity_weighted_s3(s3_weighted):
    group, K, part, w = s3_weighted
    assert wg.check_unimodularity_identity(group, K, w, partition=part)


def test_unimodularity_requires_unit_weight(s3_pair):
    group, K, part = s3_pair
    with pytest.raises(PreconditionError):
        wg.check_unimodularity_identity(group, K, wg.Weight(np.full(6, 2.0)))


def test_unimodularity_holds_on_gelfand_instances():
    rng = np.random.default_rng(3)
    c7 = wg.cyclic_group(7)
    K = wg.subgroup_closure(c7, [])
    for _ in range(5):
        w = random_symmetric_weight(c7, rng)
        report = wg.is_weighted_gelfand(c7, K, w)
        assert report.is_weighted_gelfand
        assert report.unimodularity_identity


def test_report_serialization(s3):
    K = wg.subgroup_closure(s3, [])
    report = wg.is_weighted_gelfand(s3, K, wg.uniform_weight(s3))
    blob = report.to_json()
    assert blob["gelfand"] is False
    assert set(blob["witness"]) == {"basis_i", "basis_j", "element"}
    assert blob["unimodularity"] is True


def _d6_trivial():
    group = wg.dihedral_group(6)
    return group, wg.subgroup_closure(group, [])


def _d12_reflection():
    group = wg.dihedral_group(12)
    K = wg.subgroup_closure(group, [2])  # element 2 is the generating reflection
    assert K.order == 2
    return group, K


def _indicator_products(group, part, w, i, j):
    di = (part.coset_of == i).astype(complex)
    dj = (part.coset_of == j).astype(complex)
    return (
        weighted_convolve_oracle(di, dj, group, w),
        weighted_convolve_oracle(dj, di, group, w),
    )


@pytest.mark.parametrize("make_pair", [_d6_trivial, _d12_reflection], ids=["D6/1", "D12/s"])
def test_structure_constants_match_double_loop_oracle(make_pair):
    group, K = make_pair()
    part = wg.double_cosets(group, K)
    w = random_bi_invariant_weight(part, np.random.default_rng(4))
    sc = wg.hecke_structure_constants(group, K, w, partition=part)
    assert sc.p.dtype == np.int32
    d = part.num_cosets
    for i in range(d):
        for j in range(d):
            prod, _ = _indicator_products(group, part, w, i, j)
            assert np.allclose(sc.c[i, j][part.coset_of], prod, rtol=1e-12, atol=1e-12)


def _s4_transposition():
    group = wg.symmetric_group(4)
    return group, wg.subgroup_closure(group, [1])  # element 1 is (0 1)


@pytest.mark.parametrize("make_pair", [_d6_trivial, _s4_transposition], ids=["D6/1", "S4/s"])
def test_noncommutative_witness_is_genuine(make_pair):
    group, K = make_pair()
    part = wg.double_cosets(group, K)
    w = random_bi_invariant_weight(part, np.random.default_rng(5), unit_at_identity=True)
    report = wg.is_weighted_gelfand(group, K, w, partition=part)
    assert not report.is_weighted_gelfand
    i, j, x = report.witness
    ij, ji = _indicator_products(group, part, w, i, j)
    assert abs(ij[x] - ji[x]) > 1e-9


def test_gelfand_verdict_ignores_weight_and_tolerance(s3_pair):
    group, K, part = s3_pair
    rng = np.random.default_rng(6)
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        w = random_bi_invariant_weight(part, rng)
        w = wg.Weight(w.values * scale)
        for tol in (1e-300, 1e-9, 0.5):
            assert wg.is_weighted_gelfand(group, K, w, partition=part, tol=tol).is_weighted_gelfand


def _count_calls(monkeypatch, name):
    """Wrap `name` in every wgelfand module namespace that binds it."""
    calls = []
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "wgelfand" or not hasattr(module, name):
            continue
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_builds_structure_constants_once(tmp_path, monkeypatch, capsys):
    specs = {
        "group": {"kind": "cyclic", "n": 5},
        "subgroup": {"seeds": []},
        "weight": {"kind": "by_element", "values": [1, 2, 3, 3, 2]},
        "automorphism": {"kind": "inversion"},
    }
    argv = ["analyze"]
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        argv += [f"--{name}", str(path)]
    builds = _count_calls(monkeypatch, "hecke_structure_constants")
    convolutions = _count_calls(monkeypatch, "weighted_convolve")
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gelfand"]["rap"] is True
    assert report["spherical"]["count"] == 5
    assert len(builds) == 1
    assert convolutions == []
