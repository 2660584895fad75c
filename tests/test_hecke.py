import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

import wgelfand as wg
from wgelfand.cli import main
from wgelfand.errors import BiInvarianceError, InputSpecError, NotGelfandError, WGelfandError

import oracles
from conftest import (
    classical_convolve_oracle,
    commutativity_oracle,
    dense_c_oracle,
    dense_p_oracle,
    fuzz_group,
    fuzz_pairs,
    gelfand_instances,
    random_bi_invariant_weight,
    structure_tensor,
    weighted_convolve_oracle,
)


def test_structure_constants_full_subgroup():
    s3 = wg.symmetric_group(3)
    K = oracles.subgroup_closure(s3, [1, 2])
    part = wg.double_cosets(s3, K.generators)
    sc = wg.hecke_structure_constants(s3, part, np.ones(1))
    assert sc.dim == 1
    assert (sc.left([1.0]) @ [1.0])[0] == pytest.approx(6.0)

    # general weight: c = sum_y w(y) w(y^-1 x) / w(x) at any fixed x
    rng = np.random.default_rng(0)
    wv = np.full(6, rng.uniform(0.5, 2.0))  # bi-invariant for K = G means constant
    sc2 = wg.hecke_structure_constants(s3, part, wv[part.reps])
    x = 3
    expected = sum(
        wv[y] * wv[int(s3.product(int(s3.inv[y]), x))] / wv[x] for y in range(6)
    )
    assert (sc2.left([1.0]) @ [1.0])[0] == pytest.approx(expected)


def test_structure_constants_s3(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    # delta_1 * delta_1 = 4 delta_0 + 2 delta_1
    assert np.allclose(sc.left([0.0, 1.0]) @ [0.0, 1.0], [4.0, 2.0])
    # cross-check against the double-loop classical oracle
    d1 = (part.coset_of == 1).astype(complex)
    prod = classical_convolve_oracle(d1, d1, group)
    assert np.allclose(prod, 4.0 * (part.coset_of == 0) + 2.0 * (part.coset_of == 1))


def test_structure_constants_trivial_subgroup_group_algebra(s3):
    K = oracles.subgroup_closure(s3, [])
    sc = wg.hecke_structure_constants(s3, wg.double_cosets(s3, K.generators), np.ones(6))
    eye = np.eye(6)
    for i in range(6):
        for j in range(6):
            expected = np.zeros(6)
            expected[int(s3.product(i, j))] = 1.0
            assert np.allclose(sc.left(eye[i]) @ eye[j], expected)


def test_structure_constants_reject_non_invariant_weight(s3_pair):
    """A weight that is not bi-invariant stops at the spec, before any
    structure constants are built."""
    group, K, part = s3_pair
    with pytest.raises(BiInvarianceError) as exc:
        wg.weight_from_spec({"kind": "by_element", "values": list(range(1, 7))}, part)
    x, y = exc.value.witness
    assert part.coset_of[x] == part.coset_of[y]


@pytest.mark.parametrize("wd", [
    [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, 0.0], [1.0, -2.0], [1.0, np.inf], [np.nan, 1.0],
], ids=["short", "long", "2d", "zero", "negative", "inf", "nan"])
def test_structure_constants_reject_bad_coset_weights(s3_pair, wd):
    group, K, part = s3_pair
    with pytest.raises(InputSpecError):
        wg.hecke_structure_constants(group, part, np.array(wd))


def test_gelfand_s3_pair(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    assert sc.commutativity_witness is None


def test_not_gelfand_s3_trivial(s3):
    part = wg.double_cosets(s3, [])
    i, j, x = wg.hecke_structure_constants(s3, part, np.ones(part.num_cosets)).commutativity_witness
    # the witness pair genuinely fails to commute
    assert int(s3.product(i, j)) != int(s3.product(j, i))


def test_gelfand_abelian_any_subgroup():
    c6 = wg.cyclic_group(6)
    rng = np.random.default_rng(1)
    for seeds in ([], [2], [3], [1]):
        K = oracles.subgroup_closure(c6, seeds)
        part = wg.double_cosets(c6, K.generators)
        w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
        sc = wg.hecke_structure_constants(c6, part, w[part.reps])
        assert sc.commutativity_witness is None


def test_weighted_transfer_invariant(s3_pair):
    group, K, part = s3_pair
    c1 = dense_c_oracle(group, part, np.ones(group.order))
    rng = np.random.default_rng(2)
    for _ in range(10):
        wd = random_bi_invariant_weight(part, rng)[part.reps]
        sc = wg.hecke_structure_constants(group, part, wd)
        expected = c1 * wd[:, None, None] * wd[None, :, None] / wd[None, None, :]
        assert np.max(np.abs(structure_tensor(sc) - expected)) < 1e-9
        # commutativity verdict does not depend on the weight
        assert sc.commutativity_witness is None


def test_rap_condition_cyclic5():
    c5 = wg.cyclic_group(5)
    part = wg.double_cosets(c5, [])
    theta = wg.inversion_automorphism(c5)
    w = np.array([1.0, 2.0, 3.0, 3.0, 2.0])
    sc = wg.hecke_structure_constants(c5, part, w[part.reps])
    assert wg.theta_invariant(sc.wd, part, theta)
    assert wg.check_rap_condition(sc, part, theta, True)
    assert sc.commutativity_witness is None


def test_rap_condition_s3_identity_theta(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6))
    sc = wg.hecke_structure_constants(group, part, np.ones(2))
    # both double cosets are inverse-closed, so theta(x) = x lies in K x^-1 K
    assert wg.check_rap_condition(sc, part, theta, wg.theta_invariant(sc.wd, part, theta))


def test_rap_condition_inversion_on_cyclic6():
    c6 = wg.cyclic_group(6)
    part = wg.double_cosets(c6, [])
    sc = wg.hecke_structure_constants(c6, part, np.ones(6))
    assert wg.check_rap_condition(sc, part, wg.inversion_automorphism(c6), True)


def test_rap_condition_identity_fails_on_cyclic5():
    """With w∘theta = w granted, theta = id on C5 over 1 still fails: the
    coset {1} is not its inverse coset {4}."""
    c5 = wg.cyclic_group(5)
    part = wg.double_cosets(c5, [])
    theta = wg.check_automorphism(c5, np.arange(5))
    sc = wg.hecke_structure_constants(c5, part, np.ones(5))
    assert not wg.check_rap_condition(sc, part, theta, True)


def test_rap_condition_raises_when_it_holds_on_a_noncommutative_algebra():
    """A condition that holds (inversion on C6 over 1, w∘theta = w) given
    with the noncommutative structure constants of S3 over 1 contradicts
    the theorem: WGelfandError names the commutativity witness."""
    c6, s3 = wg.cyclic_group(6), wg.symmetric_group(3)
    part = wg.double_cosets(c6, [])
    noncommutative = wg.hecke_structure_constants(s3, wg.double_cosets(s3, []), np.ones(6))
    witness = noncommutative.commutativity_witness
    assert witness is not None
    with pytest.raises(WGelfandError, match=re.escape(f"witness {witness}")):
        wg.check_rap_condition(noncommutative, part, wg.inversion_automorphism(c6), True)


def test_rap_condition_fails_without_theta_invariance():
    c5 = wg.cyclic_group(5)
    part = wg.double_cosets(c5, [])
    theta = wg.inversion_automorphism(c5)
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])  # not symmetric
    sc = wg.hecke_structure_constants(c5, part, w[part.reps])
    assert not wg.theta_invariant(sc.wd, part, theta)
    assert not wg.check_rap_condition(sc, part, theta, False)


def test_rap_condition_requires_involutive(tmp_path, monkeypatch, capsys):
    """Doubling on C5 is an automorphism of order 4 (test_require_involutive):
    analyze refuses it where the automorphism is read, so the sufficient
    condition never sees it."""
    doubling = [(2 * x) % 5 for x in range(5)]
    specs = {
        "group": {"kind": "cyclic", "n": 5},
        "subgroup": {"seeds": []},
        "weight": {"kind": "uniform"},
        "automorphism": {"kind": "perm", "perm": doubling},
    }
    argv = ["analyze"]
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        argv += [f"--{name}", str(path)]
    rap_checks = _count_calls(monkeypatch, "check_rap_condition")
    assert main(argv) == 1
    assert "not involutive" in capsys.readouterr().err
    assert rap_checks == []


def test_report_serialization(tmp_path, capsys):
    """S3 over the trivial subgroup: the report's verdict is false and its
    witness names the structure constants' witness."""
    specs = {
        "group": {"kind": "symmetric", "n": 3},
        "subgroup": {"seeds": []},
        "weight": {"kind": "by_element", "values": [1] * 6},
    }
    argv = ["analyze"]
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        argv += [f"--{name}", str(path)]
    assert main(argv) == 2
    blob = json.loads(capsys.readouterr().out)["gelfand"]
    s3 = wg.symmetric_group(3)
    part = wg.double_cosets(s3, [])
    witness = wg.hecke_structure_constants(s3, part, np.ones(6)).commutativity_witness
    assert blob["gelfand"] is False
    assert blob["witness"] == dict(zip(("basis_i", "basis_j", "element"), witness))


def _d6_trivial():
    group = wg.dihedral_group(6)
    return group, oracles.subgroup_closure(group, [])


def _d12_reflection():
    group = wg.dihedral_group(12)
    K = oracles.subgroup_closure(group, [2])  # element 2 is the generating reflection
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
    part = wg.double_cosets(group, K.generators)
    w = random_bi_invariant_weight(part, np.random.default_rng(4))
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    assert sc.counts.dtype == np.int64
    d = part.num_cosets
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            prod, _ = _indicator_products(group, part, w, i, j)
            cij = sc.left(eye[i]) @ eye[j]
            assert np.allclose(cij[part.coset_of], prod, rtol=1e-12, atol=1e-12)


def _s4_transposition():
    group = wg.symmetric_group(4)
    return group, oracles.subgroup_closure(group, [1])  # element 1 is (0 1)


@pytest.mark.parametrize("make_pair", [_d6_trivial, _s4_transposition], ids=["D6/1", "S4/s"])
def test_noncommutative_witness_is_genuine(make_pair):
    group, K = make_pair()
    part = wg.double_cosets(group, K.generators)
    w = random_bi_invariant_weight(part, np.random.default_rng(5), unit_at_identity=True)
    i, j, x = wg.hecke_structure_constants(group, part, w[part.reps]).commutativity_witness
    ij, ji = _indicator_products(group, part, w, i, j)
    assert abs(ij[x] - ji[x]) > 1e-9


def test_gelfand_verdict_ignores_weight_and_tolerance(s3_pair):
    group, K, part = s3_pair
    rng = np.random.default_rng(6)
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        wd = random_bi_invariant_weight(part, rng)[part.reps] * scale
        sc = wg.hecke_structure_constants(group, part, wd)
        assert sc.commutativity_witness is None


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
    scans = _count_calls(monkeypatch, "bi_invariance_witness")
    theta_checks = _count_calls(monkeypatch, "theta_invariant")
    partitions = _count_calls(monkeypatch, "double_cosets")
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gelfand"]["rap"] is True
    assert report["spherical"]["count"] == 5
    assert len(builds) == 1
    assert convolutions == []
    assert len(scans) == 1  # weight_from_spec reads the by_element weight
    assert len(theta_checks) == 1  # shared by the report's flag and the sufficient condition
    assert len(partitions) == 1


@pytest.mark.parametrize("make_pair", [_d6_trivial, _s4_transposition], ids=["D6/1", "S4/s"])
def test_spherical_reads_the_verdict_of_its_structure_constants(make_pair):
    group, K = make_pair()
    part = wg.double_cosets(group, K.generators)
    w = random_bi_invariant_weight(part, np.random.default_rng(7), unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    witness = sc.commutativity_witness
    assert witness is not None
    with pytest.raises(NotGelfandError) as exc:
        wg.enumerate_spherical(sc)
    assert exc.value.witness == witness


def _s6_transposition():
    group = wg.symmetric_group(6)
    return group, oracles.subgroup_closure(group, [1])  # element 1 is (0 1)


def _s5_five_cycle():
    group = wg.symmetric_group(5)
    return group, oracles.subgroup_closure(group, [2])  # element 2 is the 5-cycle


def _dense_cases():
    cases = [pytest.param(group, K, part, w, id=name)
             for name, group, K, part, w in gelfand_instances()]
    for name, make_pair in (("D6/1", _d6_trivial), ("S4/s", _s4_transposition),
                            ("S6/s", _s6_transposition), ("S5/C5", _s5_five_cycle)):
        group, K = make_pair()
        part = wg.double_cosets(group, K.generators)
        w = random_bi_invariant_weight(part, np.random.default_rng(8))
        cases.append(pytest.param(group, K, part, w, id=name))
    return cases


@pytest.mark.parametrize("group, K, part, w", _dense_cases())
def test_sparse_intersection_numbers_match_dense_oracle(group, K, part, w):
    """The COO keys and counts, the verdict and the witness against the dense
    p. S6/(0 1) has d = 192 and is not Gelfand; on S5/C5 the first mismatch
    is a zero p[i,j,k] whose swap p[j,i,k] is not, so the witness comes from
    a swapped key."""
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    p = dense_p_oracle(group, part)
    assert np.array_equal(sc.keys, np.flatnonzero(p))
    assert np.array_equal(sc.counts, p.ravel()[sc.keys])
    assert sc.commutativity_witness == commutativity_oracle(p, part)
    if part.num_cosets <= 24:
        assert np.allclose(structure_tensor(sc), dense_c_oracle(group, part, w),
                           rtol=1e-12, atol=0)


def test_commutativity_witness_on_synthetic_sparse_p():
    """The sorted comparison against the dense comparison on random integer
    arrays p: with a random support, with a support closed under the swap
    but counts that differ, and with p equal to its swap."""
    c5 = wg.cyclic_group(5)
    part = wg.double_cosets(c5, [])
    rng = np.random.default_rng(14)
    for trial in range(60):
        p = rng.integers(1, 4, size=(5, 5, 5)) * (rng.random((5, 5, 5)) < 0.3)
        if trial % 3 == 1:
            p = np.where((p > 0) | (p.transpose(1, 0, 2) > 0), rng.integers(1, 3, size=p.shape), 0)
        elif trial % 3 == 2:
            p = p + p.transpose(1, 0, 2)
        keys = np.flatnonzero(p)
        sc = wg.StructureConstants(keys, p.ravel()[keys], np.ones(5), part.sizes, part.reps,
                                   part.inverse_coset, part.identity_coset)
        assert sc.commutativity_witness == commutativity_oracle(p, part)


@settings(max_examples=80, deadline=None)
@given(fuzz_pairs())
@example((*fuzz_group("S", 5, True), [1], 0))  # S5 as a table over a transposition
@example((*fuzz_group("D", 12, False), [], 1))  # D12 over 1, d = 24
def test_gelfand_verdict_theorems(pair):
    """Properties of the verdict read off the group table alone: it does not
    depend on a weight log-uniform over 1e+-12 with w(e) = 1; an abelian G
    always gives a Gelfand pair; a normal K gives one iff every commutator
    x y x^-1 y^-1 lies in K (the Hecke algebra is then that of G/K); and the
    witness is the least (i, j, k) with p[i,j,k] != p[j,i,k] in the dense p."""
    group, mul, seeds, seed = pair
    inv = np.argmax(mul == 0, axis=1)
    K = oracles.subgroup_closure(group, seeds)
    part = wg.double_cosets(group, K.generators)
    witness = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets)
                                           ).commutativity_witness
    assert witness == commutativity_oracle(dense_p_oracle(group, part), part)
    wd = 10.0 ** np.random.default_rng(seed).uniform(-12, 12, part.num_cosets)
    wd[part.identity_coset] = 1.0
    assert wg.hecke_structure_constants(group, part, wd).commutativity_witness == witness
    if np.array_equal(mul, mul.T):
        assert witness is None
    elements = list(K.elements)
    in_K = np.zeros(len(mul), dtype=bool)
    in_K[elements] = True
    if in_K[mul[mul[:, elements], inv[:, None]]].all():  # K is normal: g k g^-1 in K
        commutators = mul[mul, mul[inv[:, None], inv]]
        assert (witness is None) == bool(in_K[commutators].all())


@pytest.mark.parametrize("make_pair", [_d6_trivial, _s4_transposition, _d12_reflection],
                         ids=["D6/1", "S4/s", "D12/s"])
def test_commutativity_witness_makes_no_searchsorted_call(monkeypatch, make_pair):
    """The verdict sorts the swapped keys once and compares them with the
    keys; it looks nothing up (one np.searchsorted call before)."""
    group, K = make_pair()
    part = wg.double_cosets(group, K.generators)
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    expected = commutativity_oracle(dense_p_oracle(group, part), part)
    calls = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *a, **k: calls.append(1) or searchsorted(*a, **k))
    assert sc.commutativity_witness == expected
    assert calls == []


def test_structure_constants_and_spherical_stay_below_dense_size():
    """C128/1 builds its structure constants and spherical functions in less
    than the d^3 * 4 bytes of a dense int32 p."""
    group = wg.cyclic_group(128)
    K = oracles.subgroup_closure(group, [])
    part = wg.double_cosets(group, K.generators)
    w = random_bi_invariant_weight(part, np.random.default_rng(9), unit_at_identity=True)
    tracemalloc.start()
    try:
        sc = wg.hecke_structure_constants(group, part, w[part.reps])
        sset = wg.enumerate_spherical(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sset) == 128
    assert peak < 128 ** 3 * 4
