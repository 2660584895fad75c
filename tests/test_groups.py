import numpy as np
import pytest

import wgelfand as wg
from wgelfand.errors import (
    InputSpecError,
    NotAutomorphismError,
    NotInvolutiveError,
    SizeLimitError,
)

from conftest import check_subgroup_oracle, closure_oracle, subgroup_closure_oracle


def _cycle(n):
    return tuple((i + 1) % n for i in range(n))


CLOSURE_CASES = {
    "C1": [],
    "C2": [(1, 0)],
    "C128": [_cycle(128)],
    "D1": [(1, 0)],
    "D60": [_cycle(60), tuple((60 - i) % 60 for i in range(60))],
    **{f"S{n}": wg.symmetric_group_generators(n) for n in range(1, 7)},
    "C2^3": [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
    "repeated-and-identity": [(1, 2, 0), (0, 1, 2), (1, 2, 0), (1, 0, 2)],
}


@pytest.mark.parametrize("gens", CLOSURE_CASES.values(), ids=CLOSURE_CASES.keys())
def test_closure_matches_tuple_oracle(gens):
    g = wg.build_group_from_generators(gens)
    mul, inv = closure_oracle(gens)
    assert np.array_equal(g.mul, mul)
    assert np.array_equal(g.inv, inv)


def test_cyclic_closure_from_cycle():
    g = wg.build_group_from_generators([(1, 2, 3, 0)])
    assert g.order == 4
    assert g.is_abelian()
    wg.validate_group(g)


def test_s3_from_generators():
    g = wg.build_group_from_generators([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert not g.is_abelian()
    wg.validate_group(g)


def test_empty_generators_give_trivial_group():
    g = wg.build_group_from_generators([])
    assert g.order == 1
    assert g.identity == 0


def test_identity_is_index_zero(s3):
    assert s3.identity == 0
    n = s3.order
    assert np.array_equal(s3.mul[0], np.arange(n))


def test_element_cap():
    with pytest.raises(SizeLimitError):
        wg.build_group_from_generators(wg.symmetric_group_generators(5), element_cap=50)


def test_element_cap_boundary():
    gens = wg.symmetric_group_generators(4)
    assert wg.build_group_from_generators(gens, element_cap=24).order == 24
    with pytest.raises(SizeLimitError):
        wg.build_group_from_generators(gens, element_cap=23)


@pytest.mark.parametrize(
    "build, n",
    [(wg.cyclic_group, 10**12), (wg.dihedral_group, 10**12), (wg.symmetric_group, 10**12),
     (wg.symmetric_group, 8)],
    ids=["cyclic", "dihedral", "symmetric", "S8"],
)
def test_known_order_checked_before_closure(build, n):
    with pytest.raises(SizeLimitError):
        build(n)


def test_integral_floats_accepted():
    assert wg.build_group_from_generators([[1.0, 2.0, 0.0]]).order == 3
    assert wg.group_from_spec({"kind": "cyclic", "n": 4.0}).order == 4


def test_group_axioms_hold_on_builders():
    for g in [wg.cyclic_group(12), wg.dihedral_group(4), wg.symmetric_group(4)]:
        wg.validate_group(g)


def test_dihedral_order():
    assert wg.dihedral_group(4).order == 8


def test_group_from_table_roundtrip():
    c3 = wg.cyclic_group(3)
    rebuilt = wg.group_from_table(c3.mul.tolist())
    assert np.array_equal(rebuilt.mul, c3.mul)
    assert np.array_equal(rebuilt.inv, c3.inv)


def test_group_from_table_rejects_garbage():
    with pytest.raises(InputSpecError):
        wg.group_from_table([[0, 1], [0, 1]])


def test_subgroup_of_transposition(s3):
    K = wg.subgroup_closure(s3, [1])
    assert K.order == 2
    assert 0 in K


def test_subgroup_empty_seeds(s3):
    assert wg.subgroup_closure(s3, []).elements == (0,)


def test_subgroup_cyclic6_element2():
    c6 = wg.cyclic_group(6)
    K = wg.subgroup_closure(c6, [2])
    assert K.elements == (0, 2, 4)


def test_double_cosets_s3(s3_pair):
    group, K, part = s3_pair
    assert sorted(part.sizes()) == [2, 4]
    assert part.sizes()[part.identity_coset] == 2
    assert part.identity_coset == 0


def test_double_cosets_full_subgroup(s3):
    K = wg.subgroup_closure(s3, [1, 2])
    assert K.order == 6
    part = wg.double_cosets(s3, K)
    assert part.num_cosets == 1


def test_double_cosets_trivial_subgroup(s3):
    K = wg.subgroup_closure(s3, [])
    part = wg.double_cosets(s3, K)
    assert part.num_cosets == 6
    assert all(len(c) == 1 for c in part.cosets)


def test_double_coset_invariants(s4_pair):
    group, K, part = s4_pair
    sizes = part.sizes()
    assert sum(sizes) == group.order
    for size in sizes:
        assert (K.order ** 2) % size == 0
    # inverse map is an involution fixing the identity coset
    for i, j in enumerate(part.inverse_coset):
        assert part.inverse_coset[j] == i
    assert part.inverse_coset[part.identity_coset] == part.identity_coset
    # stability under the two-sided action
    for x in range(group.order):
        for k1 in K.elements:
            for k2 in K.elements:
                y = group.multiply(group.multiply(k1, x), k2)
                assert part.coset_of[y] == part.coset_of[x]


def test_double_cosets_idempotent(s3_pair):
    group, K, part = s3_pair
    again = wg.double_cosets(group, K)
    assert again.cosets == part.cosets
    assert np.array_equal(again.coset_of, part.coset_of)


def test_inversion_automorphism_on_abelian():
    c5 = wg.cyclic_group(5)
    theta = wg.inversion_automorphism(c5)
    assert theta.involutive


def test_inversion_rejected_on_nonabelian(s3):
    with pytest.raises(NotAutomorphismError) as exc:
        wg.check_automorphism(s3, s3.inv)
    x, y = exc.value.witness
    # witness pair genuinely violates the homomorphism property
    assert s3.inv[s3.multiply(x, y)] != s3.multiply(s3.inv[x], s3.inv[y])


def test_identity_automorphism(s3):
    theta = wg.check_automorphism(s3, np.arange(6), require_involutive=True)
    assert theta.involutive


def test_require_involutive():
    c5 = wg.cyclic_group(5)
    doubling = [(2 * x) % 5 for x in range(5)]
    theta = wg.check_automorphism(c5, doubling)
    assert not theta.involutive
    with pytest.raises(NotInvolutiveError):
        wg.check_automorphism(c5, doubling, require_involutive=True)


def test_theta_in_KxinvK_inversion_abelian():
    c6 = wg.cyclic_group(6)
    K = wg.subgroup_closure(c6, [])
    part = wg.double_cosets(c6, K)
    ok, witness = wg.theta_in_KxinvK(c6, part, wg.inversion_automorphism(c6))
    assert ok and witness is None


def test_theta_in_KxinvK_identity_on_s3(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6))
    ok, _ = wg.theta_in_KxinvK(group, part, theta)
    assert ok  # both double cosets are inverse-closed


def test_theta_in_KxinvK_identity_fails_on_cyclic5():
    c5 = wg.cyclic_group(5)
    K = wg.subgroup_closure(c5, [])
    part = wg.double_cosets(c5, K)
    theta = wg.check_automorphism(c5, np.arange(5))
    ok, witness = wg.theta_in_KxinvK(c5, part, theta)
    assert not ok
    assert witness == 1


def test_point_stabilizer_order(s4_pair):
    _, K, _ = s4_pair
    assert K.order == 6


@pytest.mark.parametrize("n", [3, 5], ids=["smaller", "larger"])
def test_point_stabilizer_rejects_other_generators(s4_pair, n):
    group, _, _ = s4_pair
    with pytest.raises(InputSpecError):
        wg.point_stabilizer(group, wg.symmetric_group_generators(n), 0)


@pytest.mark.parametrize(
    "group",
    [wg.symmetric_group(5), wg.dihedral_group(12)],
    ids=["S5", "D12"],
)
def test_subgroups_match_set_oracle(group):
    rng = np.random.default_rng(11)
    n = group.order
    for _ in range(40):
        seeds = rng.integers(0, n, size=rng.integers(0, 3)).tolist()
        K = wg.subgroup_closure(group, seeds)
        assert K.elements == subgroup_closure_oracle(group, seeds)
        assert wg.subgroup_from_spec(group, {"elements": list(K.elements)}) == K
        # a closed set with one member dropped, or a random subset, may fail
        for elements in (K.elements[:-1], sorted(set(rng.integers(0, n, size=4).tolist()))):
            elements = list(elements)
            expected = check_subgroup_oracle(group, elements)
            if expected is None:
                assert wg.subgroup_from_spec(group, {"elements": elements}).elements == tuple(elements)
            else:
                with pytest.raises(InputSpecError) as exc:
                    wg.subgroup_from_spec(group, {"elements": elements})
                assert str(exc.value) == expected


def test_group_from_spec_kinds():
    assert wg.group_from_spec({"kind": "cyclic", "n": 6}).order == 6
    assert wg.group_from_spec({"kind": "dihedral", "n": 4}).order == 8
    assert wg.group_from_spec({"kind": "symmetric", "n": 3}).order == 6
    assert wg.group_from_spec(
        {"kind": "generators", "generators": [[1, 0]]}
    ).order == 2
    table = wg.cyclic_group(2).mul.tolist()
    assert wg.group_from_spec({"kind": "table", "table": table}).order == 2
    with pytest.raises(InputSpecError):
        wg.group_from_spec({"kind": "nonsense"})


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "n": "abc"},
        {"kind": "cyclic", "n": 2.5},
        {"kind": "dihedral", "n": [3]},
        {"kind": "symmetric", "n": True},
        {"kind": "cyclic", "n": 1e300},
        {"kind": "table", "table": [[0, 1], [1]]},
        {"kind": "table", "table": [[0, 1], [1, 0.5]]},
        {"kind": "generators", "generators": "abc"},
        {"kind": "generators", "generators": [[1, 0], [0, 1, 2]]},
        {"kind": "generators", "generators": [[1.5, 0]]},
        {"kind": "generators", "generators": [[True, False]]},
        {"kind": "generators", "generators": [[1, 1, 0]]},
        {"kind": "generators", "generators": [[0, 1, 3]]},
    ],
)
def test_group_from_spec_rejects_malformed(spec):
    with pytest.raises(InputSpecError):
        wg.group_from_spec(spec)


@pytest.mark.parametrize(
    "spec",
    [{"seeds": ["a"]}, {"seeds": [1.5]}, {"seeds": [6]}, {"seeds": 1},
     {"elements": ["x"]}, {"elements": [0, 1.5]}, {"elements": [0, 6]}],
)
def test_subgroup_from_spec_rejects_malformed(s3, spec):
    with pytest.raises(InputSpecError):
        wg.subgroup_from_spec(s3, spec)


def test_subgroup_from_spec(s3):
    assert wg.subgroup_from_spec(s3, {"seeds": [1]}).order == 2
    K = wg.subgroup_from_spec(s3, {"elements": [0, 1]})
    assert K.elements == (0, 1)
    with pytest.raises(InputSpecError):
        wg.subgroup_from_spec(s3, {"elements": [0, 2]})  # not inverse-closed


def test_automorphism_from_spec():
    c5 = wg.cyclic_group(5)
    assert wg.automorphism_from_spec(c5, {"kind": "inversion"}).involutive
    assert wg.automorphism_from_spec(c5, {"kind": "identity"}).involutive
    theta = wg.automorphism_from_spec(c5, {"kind": "perm", "perm": [0, 4, 3, 2, 1]})
    assert theta.involutive
