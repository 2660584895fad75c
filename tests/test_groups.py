import dataclasses
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wgelfand as wg
from wgelfand import cli, groups
from wgelfand.errors import (
    InputSpecError,
    NotAutomorphismError,
    NotInvolutiveError,
    SizeLimitError,
)

import oracles
from conftest import (
    C300_ONE_WRONG,
    LOOP_5,
    automorphism_oracle,
    check_subgroup_oracle,
    closure_elements_oracle,
    closure_oracle,
    double_cosets_oracle,
    fuzz_group,
    fuzz_pairs,
    gelfand_instances,
    inverse_oracle,
    mul_oracle,
    subgroup_closure_oracle,
)


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
    assert np.array_equal(oracles.mul_table(g), mul)
    assert np.array_equal(g.inv, inv)


@st.composite
def generator_sets(draw):
    """Up to 4 permutations of 1-7 points: new ones, the identity, repeats
    and inverses of earlier ones."""
    degree, gens = draw(st.integers(1, 7)), []
    for kind in draw(st.lists(st.sampled_from(["new", "identity", "repeat", "inverse"]),
                              max_size=4)):
        if kind == "identity":
            gens.append(list(range(degree)))
        elif kind == "new" or not gens:
            gens.append(draw(st.permutations(range(degree))))
        else:
            g = draw(st.sampled_from(gens))
            gens.append(list(g) if kind == "repeat" else np.argsort(g).tolist())
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
@example([(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])  # S7
@example([(0, 1, 2), (0, 1, 2)])  # the identity twice
@example([(1, 2, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1)])  # an inverse pair and a repeat
def test_closure_matches_the_oracle_on_random_generator_sets(gens):
    """The uint8 perms in the oracle's breadth-first order, its inverses,
    and the generators as the sorted distinct indices of the given rows."""
    g = wg.build_group_from_generators(gens)
    elements = closure_elements_oracle(gens)
    assert g.perms.dtype == np.uint8 and np.array_equal(g.perms, elements)
    assert np.array_equal(g.inv, inverse_oracle(elements))
    index = {e: x for x, e in enumerate(elements)}
    assert g.generators.dtype == np.int64
    assert g.generators.tolist() == sorted({index[tuple(p)] for p in gens})


def test_closure_of_s6_calls_np_unique_at_most_once(monkeypatch):
    """Each breadth-first level is one dict pass over the candidates' keys,
    not an np.unique of their indices (two per level before)."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    perms, _ = groups._closure(wg.symmetric_group_generators(6))
    assert len(perms) == 720 and len(calls) <= 1


def _transpositions(pairs, degree):
    """One generator per pair: the transposition of its two points."""
    out = []
    for a, b in pairs:
        p = list(range(degree))
        p[a], p[b] = b, a
        out.append(tuple(p))
    return out


# beyond the closure cases: uint16 permutations (C300 and C2^2 of degree
# 300, whose keys are two bytes per base point), and groups with 8 and 9
# base points
PRODUCT_CASES = {
    **CLOSURE_CASES,
    "C300": [_cycle(300)],
    "C2^2-degree-300": _transpositions([(0, 1), (2, 299)], 300),
    "C2^8": _transpositions([(2 * i, 2 * i + 1) for i in range(8)], 16),
    "C2^9": _transpositions([(2 * i, 2 * i + 1) for i in range(9)], 18),
}


@pytest.mark.parametrize("gens", PRODUCT_CASES.values(), ids=PRODUCT_CASES.keys())
def test_group_layer_matches_table_oracle(gens):
    """product, inv, subgroups (from seeds and from elements), double cosets
    and the sparse p of a permutation group equal those read off the
    column-filled table, and those of the same group given by that table."""
    g = wg.build_group_from_generators(gens)
    mul = mul_oracle(gens)
    n = len(mul)
    x = np.arange(n)
    assert np.array_equal(g.product(x[:, None], x), mul)
    assert np.array_equal(g.product(x, x[::-1]), mul[x, x[::-1]])
    assert int(g.product(n - 1, n // 2)) == mul[n - 1, n // 2]
    inv = mul.argmin(axis=1)
    assert np.array_equal(g.inv, inv)
    assert 2 ** len(g.base) <= n
    assert sum(map(len, g._tree[1])) < n * g.perms.shape[1]
    table = wg.group_from_table(mul)
    rng = np.random.default_rng(n)
    for seeds in ([], [n - 1], rng.integers(0, n, size=2).tolist()):
        K = oracles.subgroup_closure(g, seeds)
        assert K.elements == oracles.subgroup_closure(table, seeds).elements
        assert K.elements == subgroup_closure_oracle(g, seeds)
        cosets, coset_of = double_cosets_oracle(mul, K)
        by_elements = wg.subgroup_from_spec(g, {"elements": list(K.elements)})
        for part in (wg.double_cosets(g, seeds), wg.double_cosets(g, by_elements),
                     wg.double_cosets(table, seeds)):
            assert cosets[part.identity_coset] == K.elements
            assert part.reps.tolist() == [c[0] for c in cosets]
            assert part.sizes.tolist() == [len(c) for c in cosets]
            assert np.array_equal(part.coset_of, coset_of)
            assert part.inverse_coset.tolist() == [int(coset_of[inv[c[0]]]) for c in cosets]
        part = wg.double_cosets(g, seeds)
        w = np.ones(part.num_cosets)
        sc = wg.hecke_structure_constants(g, part, w)
        ref = wg.hecke_structure_constants(table, wg.double_cosets(table, seeds), w)
        assert np.array_equal(sc.keys, ref.keys) and np.array_equal(sc.counts, ref.counts)


def test_base_grows_past_eight_points():
    """(C2)^8 and (C2)^9 on pairs of points need one base point per pair."""
    for k in (8, 9):
        g = wg.build_group_from_generators(PRODUCT_CASES[f"C2^{k}"])
        assert g.order == 2**k and len(g.base) == k


def test_base_tree_matches_the_sorted_construction(monkeypatch):
    """The tree numbers each split of the classes in key order without a
    sort: its base and steps, dtype included, equal those of `np.unique`
    on the keys, for S6, S7, S8 (past the element cap, raised here), D100,
    C10080 and a table group."""
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 40320)
    built = [wg.symmetric_group(6), wg.symmetric_group(7), wg.symmetric_group(8),
             wg.dihedral_group(100), wg.cyclic_group(10080)]
    table = wg.group_from_table(oracles.mul_table(wg.dihedral_group(12)).tolist())
    for g in built + [table]:
        base, steps = g._tree
        want_base, want_steps = oracles.base_tree(g)
        assert np.array_equal(base, want_base)
        assert len(steps) == len(want_steps)
        for step, want in zip(steps, want_steps):
            assert step.dtype == want.dtype and np.array_equal(step, want)


@pytest.mark.parametrize(
    "build",
    [lambda: wg.build_group_from_generators([(1, 2, 0), (1, 0, 2)]),
     lambda: wg.cyclic_group(12), lambda: wg.dihedral_group(5), lambda: wg.symmetric_group(4),
     lambda: wg.group_from_table(oracles.mul_table(wg.symmetric_group(3)).tolist())],
    ids=["generators", "cyclic", "dihedral", "symmetric", "table"],
)
def test_builders_make_read_only_arrays(build):
    """A built group can be shared between calls: its perms, inv and
    generators refuse writes, and so does its base."""
    g = build()
    for array in (g.perms, g.inv, g.generators, g.base):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_cyclic_closure_from_cycle():
    g = wg.build_group_from_generators([(1, 2, 3, 0)])
    assert g.order == 4
    assert oracles.is_abelian(g)
    wg.validate_group(oracles.mul_table(g))


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 300, 1000, 10080])
def test_cyclic_group_acts_on_its_prime_power_cycles(n):
    """C_n is one product of disjoint cycles of the prime-power lengths p^a
    exactly dividing n, on sum p^a points (one point for C1), and element x
    is the x-th power of the generator: x*y = x + y and x^-1 = -x mod n."""
    g = wg.cyclic_group(n)
    powers = [p**a for p, a in sympy.factorint(n).items()]
    assert g.perms.shape == (n, max(1, sum(powers)))
    x = np.arange(n)
    y = np.unique(np.r_[0, 1, n - 1, np.random.default_rng(n).integers(0, n, 20)])
    assert np.array_equal(g.product(x[:, None], y), (x[:, None] + y) % n)
    assert np.array_equal(g.inv, -x % n)


def test_cyclic_10080_builds_in_little_memory():
    """C10080 on 32 + 9 + 5 + 7 points: its 10080 rows of 53 bytes, not the
    10080 x 10080 permutations of one 10080-cycle (203 MB)."""
    tracemalloc.start()
    try:
        g = wg.cyclic_group(10080)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 10080
    assert peak < 16 * 2**20


def test_s3_from_generators():
    g = wg.build_group_from_generators([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert not oracles.is_abelian(g)
    wg.validate_group(oracles.mul_table(g))


def test_empty_generators_give_trivial_group():
    g = wg.build_group_from_generators([])
    assert g.order == 1
    assert g.identity == 0


def test_identity_is_index_zero(s3):
    assert s3.identity == 0
    n = s3.order
    assert np.array_equal(s3.product(0, np.arange(n)), np.arange(n))


def test_element_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 50)
    with pytest.raises(SizeLimitError):
        wg.build_group_from_generators(wg.symmetric_group_generators(5))


def test_element_cap_boundary(monkeypatch):
    gens = wg.symmetric_group_generators(4)
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 24)
    assert wg.build_group_from_generators(gens).order == 24
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 23)
    with pytest.raises(SizeLimitError):
        wg.build_group_from_generators(gens)


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
        identity, inv, _ = wg.validate_group(oracles.mul_table(g))
        assert identity == 0 and np.array_equal(inv, g.inv)


def test_dihedral_order():
    assert wg.dihedral_group(4).order == 8


def test_dihedral_order_is_2n_and_keeps_its_elements():
    """D_n has order 2n for n = 1..8. For n = 1 and n >= 3 the group is the
    closure of the n-cycle and the reflection i -> -i, in that element order,
    which the benchmark workloads compute their indices from."""
    for n in range(1, 9):
        g = wg.dihedral_group(n)
        assert g.order == 2 * n
        if n != 2:
            gens = [(1, 0)] if n == 1 else [_cycle(n), tuple((n - i) % n for i in range(n))]
            assert np.array_equal(oracles.mul_table(g), closure_oracle(gens)[0])


def test_dihedral_2_is_the_klein_four_group():
    """On 2 points the reflection is the identity, which would close to C2;
    D2 is the Klein four-group: abelian, every other element an involution."""
    g = wg.dihedral_group(2)
    x = np.arange(4)
    mul = g.product(x[:, None], x)
    assert g.order == 4 and np.array_equal(mul, mul.T)
    assert np.all(mul[x, x] == g.identity)
    wg.validate_group(oracles.mul_table(g))


def test_group_from_table_roundtrip():
    c3 = wg.cyclic_group(3)
    mul = oracles.mul_table(c3)
    rebuilt = wg.group_from_table(mul.tolist())
    x = np.arange(3)
    assert np.array_equal(rebuilt.product(x[:, None], x), mul)
    assert np.array_equal(rebuilt.inv, c3.inv)


def test_group_from_table_rejects_garbage():
    with pytest.raises(InputSpecError):
        wg.group_from_table([[0, 1], [0, 1]])


@pytest.mark.parametrize("table", [C300_ONE_WRONG, LOOP_5], ids=["c300-one-entry", "loop-5"])
def test_group_from_table_rejects_non_associative(table):
    with pytest.raises(InputSpecError, match="associativity"):
        wg.group_from_table(table)


def test_associativity_is_checked_at_every_order():
    """Each of mul[a][7] = a + 8 for a < 40 on C300 breaks the table, and
    each is found: the check is exhaustive, not sampled."""
    c300 = np.add.outer(np.arange(300), np.arange(300)) % 300
    for a in range(40):
        table = c300.copy()
        table[a, 7] = a + 8
        with pytest.raises(InputSpecError):
            wg.group_from_table(table.tolist())


def test_associativity_blocks_cover_every_row(monkeypatch):
    """With blocks of 7 rows, C300 is checked in 43 blocks: a wrong entry in
    the last row (299 * 7 = 7, where 6 belongs) is found there, and only
    there, as the one generator is z = 1 and row 299 is read only as x."""
    monkeypatch.setattr(wg.groups, "ASSOC_BLOCK", 7 * 300)
    c300 = np.add.outer(np.arange(300), np.arange(300)) % 300
    wg.group_from_table(c300.tolist())
    wg.group_from_table(oracles.mul_table(wg.symmetric_group(5)).tolist())
    c300[299, 7] = 7
    with pytest.raises(InputSpecError, match="associativity fails at z=1"):
        wg.group_from_table(c300.tolist())


def test_group_from_table_reports_the_first_element_without_inverse():
    table = [[0, 1, 2], [1, 2, 2], [2, 0, 0]]  # rows 1 and 2 hold 0 never and twice
    with pytest.raises(InputSpecError, match="element 1 has no two-sided inverse"):
        wg.group_from_table(table)


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    square = np.full((n, n), -1, dtype=np.int64)
    square[0], square[:, 0] = np.arange(n), np.arange(n)
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield square.copy()
            return
        r, c = cells[k]
        for v in set(range(n)) - set(square[r]) - set(square[:, c]):
            square[r, c] = v
            yield from fill(k + 1)
        square[r, c] = -1

    return list(fill(0))


def _relabel(table, sigma):
    """The table with element a renamed sigma[a]: T'[s a, s b] = s T[a, b]."""
    sigma = np.asarray(sigma)
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


# renamings of 5 elements that move the identity off index 0
RELABEL_5 = [np.roll(np.arange(5), k) for k in range(1, 5)] + [np.arange(5)[::-1]]


def test_light_test_reads_the_table_until_associativity_is_proven():
    """The 8 of the 56 reduced Latin squares of order 5 that have two-sided
    inverses, each renamed so that the identity is not index 0: the base
    images of the rows of a loop need not give its products, so the six C5
    tables pass and the two loops raise, as Light's test reads the table."""
    squares = _reduced_latin_squares(5)
    assert len(squares) == 56
    squares = [t for t in squares if np.all(t[t.argmin(axis=1), np.arange(5)] == 0)]
    assert len(squares) == 8
    groups_seen = 0
    for square in squares:
        is_group = np.array_equal(square[square], square[:, square])  # (a b) c, a (b c)
        groups_seen += is_group
        for sigma in RELABEL_5:
            table = _relabel(square, sigma)
            if is_group:
                g = wg.group_from_table(table)
                x = np.arange(5)
                assert g.identity == sigma[0] != 0
                assert np.array_equal(g.product(x[:, None], x), table)
            else:
                with pytest.raises(InputSpecError, match="associativity fails"):
                    wg.group_from_table(table)
    assert groups_seen == 6


def _groups_up_to_8():
    """Every group of order 1 to 8 up to isomorphism, from generators."""
    out = [wg.cyclic_group(n) for n in range(1, 9)]
    out += [wg.dihedral_group(n) for n in (2, 3, 4)]
    out.append(wg.build_group_from_generators(_transpositions([(0, 1), (2, 3), (4, 5)], 6)))
    out.append(wg.build_group_from_generators([_cycle(4) + (4, 5), (0, 1, 2, 3, 5, 4)]))
    # Q8 acting on itself by left multiplication: i and j
    out.append(wg.build_group_from_generators([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]))
    return out


def test_table_groups_renamed_off_index_0_multiply_as_their_tables():
    """Each group of order <= 8, given by its table with the identity moved
    off index 0, multiplies as the table says, with one base point."""
    for g in _groups_up_to_8():
        n = g.order
        mul, x = oracles.mul_table(g), np.arange(n)
        for sigma in (np.roll(x, 1), x[::-1]):
            table = _relabel(mul, sigma)
            rebuilt = wg.group_from_table(table)
            assert rebuilt.identity == sigma[0]
            assert np.array_equal(rebuilt.product(x[:, None], x), table)
            assert np.array_equal(table[x, rebuilt.inv], np.full(n, sigma[0]))


def test_a_table_is_kept_as_its_rows():
    """A table group keeps only its rows, y -> x*y, as uint8 permutations up
    to order 256 and uint16 above it, and point 0 alone is its base: there is
    no second representation and no |G|^2 int64 table."""
    assert [f.name for f in dataclasses.fields(wg.GroupTable)] == [
        "perms", "inv", "generators", "identity"]
    for g, dtype in ((wg.cyclic_group(256), np.uint8), (wg.dihedral_group(128), np.uint8),
                     (wg.symmetric_group(5), np.uint8), (wg.cyclic_group(257), np.uint16)):
        mul = oracles.mul_table(g)
        rebuilt = wg.group_from_table(mul.tolist())
        assert rebuilt.perms.dtype == dtype
        assert np.array_equal(rebuilt.perms, mul)
        assert rebuilt.base.tolist() == [0] and len(rebuilt._tree[1]) == 1


def _greedy_regrowing(group, inside):
    """The greedy generating set with the reached set regrown breadth first
    from every member after each new generator: the reference for the
    label fixpoint of `groups._greedy_generators`."""
    reached = np.zeros(group.order, dtype=bool)
    reached[group.identity] = True
    gens = []
    while (inside & ~reached).any():
        gens.append(int(np.argmax(inside & ~reached)))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            step = group.product(frontier[:, None], np.array(gens)).ravel()
            frontier = np.unique(step[~reached[step]])
            reached[frontier] = True
    return gens


def _s6_subgroups():
    """S5, S4 x S2, S3 x S3 and the pointwise stabiliser of 4 and 5 in S6,
    as the elements that keep those point sets."""
    s6 = wg.symmetric_group(6)
    p = s6.perms
    keeps = [np.all(p[:, 5:] == 5, axis=1), np.all(p[:, 4:] >= 4, axis=1),
             np.all(p[:, 3:] >= 3, axis=1), np.all(p[:, 4:] == [4, 5], axis=1)]
    return [(s6, np.flatnonzero(k)) for k in keeps]


def test_greedy_generators_match_the_regrowth_from_every_member():
    """On C10080 over itself and on the S6 subgroups above, all given by
    their elements, the generators are those of the regrowth from every
    member, and the double cosets those of the subgroup they generate with
    their inverses. C10080 is C32 x C9 x C5 x C7 on 53 points: one
    generator of order 10080."""
    c = wg.cyclic_group(10080)
    assert c.perms.shape == (10080, 32 + 9 + 5 + 7)
    for group, elements in [(c, np.arange(c.order))] + _s6_subgroups():
        inside = np.zeros(group.order, dtype=bool)
        inside[elements] = True
        by_elements = wg.subgroup_from_spec(group, {"elements": elements.tolist()})
        assert by_elements.tolist() == _greedy_regrowing(group, inside)
        by_seeds = oracles.subgroup_closure(group, by_elements)
        assert by_seeds.elements == tuple(elements.tolist())
        ours = wg.double_cosets(group, by_elements)
        ref = wg.double_cosets(group, by_seeds.generators)
        assert np.array_equal(ours.coset_of, ref.coset_of)
        assert np.array_equal(ours.reps, ref.reps)


def test_one_generator_closes_in_logarithmic_rounds(monkeypatch):
    """C10080 over itself, given by its elements: its one greedy generator
    1 joins every x to x - 1 and x + 1, a cycle of 10080 elements, and the
    labels settle in at most 2 log2 10080 = 26.6 rounds, where labels
    passed on without the pointer jumps would take 5040. The greedy makes
    one product call for its moves and the subgroup check one more. A
    subgroup given by seeds is its seeds, and subgroup_from_spec makes no
    product call."""
    c = wg.cyclic_group(10080)
    calls, rounds = [], []
    product, label_round = groups.GroupTable.product, groups._label_round
    monkeypatch.setattr(
        groups.GroupTable, "product", lambda self, x, y: calls.append(1) or product(self, x, y)
    )
    monkeypatch.setattr(groups, "_label_round", lambda *a: rounds.append(1) or label_round(*a))
    K = wg.subgroup_from_spec(c, {"elements": list(range(c.order))})
    assert K.tolist() == [1]
    assert len(calls) == 2
    assert len(rounds) <= 2 * np.log2(c.order)
    calls.clear()
    assert wg.subgroup_from_spec(c, {"seeds": [1]}).tolist() == [1]
    assert not calls
    assert wg.double_cosets(c, K).sizes.tolist() == [c.order]


@pytest.mark.parametrize("n", [1, 2, 12, 100, 128])
def test_one_generator_is_listed_as_its_powers(monkeypatch, n):
    """An n-cycle closes as its powers g^0, g^1, ...: the oracle's
    breadth-first order, the same dtype and generator index, and no
    `np.unique` call (one per breadth-first level before)."""
    gen = [list(range(1, n)) + [0]]
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    perms, gens = groups._closure(gen)
    assert calls == []
    monkeypatch.undo()
    assert perms.dtype == np.uint8 and gens.dtype == np.int64 and gens.tolist() == [min(n - 1, 1)]
    assert np.array_equal(perms, closure_elements_oracle(gen))
    mul, inv = closure_oracle(gen)
    g = wg.build_group_from_generators(gen)
    assert np.array_equal(oracles.mul_table(g), mul) and np.array_equal(g.inv, inv)


def test_cyclic_10080_lists_its_generator_powers():
    c = wg.cyclic_group(10080)
    assert np.array_equal(c.perms, closure_elements_oracle([c.perms[1]]))
    assert c.perms.dtype == np.uint8 and c.generators.tolist() == [1]


def test_one_generator_past_the_cap_raises():
    """Disjoint cycles of lengths 9, 11, 13 and 16: order 20592."""
    gen, start = [], 0
    for length in (9, 11, 13, 16):
        gen += [start + (i + 1) % length for i in range(length)]
        start += length
    with pytest.raises(wg.SizeLimitError, match="closure exceeds element cap"):
        wg.build_group_from_generators([gen])


@pytest.mark.parametrize(
    "build, sizes",
    [(wg.cyclic_group, (1, 2, 7, 12, 300)), (wg.dihedral_group, (1, 2, 3, 12, 60, 130)),
     (wg.symmetric_group, (1, 2, 3, 4, 5, 6))],
    ids=["cyclic", "dihedral", "symmetric"],
)
def test_builder_tables_pass_validation(build, sizes):
    for n in sizes:
        g = build(n)
        mul, x = oracles.mul_table(g), np.arange(g.order)
        rebuilt = wg.group_from_table(mul.tolist())
        assert np.array_equal(rebuilt.product(x[:, None], x), mul)
        assert np.array_equal(rebuilt.inv, g.inv)


def _identity_coset(group, generators):
    """The elements of the subgroup that `generators` span, read off as the
    double coset of the identity."""
    part = wg.double_cosets(group, generators)
    return tuple(np.flatnonzero(part.coset_of == part.identity_coset).tolist())


def test_subgroup_of_transposition(s3):
    K = _identity_coset(s3, [1])
    assert len(K) == 2
    assert 0 in K


def test_subgroup_empty_seeds(s3):
    assert _identity_coset(s3, []) == (0,)


def test_subgroup_cyclic6_element2():
    c6 = wg.cyclic_group(6)
    assert _identity_coset(c6, [2]) == (0, 2, 4)


@pytest.mark.parametrize("seeds, bad", [([-1], -1), ([7], 7), ([1, 9, -2], 9)])
def test_double_cosets_range_check_generators(s3, seeds, bad):
    """A generator index outside 0..5 on S3 is named, the first bad one in
    the given order: -1 no longer wraps round to element 5 (which gave the
    partition [3, 3]), and 7 no longer raises a bare IndexError."""
    with pytest.raises(InputSpecError) as exc:
        wg.double_cosets(s3, np.array(seeds, dtype=np.int64))
    assert str(exc.value) == f"seed index {bad} out of range for order 6"


@pytest.mark.parametrize("seeds", [[1.5], [True], ["1"]])
def test_double_cosets_read_generators_as_spec_integers(s3, seeds):
    """Generator indices are read as spec seeds are: a fraction, a boolean
    or a string no longer acts as element 1."""
    with pytest.raises(InputSpecError, match="seeds must be"):
        wg.double_cosets(s3, seeds)


def test_double_cosets_take_an_empty_list_or_an_int64_array(s3):
    assert wg.double_cosets(s3, []).sizes.tolist() == [1] * 6
    assert wg.double_cosets(s3, np.array([1], dtype=np.int64)).sizes.tolist() == [2, 4]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
def test_unsigned_seeds_and_automorphisms_are_exact_integers(s3, dtype):
    """Unsigned arrays, the dtypes `GroupTable.perms` is stored in, read as
    the integers they hold; a uint64 of 2**63 or more, which int64 would
    wrap negative, is refused."""
    assert wg.double_cosets(s3, np.array([1], dtype=dtype)).sizes.tolist() == [2, 4]
    theta = wg.check_automorphism(s3, np.arange(6, dtype=dtype))
    assert theta.dtype == np.int64 and np.array_equal(theta, np.arange(6))
    if dtype == np.uint64:
        with pytest.raises(InputSpecError, match="seeds must be"):
            wg.double_cosets(s3, np.array([2**63], dtype=dtype))


def test_double_cosets_s3(s3_pair):
    group, K, part = s3_pair
    assert sorted(part.sizes.tolist()) == [2, 4]
    assert part.sizes[part.identity_coset] == 2
    assert part.identity_coset == 0


def _c4_with_identity_2():
    """C4 as a table in which the rotation by a has index label[a], so the
    identity, and with the trivial K its double coset, is 2."""
    label = [2, 0, 3, 1]
    table = np.empty((4, 4), dtype=np.int64)
    for a, b in itertools.product(range(4), repeat=2):
        table[label[a], label[b]] = label[(a + b) % 4]
    return wg.group_from_table(table)


def test_partition_fields_match_oracle():
    """reps, sizes, inverse_coset and identity_coset against the orbit
    oracle, on the Gelfand instances and on C4 with identity 2."""
    cases = [(name, g, K) for name, g, K, _, _ in gelfand_instances()]
    c4 = _c4_with_identity_2()
    cases.append(("c4-identity-2", c4, oracles.subgroup_closure(c4, [])))
    for name, group, K in cases:
        part = wg.double_cosets(group, K.generators)
        cosets, coset_of = double_cosets_oracle(oracles.mul_table(group), K)
        assert np.array_equal(part.coset_of, coset_of), name
        assert part.reps.tolist() == [min(c) for c in cosets], name
        assert np.array_equal(part.sizes, np.bincount(part.coset_of)), name
        assert part.sizes.tolist() == [len(c) for c in cosets], name
        want = [int(coset_of[group.inv[c[0]]]) for c in cosets]
        assert part.inverse_coset.tolist() == want, name
        assert part.identity_coset == coset_of[group.identity], name
    # the last case is C4 with identity 2
    assert part.identity_coset == 2 and part.reps.tolist() == [0, 1, 2, 3]


def test_double_cosets_full_subgroup(s3):
    K = oracles.subgroup_closure(s3, [1, 2])
    assert K.order == 6
    part = wg.double_cosets(s3, K.generators)
    assert part.num_cosets == 1


def test_double_cosets_trivial_subgroup(s3):
    K = oracles.subgroup_closure(s3, [])
    part = wg.double_cosets(s3, K.generators)
    assert part.num_cosets == 6
    assert np.all(part.sizes == 1)


def test_double_coset_invariants(s4_pair):
    group, K, part = s4_pair
    sizes = part.sizes
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
                y = int(group.product(group.product(k1, x), k2))
                assert part.coset_of[y] == part.coset_of[x]


@pytest.mark.parametrize("given", ["seeds", "elements"])
@pytest.mark.parametrize("step", [1, 2])
def test_double_cosets_settle_in_logarithmic_rounds(monkeypatch, step, given):
    """C2000 over the subgroup generated by `step`, given by its seed (whose
    inverse joins it) or by its elements (whose greedy generator is `step`
    alone): each element's only neighbours are x - step and x + step, on a
    cycle of 2000 / step elements. Labels must flow both ways along it and
    the pointer jumps must double their reach, so the partition settles in
    at most 2 log2 n rounds; labels pulled one way only would take up to
    2000 / step - 1."""
    n = 2000
    g = wg.cyclic_group(n)
    gens = [step]
    if given == "elements":
        K = oracles.subgroup_closure(g, [step])
        gens = wg.subgroup_from_spec(g, {"elements": list(K.elements)})
        assert gens.tolist() == [step]
    rounds = []
    label_round = groups._label_round

    def counted(label, neighbours):
        rounds.append(1)
        return label_round(label, neighbours)

    monkeypatch.setattr(groups, "_label_round", counted)
    part = wg.double_cosets(g, gens)
    assert np.array_equal(part.reps, np.arange(step))
    assert np.array_equal(part.sizes, np.full(step, n // step))
    assert np.array_equal(part.coset_of, np.arange(n) % step)
    assert len(rounds) <= 2 * np.log2(n)


def test_double_cosets_idempotent(s3_pair):
    group, K, part = s3_pair
    again = wg.double_cosets(group, K.generators)
    assert np.array_equal(again.reps, part.reps)
    assert np.array_equal(again.coset_of, part.coset_of)


def test_inversion_automorphism_on_abelian():
    c5 = wg.cyclic_group(5)
    theta = wg.check_automorphism(c5, c5.inv)
    assert np.array_equal(theta, [0, 4, 3, 2, 1])


def test_inversion_rejected_on_nonabelian(s3):
    with pytest.raises(NotAutomorphismError) as exc:
        wg.check_automorphism(s3, s3.inv)
    x, y = exc.value.witness
    # witness pair genuinely violates the homomorphism property
    assert s3.inv[int(s3.product(x, y))] != int(s3.product(s3.inv[x], s3.inv[y]))


def test_identity_automorphism(s3):
    theta = wg.check_automorphism(s3, np.arange(6))
    assert np.array_equal(theta, np.arange(6))


def _verdict_matches_oracle(group, mul, perm):
    """check_automorphism on group agrees with the |G|^2 oracle on mul, and
    its witness (x, z) really fails: theta(x z) != theta(x) theta(z). An
    automorphism passes the homomorphism check, and then passes only if it
    is an involution; returns whether it passed the homomorphism check."""
    p = np.asarray(perm)
    if automorphism_oracle(mul, p) is None:
        if np.array_equal(p[p], np.arange(len(p))):
            assert np.array_equal(wg.check_automorphism(group, p), p)
        else:
            with pytest.raises(NotInvolutiveError):
                wg.check_automorphism(group, p)
        return True
    with pytest.raises(NotAutomorphismError) as exc:
        wg.check_automorphism(group, p)
    x, z = exc.value.witness
    assert p[mul[x, z]] != mul[p[x], p[z]]
    return False


def test_automorphism_verdicts_on_all_permutations_of_s3():
    """All 720 permutations of S3's elements, on S3 built from generators and
    given by its table: the 6 automorphisms (the inner ones) pass the
    homomorphism check. The 4 involutive ones (the identity and the
    conjugations by a transposition) are accepted; the 2 conjugations by a
    3-cycle raise NotInvolutiveError."""
    gens = wg.symmetric_group_generators(3)
    mul = mul_oracle(gens)
    groups = (wg.build_group_from_generators(gens), wg.group_from_table(mul))
    passed = [
        perm
        for perm in itertools.permutations(range(6))
        if all([_verdict_matches_oracle(g, mul, perm) for g in groups])
    ]
    assert len(passed) == 6
    involutive = [p for p in passed if all(p[p[x]] == x for x in range(6))]
    assert len(involutive) == 4


@pytest.mark.parametrize(
    "gens",
    [[_cycle(6), tuple((6 - i) % 6 for i in range(6))], wg.symmetric_group_generators(4)],
    ids=["D6", "S4"],
)
def test_automorphism_verdicts_on_random_permutations(gens):
    """Seeded random permutations, with and without e fixed, and the inner
    automorphisms x -> g x g^-1, which must pass."""
    mul = mul_oracle(gens)
    n = len(mul)
    inv = mul.argmin(axis=1)
    groups = (wg.build_group_from_generators(gens), wg.group_from_table(mul))
    rng = np.random.default_rng(n)
    perms = [rng.permutation(n) for _ in range(100)]
    perms += [np.concatenate([[0], 1 + rng.permutation(n - 1)]) for _ in range(100)]
    for perm in perms:
        for g in groups:
            _verdict_matches_oracle(g, mul, perm)
    for c in range(n):
        inner = mul[c][mul[:, inv[c]]]
        assert all(_verdict_matches_oracle(g, mul, inner) for g in groups)


def test_require_involutive():
    """Doubling on C5 is an automorphism of order 4, not an involution:
    check_automorphism and a perm spec reject it after the homomorphism
    check passes, so no sufficient condition can be built on it."""
    c5 = wg.cyclic_group(5)
    doubling = [(2 * x) % 5 for x in range(5)]
    with pytest.raises(NotInvolutiveError):
        wg.check_automorphism(c5, doubling)
    with pytest.raises(NotInvolutiveError):
        wg.automorphism_from_spec(c5, {"kind": "perm", "perm": doubling})


def test_theta_in_KxinvK_identity_on_s3(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6))
    sc = wg.hecke_structure_constants(group, part, np.array([1.0, 2.0]))
    # both double cosets are inverse-closed: theta(x) = x lies in K x^-1 K,
    # and the weight [1, 2] is symmetric, so w∘theta = w
    assert wg.check_rap_condition(sc, part, theta)


def test_point_stabilizer_order(s4_pair):
    _, K, _ = s4_pair
    assert K.order == 6


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
        K = oracles.subgroup_closure(group, seeds)
        assert K.elements == subgroup_closure_oracle(group, seeds)
        by_elements = wg.subgroup_from_spec(group, {"elements": list(K.elements)})
        assert _identity_coset(group, by_elements) == K.elements
        # a closed set with one member dropped, or a random subset, may fail
        for elements in (K.elements[:-1], sorted(set(rng.integers(0, n, size=4).tolist()))):
            elements = list(elements)
            expected = check_subgroup_oracle(group, elements)
            if expected is None:
                gens = wg.subgroup_from_spec(group, {"elements": elements})
                assert _identity_coset(group, gens) == tuple(elements)
            else:
                with pytest.raises(InputSpecError) as exc:
                    wg.subgroup_from_spec(group, {"elements": elements})
                assert str(exc.value) == expected


def _s3_with_identity_5():
    """S3 as the table of x -> 5 - x applied to its elements: the identity
    is 5 and the transposition (0 1) is 4, so with K = {4, 5} the identity's
    double coset is not the first one, and not the largest."""
    mul = oracles.mul_table(wg.symmetric_group(3))
    table = (5 - mul)[::-1, ::-1]
    return wg.group_from_table(table), table


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_pairs())
@example((*fuzz_group("S", 5, False), [1, 2], 1))  # S5 over itself
@example((*fuzz_group("D", 12, True), [], 0))  # D12 as a table over 1
@example((*_s3_with_identity_5(), [4], 1))
@example((*_s3_with_identity_5(), [4], 0))
def test_identity_coset_is_the_subgroup(tmp_path, pair):
    """K is read off its double cosets: the double coset of the identity is
    the subgroup that the seeds generate (the set oracle), whether K is
    given by the seeds or by its elements, and the `subgroup_order` that
    main reports, for either spec, is its size."""
    group, mul, seeds, seed = pair
    K = subgroup_closure_oracle(group, seeds)
    assert _identity_coset(group, seeds) == K
    assert _identity_coset(group, wg.subgroup_from_spec(group, {"elements": list(K)})) == K
    specs = {"group": {"kind": "table", "table": mul.tolist()},
             "subgroup": {"seeds": seeds} if seed % 2 else {"elements": list(K)},
             "weight": {"kind": "uniform"}}
    argv = ["analyze", "--output", str(tmp_path / "report.json")]
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_VERDICT)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["group"]["subgroup_order"] == len(K)


def test_subgroup_check_blocks_keep_the_row_major_witness(monkeypatch):
    """With blocks of 3 rows, the elements of S5 that fix 4, less or plus
    one element, are checked block by block: the first failing pair is the
    oracle's, found in whichever block holds it."""
    monkeypatch.setattr(wg.groups, "ASSOC_BLOCK", 3 * 24)
    group = wg.symmetric_group(5)
    K = [int(x) for x in np.flatnonzero(group.perms[:, 4] == 4)]
    assert _identity_coset(group, wg.subgroup_from_spec(group, {"elements": K})) == tuple(K)
    outside = int(np.flatnonzero(group.perms[:, 4] != 4)[0])
    for elements in (K[:-1], K[:5], sorted(K + [outside])):
        expected = check_subgroup_oracle(group, elements)
        assert expected is not None
        with pytest.raises(InputSpecError) as exc:
            wg.subgroup_from_spec(group, {"elements": elements})
        assert str(exc.value) == expected


def test_subgroup_check_memory_stays_bounded():
    """A7 given by its 2520 elements in S7: closure is checked on its greedy
    generators, not on the 6.35M products of all pairs at once (once
    164 MiB)."""
    group = wg.symmetric_group(7)
    perms = group.perms.astype(np.int64)
    inversions = sum(
        perms[:, a] > perms[:, b] for a in range(7) for b in range(a + 1, 7)
    )
    elements = np.flatnonzero(inversions % 2 == 0).tolist()
    assert len(elements) == 2520
    tracemalloc.start()
    try:
        K = wg.subgroup_from_spec(group, {"elements": elements})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    part = wg.double_cosets(group, K)
    assert part.sizes[part.identity_coset] == 2520
    assert peak < 48 * 2**20


def test_whole_groups_given_by_elements_partition_as_from_seeds():
    """C10080 and S7, each over itself given by its elements, keep the
    greedy generators of their check and give the double cosets of the
    subgroup their seeds generate. Checking closure on the generators, and
    not on every pair, keeps both well under a second (once over 3 s)."""
    cases = [(wg.cyclic_group(10080), [1], (1,)), (wg.symmetric_group(7), [1, 2], (1, 2))]
    elapsed = 0.0
    for group, seeds, gens in cases:
        start = time.perf_counter()
        K = wg.subgroup_from_spec(group, {"elements": list(range(group.order))})
        part = wg.double_cosets(group, K)
        elapsed += time.perf_counter() - start
        assert K.tolist() == list(gens)
        ref = wg.double_cosets(group, seeds)
        assert np.array_equal(part.coset_of, ref.coset_of)
        assert part.num_cosets == 1
    assert elapsed < 1.5


def test_group_from_spec_kinds():
    assert wg.group_from_spec({"kind": "cyclic", "n": 6}).order == 6
    assert wg.group_from_spec({"kind": "dihedral", "n": 4}).order == 8
    assert wg.group_from_spec({"kind": "symmetric", "n": 3}).order == 6
    assert wg.group_from_spec(
        {"kind": "generators", "generators": [[1, 0]]}
    ).order == 2
    table = oracles.mul_table(wg.cyclic_group(2)).tolist()
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
     {"elements": ["x"]}, {"elements": [0, 1.5]}, {"elements": [0, 6]},
     {"seeds": [0, True]}, {"elements": [0, True]}],
)
def test_subgroup_from_spec_rejects_malformed(s3, spec):
    """Malformed specs fail in subgroup_from_spec; a seed out of range
    fails in double_cosets, its one consumer."""
    with pytest.raises(InputSpecError):
        wg.double_cosets(s3, wg.subgroup_from_spec(s3, spec))


def test_subgroup_from_spec(s3):
    K = wg.subgroup_from_spec(s3, {"seeds": [1]})
    assert K.dtype == np.int64 and K.tolist() == [1]
    assert len(_identity_coset(s3, K)) == 2
    K = wg.subgroup_from_spec(s3, {"elements": [0, 1]})
    assert _identity_coset(s3, K) == (0, 1)
    with pytest.raises(InputSpecError):
        wg.subgroup_from_spec(s3, {"elements": [0, 2]})  # not inverse-closed


def test_automorphism_from_spec():
    c5 = wg.cyclic_group(5)
    inversion = wg.automorphism_from_spec(c5, {"kind": "inversion"})
    assert np.array_equal(inversion, [0, 4, 3, 2, 1])
    identity = wg.automorphism_from_spec(c5, {"kind": "identity"})
    assert np.array_equal(identity, np.arange(5))
    theta = wg.automorphism_from_spec(c5, {"kind": "perm", "perm": [0, 4, 3, 2, 1]})
    assert np.array_equal(theta, inversion)
