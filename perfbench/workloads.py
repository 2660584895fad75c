"""Seeded workload specs for the wgelfand benchmark, with their expected outcomes.

Every spec is derived from the workload seed alone, so the same seed writes
byte-identical files. Expectations (exit code, verdict, double coset sizes,
multiplicities, closed-form spherical functions) come from the combinatorics
of each case and never from the library. Element indices are recomputed here
from the generator-closure order that `wgelfand.groups` documents: breadth
first from the identity, generator index as tiebreak, identity = 0.

Run as a script to do the benchmark's set-up step once: import `wgelfand`
from the checkout's `src/` and write one workload's specs into a directory.

    python3 perfbench/workloads.py --workload perm-large --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Case:
    """One CLI call: its spec files, argv shape and expected outcome.

    `specs` holds (flag, file name, spec) triples; a file name shared by
    several cases is written once. `expect` is the checker's input.
    """

    label: str
    command: str
    specs: tuple
    expect: dict

    def argv(self, spec_dir: Path, output: Path) -> list[str]:
        argv = [self.command]
        for flag, fname, _ in self.specs:
            argv += [f"--{flag}", str(spec_dir / fname)]
        return argv + ["--output", str(output)]


# ------------------------------------------------------------ group helpers


def closure_order(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Elements in the library's closure order; (a*b)[i] = a[b[i]]."""
    ident = tuple(range(len(generators[0])))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def rotation(n: int) -> tuple[int, ...]:
    return tuple((i + 1) % n for i in range(n))


def reflection(n: int) -> tuple[int, ...]:
    return tuple((n - i) % n for i in range(n))


def dihedral_key(perm: tuple[int, ...]) -> int:
    """Double coset of r^a or r^a s over K = <s> in D_n: min(a, n - a).

    Both r^a (i -> i + a) and r^a s (i -> a - i) send 0 to a.
    """
    n = len(perm)
    return min(perm[0], n - perm[0])


def dihedral_table(n: int) -> list[list[int]]:
    """Multiplication table of D_n with r^a s^f at index a + n*f."""
    table = []
    for x in range(2 * n):
        a, f = x % n, x // n
        row = []
        for y in range(2 * n):
            b, g = y % n, y // n
            row.append((a + (b if f == 0 else -b)) % n + n * ((f + g) % 2))
        table.append(row)
    return table


def set_stabilizer_sizes(n: int, k: int) -> list[int]:
    """Double coset sizes of S_n over S_k x S_{n-k}: one per overlap j."""
    order_k = factorial(k) * factorial(n - k)
    return [order_k * comb(k, j) * comb(n - k, k - j) for j in range(k + 1)]


def johnson_multiplicities(n: int, k: int) -> list[int]:
    """Irreducible dimensions in the permutation module on k-sets (k <= n/2)."""
    return [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(k + 1)]


# ------------------------------------------------------------ spec helpers


def _value(rng: random.Random, lo: float = 0.5, hi: float = 2.0) -> float:
    return round(rng.uniform(lo, hi), 6)


def _complex_list(rng: random.Random, d: int) -> list[list[float]]:
    return [[_value(rng, -1.0, 1.0), _value(rng, -1.0, 1.0)] for _ in range(d)]


def coset_weight(rng: random.Random, d: int) -> list[float]:
    """Positive value per double coset id, 1 on the identity coset (id 0)."""
    return [1.0] + [_value(rng) for _ in range(d - 1)]


def weight_spec(values: list[float]) -> dict:
    return {"kind": "by_double_coset", "values": {str(i): v for i, v in enumerate(values)}}


def _expect(order, sub_order, sizes, gelfand, exit_code=None, **extra) -> dict:
    out = {
        "exit": (0 if gelfand else 2) if exit_code is None else exit_code,
        "order": order,
        "subgroup_order": sub_order,
        "coset_sizes": sorted(sizes),
        "gelfand": gelfand,
        "rap": None,
        "weights": None,
        "multiplicities": None,
        "spherical": None,
        "multipliers": [],
    }
    out.update(extra)
    return out


# ------------------------------------------------------------ workloads

S6_GENERATORS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]

# subgroup generators of S6, as permutations, for the perm-large cases
S5_SEEDS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 0, 5)]
S4xS2_SEEDS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]
S3xS3_SEEDS = [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]
STAB45_SEEDS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5)]


def perm_large(seed: int) -> list[Case]:
    """Four analyze calls on S6 (|G| = 720): large |G|, small d."""
    rng = random.Random(f"perm-large/{seed}")
    elements = closure_order(S6_GENERATORS)
    index = {p: i for i, p in enumerate(elements)}
    group = ("group", "s6.group.json", {"kind": "generators", "generators": [list(g) for g in S6_GENERATORS]})

    def subgroup(name, seeds):
        return ("subgroup", f"{name}.subgroup.json", {"seeds": [index[p] for p in seeds]})

    cases = []
    for name, seeds, k, auto in (
        ("s6-s5", S5_SEEDS, 1, None),
        ("s6-s4xs2", S4xS2_SEEDS, 2, "identity"),
        ("s6-s3xs3", S3xS3_SEEDS, 3, None),
    ):
        sizes = set_stabilizer_sizes(6, k)
        w = coset_weight(rng, len(sizes))
        specs = [group, subgroup(name, seeds), ("weight", f"{name}.weight.json", weight_spec(w))]
        if auto:
            specs.append(("automorphism", f"{name}.automorphism.json", {"kind": auto}))
        cases.append(Case(
            label=name,
            command="analyze",
            specs=tuple(specs),
            expect=_expect(
                720, factorial(k) * factorial(6 - k), sizes, True, rap=True if auto else None, weights=w,
                multiplicities=sorted(johnson_multiplicities(6, k)),
            ),
        ))
    # pointwise stabiliser of 4 and 5 (S4): K-orbits on ordered pairs of points
    stab_sizes = [24 * m for m in (1, 1, 4, 4, 4, 4, 12)]
    cases.append(Case(
        label="s6-stab45",
        command="analyze",
        specs=(group, subgroup("s6-stab45", STAB45_SEEDS), ("weight", "uniform.weight.json", {"kind": "uniform"})),
        expect=_expect(720, 24, stab_sizes, False),
    ))
    return cases


def cosets_many(seed: int) -> list[Case]:
    """Three analyze calls with many double cosets and small |G|."""
    rng = random.Random(f"cosets-many/{seed}")
    cases = []

    # C128 over the trivial subgroup; element k is the k-th power of the cycle
    n = 128
    half = [_value(rng) for _ in range(n // 2)]
    w = [1.0] + [half[min(k, n - k) - 1] for k in range(1, n)]
    cases.append(Case(
        label="c128",
        command="analyze",
        specs=(
            ("group", "c128.group.json", {"kind": "generators", "generators": [list(rotation(n))]}),
            ("subgroup", "trivial.subgroup.json", {"seeds": []}),
            ("weight", "c128.weight.json", weight_spec(w)),
            ("automorphism", "inversion.automorphism.json", {"kind": "inversion"}),
        ),
        expect=_expect(n, 1, [1] * n, True, rap=True, weights=w, multiplicities=[1] * n,
                       spherical={"kind": "cyclic", "n": n}),
    ))

    # D100 over <reflection>: coset ids follow the closure order of the keys
    n = 100
    gens = [rotation(n), reflection(n)]
    elements = closure_order(gens)
    keys = []
    for p in elements:
        if dihedral_key(p) not in keys:
            keys.append(dihedral_key(p))
    d = len(keys)
    w = coset_weight(rng, d)
    sizes = [2 if key in (0, n // 2) else 4 for key in keys]
    cases.append(Case(
        label="d100-refl",
        command="analyze",
        specs=(
            ("group", "d100.group.json", {"kind": "generators", "generators": [list(g) for g in gens]}),
            ("subgroup", "d100-refl.subgroup.json", {"seeds": [elements.index(reflection(n))]}),
            ("weight", "d100-refl.weight.json", weight_spec(w)),
        ),
        expect=_expect(2 * n, 2, sizes, True, weights=w, multiplicities=sorted([1, 1] + [2] * (n // 2 - 1)),
                       spherical={"kind": "dihedral", "n": n, "keys": keys}),
    ))

    # D60 over the trivial subgroup: noncommutative, verdict only
    n = 60
    cases.append(Case(
        label="d60-trivial",
        command="analyze",
        specs=(
            ("group", "d60.group.json", {"kind": "generators", "generators": [list(rotation(n)), list(reflection(n))]}),
            ("subgroup", "trivial.subgroup.json", {"seeds": []}),
            ("weight", "uniform.weight.json", {"kind": "uniform"}),
        ),
        expect=_expect(2 * n, 1, [1] * (2 * n), False),
    ))
    return cases


def multiplier_sweep(seed: int, n: int = 60, weights: int = 4, kernels: int = 3) -> list[Case]:
    """multiplier-check calls on D_n over <reflection>, given as a table.

    Element r^a s^f is index a + n*f, so double coset ids equal their keys.
    Every second call adds a random matrix that is not a multiplier; one
    extra call has a weight that is not bi-invariant and must exit 1.
    """
    rng = random.Random(f"multiplier-sweep/{seed}")
    d = n // 2 + 1
    keys = list(range(d))
    sizes = [2 if key in (0, n // 2) else 4 for key in keys]
    group = ("group", f"d{n}.table.group.json", {"kind": "table", "table": dihedral_table(n)})
    subgroup = ("subgroup", f"d{n}-refl.subgroup.json", {"seeds": [n]})
    spherical = {"kind": "dihedral", "n": n, "keys": keys}
    mults = sorted([1, 1] + [2] * (n // 2 - 1))
    cases = []
    for c in range(weights):
        w = coset_weight(rng, d)
        specs = [group, subgroup, ("weight", f"w{c}.weight.json", weight_spec(w))]
        expected = []
        for m in range(kernels):
            h = _complex_list(rng, d)
            specs.append(("multiplier", f"w{c}-k{m}.multiplier.json", {"kind": "kernel", "coset_values": h}))
            expected.append({"kernel": h})
        if c % 2 == 1:
            rows = [_complex_list(rng, d) for _ in range(d)]
            specs.append(("multiplier", f"w{c}-matrix.multiplier.json", {"kind": "matrix", "rows": rows}))
            expected.append({"kernel": None})
        cases.append(Case(
            label=f"d{n}-w{c}",
            command="multiplier-check",
            specs=tuple(specs),
            expect=_expect(2 * n, 2, sizes, True, exit_code=2 if c % 2 == 1 else 0, weights=w,
                           multiplicities=mults, spherical=spherical, multipliers=expected),
        ))
    bad = [_value(rng) for _ in range(2 * n)]
    cases.append(Case(
        label=f"d{n}-not-bi-invariant",
        command="multiplier-check",
        specs=(group, subgroup, ("weight", "bad.weight.json", {"kind": "by_element", "values": bad}),
               ("multiplier", "bad-k.multiplier.json", {"kind": "kernel", "coset_values": _complex_list(rng, d)})),
        expect={"exit": 1},
    ))
    return cases


WORKLOADS = {
    "perm-large": perm_large,
    "cosets-many": cosets_many,
    "multiplier-sweep": multiplier_sweep,
}


def write_specs(cases: list[Case], spec_dir: Path) -> None:
    """Write every spec file once; the same cases always give the same bytes."""
    spec_dir.mkdir(parents=True, exist_ok=True)
    written = set()
    for case in cases:
        for _, fname, spec in case.specs:
            if fname in written:
                continue
            written.add(fname)
            (spec_dir / fname).write_text(json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import wgelfand.cli  # noqa: F401  -- the import is part of the timed set-up

    write_specs(WORKLOADS[args.workload](args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
