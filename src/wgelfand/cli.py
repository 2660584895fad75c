"""Batch front end: read JSON specs, run the analysis pipeline, write reports.

Exit codes: 0 success, 1 input/usage error, 2 negative mathematical verdict
(still writes the report), 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import DegenerateSpectrumError, InputSpecError, WGelfandError
from .fourier import (
    build_fourier_table,
    extract_symbol,
    injectivity_check,
    is_multiplier,
    multiplier_from_spec,
    verify_commutation,
)
from .groups import automorphism_from_spec, double_cosets, group_from_spec, subgroup_from_spec
from .hecke import (
    check_rap_condition,
    hecke_structure_constants,
    is_weighted_gelfand,
)
from .spherical import complex_pairs, enumerate_spherical
from .tolerance import RTOL, within
from .weighted import weight_checks, weight_from_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_DEGENERATE = 3


def _load_json(path: str) -> tuple[dict, str]:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputSpecError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except json.JSONDecodeError as exc:
        raise InputSpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InputSpecError (exit 1, one line) instead of
    argparse's exit 2, which is the code for a negative verdict."""

    def error(self, message: str):
        raise InputSpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wgelfand",
        description="Weighted Gelfand pair analysis on finite groups",
    )
    parser.add_argument("--version", action="version", version=f"wgelfand {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_multiplier=False):
        p.add_argument("--group", required=True, help="group spec JSON file")
        p.add_argument("--subgroup", required=True, help="subgroup spec JSON file")
        p.add_argument("--weight", required=True, help="weight spec JSON file")
        p.add_argument("--automorphism", help="automorphism spec JSON file")
        if need_multiplier:
            p.add_argument(
                "--multiplier",
                action="append",
                required=True,
                help="multiplier spec JSON file (repeatable)",
            )
        p.add_argument("--output", help="report file (default: stdout)")
        p.add_argument("--format", choices=["json", "text"], default="json")

    add_common(sub.add_parser("analyze", help="full pipeline with report"))
    add_common(sub.add_parser("spherical", help="enumerate spherical functions"))
    add_common(sub.add_parser("fourier", help="transform table, rank and condition"))
    add_common(
        sub.add_parser("multiplier-check", help="multiplier verdicts and symbols"),
        need_multiplier=True,
    )
    return parser


def run(args) -> tuple[dict, int]:
    """Execute one command; returns (report, exit_code)."""
    t0 = time.perf_counter()
    timings = {}
    inputs = {}

    def load(name: str, path: str) -> dict:
        spec, digest = _load_json(path)
        inputs[name] = {"path": path, "sha256": digest}
        return spec

    group = group_from_spec(load("group", args.group))
    K = subgroup_from_spec(group, load("subgroup", args.subgroup))
    partition = double_cosets(group, K)
    w = weight_from_spec(load("weight", args.weight), group, partition)
    theta = None
    if args.automorphism:
        theta = automorphism_from_spec(group, load("automorphism", args.automorphism))
    timings["setup"] = time.perf_counter() - t0

    flags = weight_checks(w, group, partition, theta=theta)
    report = {
        "tool": {"name": "wgelfand", "version": __version__},
        "command": args.command,
        "inputs": inputs,
        "tolerance": RTOL,
        "group": {
            "order": group.order,
            "subgroup_order": K.order,
            "double_cosets": partition.num_cosets,
            "coset_sizes": list(partition.sizes()),
        },
        "weight": {
            "k_bi_invariant": flags.k_bi_invariant,
            "symmetric": flags.symmetric,
            "unit_at_identity": flags.unit_at_identity,
            "theta_invariant": flags.theta_invariant,
        },
    }

    t1 = time.perf_counter()
    sc = hecke_structure_constants(group, K, w, partition=partition)
    gelfand = is_weighted_gelfand(group, K, w, sc=sc)
    rap = None if theta is None else check_rap_condition(group, K, w, theta, sc=sc)
    report["gelfand"] = {**gelfand.to_json(), "rap": rap}
    timings["gelfand"] = time.perf_counter() - t1

    exit_code = EXIT_OK if gelfand.is_weighted_gelfand else EXIT_VERDICT

    if not gelfand.is_weighted_gelfand:
        report["note"] = "not a weighted Gelfand pair; downstream stages skipped"
    elif not flags.unit_at_identity:
        if args.command != "analyze":
            raise InputSpecError("spherical analysis requires a weight with w(e) = 1")
        report["note"] = "weight has w(e) != 1; spherical stages skipped"
    else:
        t2 = time.perf_counter()
        sset = enumerate_spherical(group, K, w, partition=partition, sc=sc)
        report["spherical"] = {"count": len(sset), "functions": sset.to_json()}
        table = build_fourier_table(sset)
        rank, cond = injectivity_check(table)
        report["fourier"] = {
            "rank": rank,
            "condition": cond,
            "matrix": complex_pairs(table.matrix),
        }
        timings["spherical_fourier"] = time.perf_counter() - t2

        if args.command == "multiplier-check":
            t3 = time.perf_counter()
            results = []
            operators = []
            for mpath in args.multiplier:
                mspec, digest = _load_json(mpath)
                inputs.setdefault("multipliers", []).append(
                    {"path": mpath, "sha256": digest}
                )
                T = multiplier_from_spec(mspec, sc)
                ok, witness = is_multiplier(T, sc)
                entry = {"path": mpath, "is_multiplier": ok}
                if ok:
                    sym = extract_symbol(T, table)
                    entry.update(sym.to_json())
                    if T.kernel is not None:
                        kt = table.transform_coords(T.kernel.coset_values)
                        entry["symbol_matches_kernel_transform"] = bool(
                            within(np.max(np.abs(sym.values - kt)), np.max(np.abs(kt)))
                        )
                    operators.append(T)
                else:
                    entry["witness"] = {"basis_i": witness[0], "basis_j": witness[1]}
                    exit_code = max(exit_code, EXIT_VERDICT)
                results.append(entry)
            commutation = [
                {"pair": [a, b], "residual": verify_commutation(operators[a], operators[b], sc)}
                for a, b in itertools.combinations(range(len(operators)), 2)
            ]
            report["multipliers"] = results
            if commutation:
                report["commutation"] = commutation
            timings["multiplier"] = time.perf_counter() - t3

    timings["total"] = time.perf_counter() - t0
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return report, exit_code


def _format_text(report: dict) -> str:
    lines = []
    add = lines.append
    add(f"wgelfand {report['tool']['version']}  command={report['command']}")
    g = report["group"]
    add(f"{'group order':<24}{g['order']}")
    add(f"{'subgroup order':<24}{g['subgroup_order']}")
    add(f"{'double cosets':<24}{g['double_cosets']}  sizes={g['coset_sizes']}")
    wf = report["weight"]
    add(
        f"{'weight flags':<24}bi-invariant={wf['k_bi_invariant']} "
        f"symmetric={wf['symmetric']} unit={wf['unit_at_identity']}"
    )
    gf = report["gelfand"]
    add(f"{'weighted Gelfand':<24}{gf['gelfand']}")
    if gf.get("witness"):
        add(f"{'witness':<24}{gf['witness']}")
    if gf.get("rap") is not None:
        add(f"{'sufficient condition':<24}{gf['rap']}")
    if "spherical" in report:
        add(f"{'spherical functions':<24}{report['spherical']['count']}")
        for idx, fn in enumerate(report["spherical"]["functions"]):
            vals = ", ".join(f"{re:+.6g}{im:+.6g}j" for re, im in fn["coset_values"])
            add(f"  phi[{idx}]                {vals}")
    if "fourier" in report:
        add(
            f"{'transform rank':<24}{report['fourier']['rank']}  "
            f"condition={report['fourier']['condition']:.6g}"
        )
    for entry in report.get("multipliers", []):
        add(f"{'multiplier':<24}{entry['path']}: {entry['is_multiplier']}")
        if "symbol" in entry:
            vals = ", ".join(f"{re:+.6g}{im:+.6g}j" for re, im in entry["symbol"])
            add(f"  symbol                {vals}")
    for pair in report.get("commutation", []):
        add(f"{'commutation':<24}pair {pair['pair']} residual={pair['residual']:.3g}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, exit_code = run(args)
    except InputSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except WGelfandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.format == "json":
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        text = _format_text(report)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
