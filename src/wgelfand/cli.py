"""Batch front end: read JSON specs, run the analysis pipeline, write reports.

Exit codes: 0 success, 1 input/usage error, 2 negative mathematical verdict
(still writes the report), 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import orjson

from . import __version__
from .errors import DegenerateSpectrumError, InputSpecError, WGelfandError
from .fourier import (
    extract_symbol,
    injectivity_check,
    is_multiplier,
    multiplier_from_spec,
    verify_commutation,
)
from .groups import automorphism_from_spec, double_cosets, group_from_spec, subgroup_from_spec
from .hecke import check_rap_condition, hecke_structure_constants
from .spherical import enumerate_spherical
from .tolerance import RTOL, within
from .weighted import theta_invariant, weight_from_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_DEGENERATE = 3


# json reads a document nested deeper than this (specs nest 4 deep), and
# words the error of one too deep for it, where orjson would accept it
MAX_DEPTH = 64
_DIGITS = bytes.maketrans(b"0123456789", b"0" * 10)
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")], _DEPTH_STEP[list(b"]}")] = 1, -1


def _orjson_reads_as_json(raw: bytes) -> bool:
    """Whether orjson, where it accepts `raw`, reads it as json does: no run
    of 19 digits (orjson reads integers beyond 64 bits as floats), and
    nested at most MAX_DEPTH deep by the running sum of the brackets. That
    sum is the depth when no string holds a bracket: with no backslash, and
    no quote left once the empty strings are dropped from the brackets and
    quotes."""
    structure = raw.translate(None, _NOT_STRUCTURE)
    if b"0" * 19 in raw.translate(_DIGITS) or b"\\" in structure:
        return False
    if b'"' in structure.replace(b'""', b""):
        return False
    if structure.count(b"[") + structure.count(b"{") <= MAX_DEPTH:
        return True
    steps = _DEPTH_STEP[np.frombuffer(structure, dtype=np.uint8)]
    return int(np.cumsum(steps).max(initial=0)) <= MAX_DEPTH


def _load_json(path: str) -> tuple[dict, str]:
    """(spec, sha256 of its bytes). orjson parses the spec where
    `_orjson_reads_as_json` holds. json decides every other document and
    every one orjson refuses (NaN and Infinity, UTF-16 or -32, a BOM, a lone
    surrogate), and words the errors, so specs and messages are json's."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputSpecError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    if _orjson_reads_as_json(raw):
        try:
            return orjson.loads(raw), digest
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(raw), digest
    except json.JSONDecodeError as exc:
        raise InputSpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # bytes that are not UTF-8, -16 or -32
        raise InputSpecError(f"{path}: {exc}") from exc
    except RecursionError:  # arrays or objects nested too deeply to parse
        raise InputSpecError(f"{path}: JSON nested too deeply") from None


def _pairs(z) -> np.ndarray:
    """Complex values as [re, im] pairs: a C-contiguous float64 array of
    shape z.shape + (2,), which orjson writes as nested lists."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(*z.shape, 2)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InputSpecError (exit 1, one line) instead of
    argparse's exit 2, which is the code for a negative verdict."""

    def error(self, message: str):
        raise InputSpecError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, on the first call."""
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
    partition = double_cosets(group, subgroup_from_spec(group, load("subgroup", args.subgroup)))
    wd = weight_from_spec(load("weight", args.weight), partition)
    theta = None
    if args.automorphism:
        theta = automorphism_from_spec(group, load("automorphism", args.automorphism))
    timings["setup"] = time.perf_counter() - t0

    unit_at_identity = bool(wd[partition.identity_coset] == 1.0)
    w_invariant = None if theta is None else theta_invariant(wd, partition, theta)
    report = {
        "tool": {"name": "wgelfand", "version": __version__},
        "command": args.command,
        "inputs": inputs,
        "tolerance": RTOL,
        "group": {
            "order": group.order,
            "subgroup_order": int(partition.sizes[partition.identity_coset]),
            "double_cosets": partition.num_cosets,
            "coset_sizes": partition.sizes.tolist(),
        },
        "weight": {
            # weight_from_spec raises BiInvarianceError unless w is
            # K-bi-invariant; w(x^-1) is the weight of the inverse coset
            "k_bi_invariant": True,
            "symmetric": bool(np.array_equal(wd[partition.inverse_coset], wd)),
            "unit_at_identity": unit_at_identity,
            "theta_invariant": w_invariant,
        },
    }

    t1 = time.perf_counter()
    sc = hecke_structure_constants(group, partition, wd)
    witness = sc.commutativity_witness
    report["gelfand"] = {
        "gelfand": witness is None,
        "witness": witness and dict(zip(("basis_i", "basis_j", "element"), witness)),
        "rap": None if theta is None else check_rap_condition(sc, partition, theta, w_invariant),
    }
    timings["gelfand"] = time.perf_counter() - t1

    exit_code = EXIT_OK if witness is None else EXIT_VERDICT

    if witness is not None:
        report["note"] = "not a weighted Gelfand pair; downstream stages skipped"
    elif not unit_at_identity:
        if args.command == "multiplier-check":
            raise InputSpecError("spherical analysis requires a weight with w(e) = 1")
        report["note"] = "weight has w(e) != 1; spherical stages skipped"
    else:
        t2 = time.perf_counter()
        sset = enumerate_spherical(sc)
        functions = zip(_pairs(sset.functions), _pairs(sset.characters))
        report["spherical"] = {
            "count": len(sset),
            "multiplicities": sset.multiplicities.tolist(),
            "functions": [{"coset_values": phi, "character": chi} for phi, chi in functions],
        }
        rank, cond = injectivity_check(sset)
        report["fourier"] = {"rank": rank, "condition": cond, "matrix": _pairs(sset.characters.T)}
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
                T, h = multiplier_from_spec(mspec, sc)
                # a kernel operator is L_h, a multiplier by Wendel's theorem
                ok, witness = (True, None) if h is not None else is_multiplier(T, sc)
                entry = {"path": mpath, "is_multiplier": ok}
                if ok:
                    sym = extract_symbol(T, sc, sset)
                    entry["symbol"] = _pairs(sym)
                    if h is not None:
                        kt = sset.characters @ h
                        entry["symbol_matches_kernel_transform"] = bool(
                            within(np.max(np.abs(sym - kt)), np.max(np.abs(kt)))
                        )
                    operators.append(T)
                else:
                    entry["witness"] = {"basis_i": witness[0], "basis_j": witness[1]}
                    exit_code = max(exit_code, EXIT_VERDICT)
                results.append(entry)
            commutation = [
                {"pair": [a, b], "residual": verify_commutation(operators[a], operators[b])}
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
        sph = report["spherical"]
        add(f"{'spherical functions':<24}{sph['count']}  multiplicities={sph['multiplicities']}")
        for idx, fn in enumerate(sph["functions"]):
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
    except WGelfandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateSpectrumError) else EXIT_INPUT

    if args.format == "json":
        options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
        data = orjson.dumps(report, option=options) + b"\n"
    else:
        data = _format_text(report).encode()
    if args.output:
        try:
            Path(args.output).write_bytes(data)
        except OSError as exc:
            print(f"error: {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
