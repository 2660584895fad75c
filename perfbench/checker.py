"""Check one CLI report against expectations computed without the library.

The closed forms are the orthogonality relations of a commutative Hecke
algebra (Bannai & Ito, Algebraic Combinatorics I, ch. II):

- chi_s(delta_e) = |K| and phi_s(e) = 1 for every spherical function;
- the multiplicities m_s = |G| / sum_i |chi_s(delta_i) / w_i|^2 / |D_i| are
  positive integers summing to |G:K|, and equal the known irreducible
  dimensions where the case lists them;
- with omega_s(i) = chi_s(delta_i) / (w_i |D_i|), the matrix
  sqrt(m_s |D_i| / |G|) omega_s(i) is unitary (first orthogonality relation);
- on C_n with trivial K, w * phi_j(x) = exp(2 pi i j x / n) (the DFT),
  omega_j(x) = exp(-2 pi i j x / n), and the transform matrix is
  F[x, s] = w(x) exp(-2 pi i j_s x / n);
- on D_n over <s>, w * phi_j(r^k) = omega_j(r^k) = cos(2 pi j k / n), and the
  symbol of the kernel multiplier h is sum_i |D_i| w_i h_i cos(2 pi j k_i / n).
"""

from __future__ import annotations

import numpy as np

TOL = 1e-6


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _close(a, b, scale=1.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= TOL * max(1.0, scale)))


def _match_columns(values: np.ndarray, candidates: np.ndarray) -> list[int] | None:
    """For each row of values, the index of the candidate row it equals."""
    found = []
    for v in values:
        gap = np.max(np.abs(candidates - v[None, :]), axis=1)
        j = int(np.argmin(gap))
        if gap[j] > TOL:
            return None
        found.append(j)
    return found if len(set(found)) == len(found) else None


def check(expect: dict, exit_code: int, report: dict | None) -> list[str]:
    """Every way the call's outcome departs from `expect`; empty when correct."""
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit']}")
    if expect["exit"] == 1:
        if report is not None:
            problems.append("a report was written for an input error")
        return problems
    if report is None:
        return problems + ["no report written"]

    grp = report["group"]
    d = len(expect["coset_sizes"])
    if (grp["order"], grp["subgroup_order"], grp["double_cosets"]) != (
        expect["order"], expect["subgroup_order"], d
    ):
        problems.append(f"group sizes {grp['order']}/{grp['subgroup_order']}/{grp['double_cosets']}")
        return problems
    if sorted(grp["coset_sizes"]) != expect["coset_sizes"]:
        problems.append("double coset sizes differ from the closed form")
    verdict = report["gelfand"]
    if verdict["gelfand"] is not expect["gelfand"]:
        problems.append(f"verdict {verdict['gelfand']}, expected {expect['gelfand']}")
        return problems
    if expect["rap"] is not None and verdict["rap"] is not expect["rap"]:
        problems.append(f"sufficient condition {verdict['rap']}, expected {expect['rap']}")
    if not expect["gelfand"]:
        if verdict["witness"] is None:
            problems.append("noncommutative verdict without a witness")
        if "spherical" in report:
            problems.append("spherical functions reported for a non-Gelfand pair")
        return problems

    sph = report.get("spherical")
    if sph is None or "fourier" not in report:
        return problems + ["spherical or Fourier section missing"]
    if not sph["count"] == len(sph["functions"]) == report["fourier"]["rank"] == d:
        problems.append(f"count {sph['count']} / rank {report['fourier']['rank']}, expected {d}")
        return problems
    phi = np.array([_complex(f["coset_values"]) for f in sph["functions"]])
    chi = np.array([_complex(f["character"]) for f in sph["functions"]])
    w = np.asarray(expect["weights"], dtype=float)
    sizes = np.asarray(grp["coset_sizes"], dtype=float)
    if not _close(phi[:, 0], 1.0):
        problems.append("phi(e) != 1")
    if not _close(chi[:, 0], expect["subgroup_order"], expect["subgroup_order"]):
        problems.append("chi(delta_e) != |K|")
    omega = chi / (w * sizes)[None, :]
    mult = expect["order"] / np.sum(np.abs(omega) ** 2 * sizes[None, :], axis=1)
    rounded = np.rint(mult)
    index = expect["order"] // expect["subgroup_order"]
    if not _close(mult, rounded, index) or rounded.min() < 1 or rounded.sum() != index:
        problems.append("multiplicities are not positive integers summing to |G:K|")
    elif expect["multiplicities"] is not None and sorted(rounded.astype(int).tolist()) != expect["multiplicities"]:
        problems.append("multiplicities differ from the irreducible dimensions")
    unitary = np.sqrt(rounded[:, None] * sizes[None, :] / expect["order"]) * omega
    if not _close(unitary @ unitary.conj().T, np.eye(d)):
        problems.append("characters fail the orthogonality relations")

    closed = expect["spherical"]
    labels = None
    if closed is not None:
        n = closed["n"]
        if closed["kind"] == "cyclic":
            candidates = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        else:
            keys = np.asarray(closed["keys"])
            candidates = np.cos(2 * np.pi * np.outer(np.arange(n // 2 + 1), keys) / n)
        labels = _match_columns(phi * w[None, :], candidates)
        if labels is None:
            problems.append(f"spherical functions differ from the {closed['kind']} closed form")
        elif not _close(omega, candidates[labels].conj() if closed["kind"] == "cyclic" else candidates[labels]):
            problems.append(f"characters differ from the {closed['kind']} closed form")
        if labels is not None and closed["kind"] == "cyclic":
            table = _complex(np.asarray(report["fourier"]["matrix"]).reshape(-1, 2)).reshape(d, d)
            want = w[:, None] * np.conj(candidates[:, labels])
            if not _close(table, want, float(np.max(w))):
                problems.append("Fourier table differs from the DFT")

    entries = report.get("multipliers", [])
    if len(entries) != len(expect["multipliers"]):
        return problems + [f"{len(entries)} multiplier verdicts, expected {len(expect['multipliers'])}"]
    kernels = 0
    for entry, want in zip(entries, expect["multipliers"]):
        if want["kernel"] is None:
            if entry["is_multiplier"] or entry.get("witness") is None:
                problems.append(f"{entry['path']}: accepted a matrix that is not a multiplier")
            continue
        kernels += 1
        if not entry["is_multiplier"] or not entry.get("symbol_matches_kernel_transform"):
            problems.append(f"{entry['path']}: kernel multiplier rejected or symbol mismatch")
            continue
        if labels is not None:
            h = _complex(want["kernel"])
            symbol = (candidates[labels] * (sizes * w * h)[None, :]).sum(axis=1)
            if not _close(_complex(entry["symbol"]), symbol, float(np.max(np.abs(symbol)))):
                problems.append(f"{entry['path']}: symbol differs from the closed form")
    pairs = report.get("commutation", [])
    if len(pairs) != kernels * (kernels - 1) // 2:
        problems.append(f"{len(pairs)} commutation pairs for {kernels} multipliers")
    elif any(p["residual"] > TOL * expect["order"] ** 2 for p in pairs):
        problems.append("multipliers do not commute")
    return problems
