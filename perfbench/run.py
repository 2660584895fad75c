"""wgelfand benchmark: closed-loop CLI passes over one seeded workload.

One client in one process: each in-process `wgelfand.cli.main([...])` call
starts when the previous one returns, and writes its report to a file that
the checker then reads. A pass is one run through the workload's fixed call
list; passes repeat until `--seconds` have been measured.

    python3 perfbench/run.py --workload perm-large --seed 1 --seconds 35 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See NOTES.md for the workloads.

The end-to-end times are scaled to a nominal host speed. Before every call of
an untraced run, `reference.py` times a fixed computation of about 0.1 s that
does not use the library. Each time is multiplied by REFERENCE_S over the
run's median of those. The host this runs on changes speed by up to 40% over
minutes, and the scaling takes much of that out. The unscaled times are
printed in the table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads: the workload is driven by one
# single-threaded process, and a second BLAS thread on these small matrices
# made passes slower on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checker import check  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

# a call past this is recorded as failed and the pass goes on
CALL_LIMIT_S = 30.0
# no call runs past this many seconds after the run began; calls not started
# by then are recorded as failed, so that a run exits within its 180 s limit
RUN_LIMIT_S = 150.0
# set-up runs once before the first pass and this many times after each
# untraced pass, so that its median covers the whole run
SETUP_PER_PASS = 2
# median time of `reference.py` on the host the bounds were set on (an
# Intel Xeon VM with 2 cores, Python 3.11, one BLAS thread)
REFERENCE_S = 0.1

# per-layer metrics beyond the <layer>.self_s/.calls/.errors module totals
SPAN_METRICS = (
    "groups.build_group_from_generators.self_s",
    "groups.group_from_table.self_s",
    "groups.double_cosets.self_s",
    "groups.check_automorphism.self_s",
    "weighted.weighted_convolve.calls",
    "weighted.weighted_convolve.self_s",
    "weighted.weight_checks.self_s",
    "hecke.hecke_structure_constants.calls",
    "hecke.hecke_structure_constants.self_s",
    "hecke.is_weighted_gelfand.calls",
    "hecke.is_weighted_gelfand.self_s",
    "hecke.check_rap_condition.self_s",
    "spherical.enumerate_spherical.self_s",
    "spherical.verify_functional_equation.calls",
    "spherical.verify_functional_equation.self_s",
    "fourier.build_fourier_table.self_s",
    "fourier.spherical_transform.calls",
    "fourier.is_multiplier.calls",
    "fourier.is_multiplier.self_s",
    "fourier.extract_symbol.self_s",
    "fourier.verify_commutation.self_s",
    "cli.run.self_s",
    "cli.main.self_s",
)


class Reference:
    """`reference.py` in a child process, started once for the run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        """Run the reference computation once; its seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class CallTimeout(BaseException):
    """Raised by SIGALRM in the running call; not an Exception, so library
    handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    # reference.py times, one taken before each call
    references: list[float] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds)


def call_once(cli, argv: list[str], limit: float) -> tuple[int | None, float, str]:
    """Run one CLI call under a time limit: (exit code or None, seconds, error)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        return cli.main(argv), time.perf_counter() - t0, ""
    except CallTimeout:
        return None, time.perf_counter() - t0, f"time limit {limit:.0f} s"
    except (Exception, SystemExit) as exc:
        return None, time.perf_counter() - t0, f"unexpected {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(cli, cases, spec_dir: Path, deadline: float, tracer: Tracer | None = None,
             reference: Reference | None = None) -> Pass:
    """One closed-loop pass over the call list; reports are checked after each call.

    With a reference, the host speed is sampled before each call.
    """
    result = Pass()
    output = spec_dir / "report.json"
    for case in cases:
        output.unlink(missing_ok=True)
        limit = min(CALL_LIMIT_S, deadline - time.monotonic())
        if limit <= 0:
            result.failures.append(f"{case.label}: not started before the run limit")
            continue
        if reference is not None:
            result.references.append(reference.seconds())
        if tracer is not None:
            tracer.call_id += 1
        code, seconds, error = call_once(cli, case.argv(spec_dir, output), limit)
        result.seconds.append(seconds)
        if error:
            result.failures.append(f"{case.label}: {error}")
            continue
        try:
            report = json.loads(output.read_text()) if output.exists() else None
        except json.JSONDecodeError as exc:
            result.failures.append(f"{case.label}: unreadable report: {exc}")
            continue
        problems = check(case.expect, code, report)
        if problems:
            result.failures.append(f"{case.label}: {'; '.join(problems)}")
    return result


def set_up(workload: str, seed: int, spec_dir: Path) -> float:
    """Import wgelfand and write the specs in a fresh process; its seconds.

    No `timeout`: with one, `subprocess.run` polls the child in steps of up
    to 50 ms, which would round every set-up time up to that step.
    """
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(spec_dir)],
        check=True,
    )
    return time.perf_counter() - t0


def layer_metrics(tracer: Tracer, spans: list[tuple[int, int]], calls_per_pass: int) -> dict[str, tuple[float, str]]:
    """Per-pass medians of the per-layer metrics over the traced passes."""
    per_pass = []
    for lo, hi in spans:
        totals = tracer.totals(lo, hi)
        row = {}
        for layer in LAYERS:
            mine = [v for name, v in totals.items() if name.startswith(layer + ".")]
            row[f"{layer}.self_s"] = sum(v[1] for v in mine)
            row[f"{layer}.calls"] = sum(v[0] for v in mine)
            row[f"{layer}.errors"] = sum(v[2] for v in mine)
        for metric in SPAN_METRICS:
            name, kind = metric.rsplit(".", 1)
            calls, self_s, _ = totals.get(name, (0, 0.0, 0))
            row[metric] = calls if kind == "calls" else self_s
        builds = row["hecke.hecke_structure_constants.calls"]
        row["hecke.builds_per_call"] = builds / calls_per_pass
        row["weighted.convolutions_per_build"] = row["weighted.weighted_convolve.calls"] / builds if builds else 0.0
        per_pass.append(row)
    out = {}
    for metric in per_pass[0]:
        unit = "s" if metric.endswith("_s") else "count" if metric.endswith((".calls", ".errors")) else "ratio"
        out[metric] = (statistics.median(row[metric] for row in per_pass), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wgelfand closed-loop CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "wgelfand" / "cli.py").is_file():
        print(f"error: no wgelfand sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reference = None
    try:
        spec_dir = run_dir / "specs"
        setup_times = [set_up(args.workload, args.seed, spec_dir)]
        sys.path.insert(0, str(SRC))
        from wgelfand import cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: wgelfand imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        cases = WORKLOADS[args.workload](args.seed)
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer = Tracer() if args.trace else None
        if tracer is None:
            reference = Reference()

        plain, traced, span_ranges = [], [], []
        t_end = time.monotonic() + args.seconds
        while time.monotonic() < t_end or not plain or (tracer is not None and not traced):
            if time.monotonic() >= deadline:
                break
            plain.append(run_pass(cli, cases, spec_dir, deadline, reference=reference))
            if len(plain) == 1:
                # later passes add allocator history, not program memory:
                # glibc's adaptive mmap threshold let the peak drift by up to 30%
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is None:
                for _ in range(SETUP_PER_PASS):
                    again = run_dir / "specs-again"
                    setup_times.append(set_up(args.workload, args.seed, again))
                    shutil.rmtree(again)
                continue
            if time.monotonic() >= deadline:
                continue
            lo = len(tracer)
            tracer.install()
            try:
                traced.append(run_pass(cli, cases, spec_dir, deadline, tracer))
            finally:
                tracer.uninstall()
            span_ranges.append((lo, len(tracer)))
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    attempted = len(passes) * len(cases)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)

    pass_s = statistics.median(p.total for p in plain)
    if tracer is None:
        reference_s = statistics.median(r for p in plain for r in p.references)
        # calls not started before the run limit end a pass, so p.seconds is
        # a prefix of the call list
        by_case: dict[int, list[float]] = {}
        for p in plain:
            for i, seconds in enumerate(p.seconds):
                by_case.setdefault(i, []).append(seconds)
        raw = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_s,
            "call_p50_s": statistics.median(s for p in plain for s in p.seconds),
            # the median time of the case that is slowest on median; a median
            # of per-pass maxima would follow whichever call hit a slow spell
            "slowest_call_s": max(statistics.median(v) for v in by_case.values()),
        }
        metrics = {name: (value * REFERENCE_S / reference_s, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        metrics["ok_frac"] = (1 - len(failures) / attempted, "ratio")
        shown = dict(metrics, failed_frac=(len(failures) / attempted, "ratio"), reference_s=(reference_s, "s"))
        shown.update({f"unscaled {name}": (value, "s") for name, value in raw.items()})
    else:
        metrics = layer_metrics(tracer, span_ranges, len(cases))
        metrics["trace.overhead_frac"] = (statistics.median(p.total for p in traced) / pass_s - 1, "ratio")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        shown = metrics
    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{len(cases)} calls each, {len(failures)} of {attempted} calls failed")
    for name, (value, unit) in shown.items():
        print(f"{name:<48}{value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
