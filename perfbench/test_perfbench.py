"""Self-tests of the benchmark: checker, generator, reference, time limit and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time

import pytest

import run
from checker import check
from spans import Tracer
from workloads import SRC, WORKLOADS, multiplier_sweep, write_specs

sys.path.insert(0, str(SRC))
from wgelfand import cli  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _report(case, tmp_path):
    write_specs([case], tmp_path)
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = cli.main(case.argv(tmp_path, out))
    return code, json.loads(out.read_text()) if out.exists() else None


def test_checker_accepts_correct_and_rejects_tampered_reports(tmp_path):
    cases = multiplier_sweep(seed=3, n=8, weights=2, kernels=2)
    for case in cases:
        code, report = _report(case, tmp_path)
        assert check(case.expect, code, report) == [], case.label

    code, report = _report(cases[1], tmp_path)
    flipped = copy.deepcopy(report)
    flipped["gelfand"]["gelfand"] = False
    assert check(cases[1].expect, code, flipped)

    perturbed = copy.deepcopy(report)
    perturbed["spherical"]["functions"][1]["character"][2][0] += 1e-3
    assert check(cases[1].expect, code, perturbed)

    symbol = copy.deepcopy(report)
    symbol["multipliers"][0]["symbol"][0][1] += 1e-3
    assert check(cases[1].expect, code, symbol)

    assert check(cases[1].expect, 0, report)
    assert check(cases[-1].expect, 1, report)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_writes_identical_specs_for_a_seed(workload, tmp_path):
    def files(seed, name):
        write_specs(WORKLOADS[workload](seed), tmp_path / name)
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    first = files(11, "a")
    assert first == files(11, "b")
    assert first != files(12, "c")


def test_reference_process_times_each_request_and_ends_with_its_input():
    reference = run.Reference()
    try:
        times = [reference.seconds() for _ in range(2)]
    finally:
        reference.close()
    assert all(t > 0 for t in times)
    assert reference.proc.returncode == 0


def test_call_past_time_limit_fails_and_the_pass_goes_on(tmp_path, alarm, monkeypatch):
    cases = multiplier_sweep(seed=1, n=24, weights=2, kernels=2)
    write_specs(cases, tmp_path)
    monkeypatch.setattr(run, "CALL_LIMIT_S", 1e-3)
    slow = run.run_pass(cli, cases, tmp_path, time.monotonic() + 60)
    assert len(slow.seconds) == len(cases)
    assert all("time limit" in f for f in slow.failures) and len(slow.failures) == len(cases)
    monkeypatch.setattr(run, "CALL_LIMIT_S", 30.0)
    assert run.run_pass(cli, cases, tmp_path, time.monotonic() + 60).failures == []


def test_self_times_sum_to_traced_wall_time(tmp_path, alarm):
    cases = multiplier_sweep(seed=2, n=16, weights=2, kernels=2)
    write_specs(cases, tmp_path)
    tracer = Tracer()
    deadline = time.monotonic() + 120
    plain = min(run.run_pass(cli, cases, tmp_path, deadline).total for _ in range(3))
    counts = []
    walls = []
    for _ in range(2):
        lo = len(tracer)
        tracer.install()
        try:
            result = run.run_pass(cli, cases, tmp_path, deadline, tracer)
        finally:
            tracer.uninstall()
        assert result.failures == []
        totals = tracer.totals(lo, len(tracer))
        counts.append({name: v[0] for name, v in totals.items()})
        self_sum = sum(v[1] for v in totals.values())
        roots = [i for i in range(lo, len(tracer)) if tracer.parent[i] == -1]
        assert {tracer.names[tracer.name_id[i]] for i in roots} == {"cli.main"}
        assert self_sum == pytest.approx(sum(tracer.end[i] - tracer.start[i] for i in roots), abs=1e-9)
        walls.append((result.total, self_sum))
    assert counts[0] == counts[1]
    # the tolerance is trace.overhead_frac, floored at 1% for when the
    # tracing overhead is smaller than the pass-to-pass noise
    overhead = max(min(w for w, _ in walls) / plain - 1, 0.01)
    for wall, self_sum in walls:
        assert 0 <= wall - self_sum <= overhead * wall
    # the wrappers are gone once uninstalled
    assert cli.main.__module__ == "wgelfand.cli" and not hasattr(cli.main, "__wrapped__")
