"""The tolerance policy: one rule in one module."""

import ast
from pathlib import Path

import numpy as np

from wgelfand.tolerance import RTOL, within

SRC = Path(__file__).resolve().parents[1] / "src" / "wgelfand"


def test_no_tolerance_literal_outside_the_policy_module():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in files
        if path.name != "tolerance.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value < 1e-6
    ]
    assert not found


def test_residual_is_relative_to_scale_floored_at_one():
    assert within(RTOL) and not within(2 * RTOL)
    assert within(RTOL, 0.01) and not within(2 * RTOL, 0.01)
    assert within(1e3 * RTOL, 1e3) and not within(2e3 * RTOL, 1e3)
    assert not within(np.nan) and not within(np.nan, 1e6)
    assert within([0.0, RTOL, 3 * RTOL, np.nan], 2.0).tolist() == [True, True, False, False]
