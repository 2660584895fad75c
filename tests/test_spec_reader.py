"""Spec input: the one vectorised number reader (`groups.json_array`)
against the per-entry rules it replaced (`tests/oracles.py`), the orjson
route of `cli._parse` against stdlib json, and count guards on the
work a valid spec costs."""

import io
import json
from contextlib import redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wgelfand as wg
from wgelfand import cli, fourier, groups
from wgelfand.errors import WGelfandError

import oracles

# scalars of every JSON type, numbers most often, with the values that a
# per-entry rule words: booleans, strings of numbers, NaN, infinities and
# integers beyond int64 or the float range
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.5, 2.0, 2**53, 2**53 + 1, 2**63, 2**64, 10**400, -(10**400)]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "1.5", ""]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["0", "1", "a"]), inner, max_size=2)
    ),
    max_leaves=8,
)
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-10, 10, allow_nan=False), st.just(1.5))


@st.composite
def nested(draw, depth, sizes):
    """A rectangular nested list of numbers, `depth` levels deep, each level
    of a length drawn from `sizes`; then, half the time, one place changed:
    an entry replaced by any JSON value, or a list shortened or lengthened."""
    shape = [draw(st.sampled_from(sizes)) for _ in range(depth)]

    def build(level):
        if level == depth:
            return draw(NUMBERS)
        return [build(level + 1) for _ in range(shape[level])]

    value = build(0)
    if draw(st.booleans()):
        value = _mutate(draw, value)
    return value


def _mutate(draw, value):
    if not isinstance(value, list) or not value or draw(st.integers(0, 3)) == 0:
        return draw(VALUES)
    i = draw(st.integers(0, len(value) - 1))
    action = draw(st.sampled_from(["descend", "descend", "drop", "repeat"]))
    if action == "drop":
        return value[:i] + value[i + 1 :]
    if action == "repeat":
        return value + [value[i]]
    return value[:i] + [_mutate(draw, value[i])] + value[i + 1 :]


def outcome(fn, *args):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except WGelfandError as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_same(ours, ref):
    """The same error, or arrays equal in dtype, shape and every entry."""
    assert ours[0] == ref[0], (ours, ref)
    if ours[0] == "error":
        assert ours == ref
    else:
        assert ours[1].dtype == ref[1].dtype and ours[1].shape == ref[1].shape
        assert np.array_equal(ours[1], ref[1], equal_nan=True)


FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(st.integers(0, 2).flatmap(lambda ndim: st.tuples(st.just(ndim), st.one_of(
    nested(ndim, (0, 1, 2, 3)), nested(max(ndim - 1, 0), (1, 2)), nested(ndim + 1, (1, 2)), VALUES))))
@example((1, [1, True, 2]))
@example((2, [[0, 1], [1, False]]))
@example((1, ["1", 2]))
@example((0, "1"))
@example((1, [float("nan"), 1]))
@example((1, [10**400, 1]))
@example((2, [[0, 1, 2], [1, 0]]))
@example((1, [[]]))
@example((2, []))
def test_integers_read_as_by_the_per_entry_rule(case):
    ndim, value = case
    assert_same(outcome(groups._integers, value, "x", ndim), outcome(oracles.integers, value, "x", ndim))


@pytest.mark.parametrize(
    "value, depth, dtype",
    [
        ([1, True, 2], 1, np.int64),
        ([[0, 1], [1, False]], 2, np.int64),
        ([[2, 3], [True, 4]], 2, np.int64),
        ([1.5, True, 0.25], 1, float),
        ([[[1.0, 0.0], [True, 0.0]]], 3, float),
        ([[[1.5, 2.0], [0.5, False]], [[0.0, 1.0], [1.0, 0.0]]], 3, float),
    ],
    ids=["ints-depth-1", "ints-depth-2", "ints-depth-2-true", "floats", "pair-re", "pair-im"],
)
def test_a_boolean_among_numbers_is_refused(value, depth, dtype):
    """numpy converts a boolean among numbers to 0 or 1, so `json_array`
    looks for one among the cells equal to 0 or 1 and refuses the value;
    the same list without the boolean is read."""
    assert groups.json_array(value, depth, dtype) is None
    plain = json.loads(json.dumps(value).replace("true", "1").replace("false", "0"))
    assert groups.json_array(plain, depth, dtype) is not None


def _s3_over_a_transposition():
    group = wg.symmetric_group(3)
    part = wg.double_cosets(group, [1])
    return part, wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))


PART, SC = _s3_over_a_transposition()  # |G| = 6, d = 2


@FUZZ
@given(st.one_of(
    st.builds(lambda h: {"kind": "kernel", "coset_values": h}, nested(2, (1, 2, 2, 2, 3))),
    st.builds(lambda h: {"kind": "matrix", "rows": h}, nested(3, (1, 2, 2, 2, 3))),
    st.builds(lambda h: {"kind": "matrix", "rows": h}, VALUES),
))
@example({"kind": "kernel", "coset_values": [[True, 0], [1, 0]]})
@example({"kind": "kernel", "coset_values": [["1", 0], [1, 0]]})
@example({"kind": "kernel", "coset_values": [[float("nan"), 0], [10**400, 0]]})
@example({"kind": "kernel", "coset_values": [[10**400, 0], [float("nan"), 0]]})
@example({"kind": "matrix", "rows": [[[1, 0], [0, float("nan")]], [[0, 0]]]})
@example({"kind": "matrix", "rows": [[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]]})
@example({"kind": "kernel", "coset_values": [[2**64, -1], [1, 0]]})
@example({"kind": "matrix", "rows": [[[2**64, -1], [0, 0]], [[0, 0], [1, 0]]]})
def test_multiplier_values_read_as_by_the_per_entry_rule(spec):
    """A spec that `json_array` refuses but every entry of which is a finite
    number (2**64 beside -1 fits no 64-bit integer dtype) is read again row
    by row, and gives the same values."""
    ours = outcome(lambda: wg.multiplier_from_spec(spec, SC))
    ref = outcome(lambda: oracles.multiplier_values(spec, SC.dim))
    if ours[0] == "ok":
        T, h = ours[1]
        ours = ("ok", h if spec["kind"] == "kernel" else T)
    assert_same(ours, ref)


@FUZZ
@given(st.one_of(
    st.builds(lambda v: {"kind": "by_element", "values": v}, nested(1, (5, 6, 6, 7))),
    st.builds(lambda v: {"kind": "by_element", "values": [v] * 6}, SCALARS),
    st.builds(
        lambda v: {"kind": "by_double_coset", "values": v},
        st.dictionaries(st.sampled_from(["0", "1", "2"]), st.one_of(NUMBERS, SCALARS), max_size=3),
    ),
))
@example({"kind": "by_element", "values": [1, True, 1, 1, 1, 1]})
@example({"kind": "by_element", "values": [1, "1", 1, 1, 1, 1]})
@example({"kind": "by_element", "values": [10**400, float("nan"), 1, 1, 1, 1]})
@example({"kind": "by_element", "values": [[1], 1, 1, 1, 1, 1]})
@example({"kind": "by_double_coset", "values": {"0": True}})
@example({"kind": "by_double_coset", "values": {"0": float("nan")}})
def test_weights_read_as_by_the_per_entry_rule(spec):
    assert_same(
        outcome(wg.weight_from_spec, spec, PART), outcome(oracles.coset_weights, spec, PART)
    )


# -------------------------------------------------------- spec files via main

MULTIPLIER = {"kind": "matrix", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
BASE = {
    "group": {"kind": "table", "table": oracles.mul_table(wg.symmetric_group(3)).tolist()},
    "subgroup": {"seeds": [1]},
    "weight": {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}},
    "multiplier": {"kind": "kernel", "coset_values": [[1, 0], [0.5, -1]]},
    "automorphism": {"kind": "perm", "perm": [0, 1, 2, 3, 4, 5]},
}


def _argv(tmp_path, files):
    """multiplier-check argv on the spec files `files` (name -> bytes),
    written to tmp_path, with the report to tmp_path/report.json."""
    argv = ["multiplier-check"]
    for name, raw in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        argv += [f"--{name}", str(path)]
    return argv + ["--output", str(tmp_path / "report.json")]


def _main(tmp_path, files):
    """(exit code, report without `timings` or None, stderr) of one call."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(_argv(tmp_path, files))
    report = None
    if code in (cli.EXIT_OK, cli.EXIT_VERDICT):
        report = json.loads((tmp_path / "report.json").read_bytes())
        report.pop("timings")
    return code, report, err.getvalue()


VALID = {name: json.dumps(spec).encode() for name, spec in BASE.items()}


SPEC_BYTES = st.one_of(
    st.builds(lambda v: json.dumps(v).encode(), VALUES),
    st.builds(lambda v: json.dumps({**BASE["weight"], "values": v}).encode(), VALUES),
    st.builds(lambda v: json.dumps({"kind": "kernel", "coset_values": v}).encode(), nested(2, (1, 2, 2))),
    st.builds(lambda v: json.dumps({"kind": "table", "table": v}).encode(), nested(2, (5, 6, 6))),
    st.binary(max_size=20),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(BASE)), SPEC_BYTES)
@example("group", b"[" * 100_000 + b"]" * 100_000)
@example("subgroup", '{"seeds": [1]}'.encode("utf-16"))
@example("subgroup", b'\xef\xbb\xbf{"seeds": [1]}')
@example("weight", b'{"kind": "uniform", "note": "\\ud800"}')
@example("weight", b'{"kind": "by_double_coset", "values": {"0": 1, "1": NaN}}')
@example("weight", b'{"kind": "by_double_coset", "values": {"0": 1, "1": 1' + b"0" * 400 + b"}}")
@example("subgroup", b'{"seeds": [1, true]}')
@example("subgroup", b'{"seeds": ["1"]}')
@example("multiplier", b'{"kind": "kernel", "coset_values": [[1, 0], [0]]}')
@example("subgroup", b'{"seeds": [18446744073709551616]}')
@example("group", b'{"kind": 18446744073709551616}')
@example("group", b'{"kind": "symmetric", "n": 3, "why": "[[[["}')
@example("group", b'["' + b"]" * 100_000 + b'", ' + b"[" * 100_000 + b"]" * 100_001)
def test_main_reads_spec_files_as_json_does(tmp_path, which, raw):
    """A report or exactly one `error:` line; and the same exit code, report
    (but for `timings`) and stderr when every file is read by json alone.
    The group kept from the first call is dropped, so json reads the group
    spec too."""
    files = dict(VALID, **{which: raw})
    code, report, err = _main(tmp_path, files)
    if report is None:
        assert code in (cli.EXIT_INPUT, cli.EXIT_DEGENERATE)
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    else:
        assert err == ""
    with mock.patch.object(cli, "_orjson_reads_as_json", lambda raw: False), \
            mock.patch.object(cli, "_last_group", None):
        assert _main(tmp_path, files) == (code, report, err)


@pytest.mark.parametrize(
    "raw, agrees",
    [
        (b'{"seeds": [1, 2]}', True),
        (b"[" * 64 + b"]" * 64, True),
        (b"[" * 65 + b"]" * 65, False),
        (b'["]]]]", [[[[1]]]]]', False),
        (b'"\\"[["', False),
        (b'{"a": "", "b": ["", ""]}', True),
        (b"123456789012345678", True),
        (b"1234567890123456789", False),
    ],
)
def test_orjson_route_is_taken_only_where_it_reads_as_json(raw, agrees):
    """Past the depth bound, with a bracket or a backslash in a string, or
    with a run of 19 digits, a document goes to json."""
    assert cli._orjson_reads_as_json(raw) is agrees


# ---------------------------------------------------------------- count guards


@pytest.mark.parametrize("multiplier", [BASE["multiplier"], MULTIPLIER], ids=["kernel", "matrix"])
def test_valid_specs_do_not_call_json_loads(tmp_path, monkeypatch, multiplier):
    calls = []
    loads = cli.json.loads
    monkeypatch.setattr(cli.json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    argv = _argv(tmp_path, dict(VALID, multiplier=json.dumps(multiplier).encode()))
    assert cli.main(argv) == cli.EXIT_OK and calls == []


def test_two_main_calls_build_one_parser(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli.build_parser.cache_clear()
    assert cli.main(_argv(tmp_path, VALID)) == cli.EXIT_OK
    first = len(built)
    assert cli.main(_argv(tmp_path, VALID)) == cli.EXIT_OK
    assert first == 3 and len(built) == first  # the parser and its two subcommands


def test_a_d31_matrix_is_read_without_per_entry_calls(monkeypatch):
    """D60 over a reflection (d = 31): one `json_array` call reads the whole
    matrix, and no row goes through the per-entry rule."""
    group = wg.dihedral_group(60)
    part = wg.double_cosets(group, [2])
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    assert sc.dim == 31
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(31, 31, 2))
    calls = {"json_array": 0, "json_floats": 0, "_pair_row": 0}

    def counting(name, fn):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    for name in calls:
        monkeypatch.setattr(fourier, name, counting(name, getattr(fourier, name)))
    T, h = wg.multiplier_from_spec({"kind": "matrix", "rows": rows.tolist()}, sc)
    assert h is None and np.array_equal(T, rows.view(complex)[..., 0])
    assert calls == {"json_array": 1, "json_floats": 0, "_pair_row": 0}
