"""render_report_json writes a report byte for byte as the two-pass route:
jsonable over the whole tree, then json.dumps(indent=2, sort_keys=True,
allow_nan=False).  That route is copied below as the oracle, and the golden
tests rebuild version 1 reports with it."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from daugavetlab.scenarios import render_report_json

# ---------------------------------------------------------------------------
# the two-pass route
# ---------------------------------------------------------------------------


def jsonable(value):
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.complexfloating,)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def two_pass(report) -> str:
    return json.dumps(jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def raised(fn, value):
    try:
        fn(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# generated trees
# ---------------------------------------------------------------------------

texts = st.one_of(
    st.text(),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x40)),  # control characters
    st.sampled_from(["", "é", " ", "\ud800", "😀", '"\\/', "\x00\x1f\x7f",
                     "NaN", "im", "re"]))
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1e16, 1e-7, 1.7976931348623157e308, 0.1]))
ints = st.one_of(st.integers(), st.integers(-2 ** 300, 2 ** 300),
                 st.sampled_from([0, -1, 2 ** 53 + 1, -2 ** 63, 2 ** 64]))
complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)
numpy_scalars = st.one_of(
    floats.map(np.float64), st.floats(-3e38, 3e38).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(-128, 127).map(np.int8),
    st.integers(0, 2 ** 64 - 1).map(np.uint64), st.booleans().map(np.bool_),
    complexes.map(np.complex128), st.complex_numbers(max_magnitude=3e38).map(np.complex64))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts, st.fractions(),
                   complexes, numpy_scalars)
keys = st.one_of(texts, ints, st.booleans(), st.none(), st.fractions(), floats)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(keys, children, max_size=4)),
    max_leaves=30)


class TestOnePassWriter:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(trees)
    @example({})
    @example([])
    @example(())
    @example({"a": {}, "b": [], "c": (), "d": [{}, [[]]]})
    @example({1: "int key", "1": "str key", 0.5: Fraction(-3, 4), None: True, False: None})
    @example({"x": -0.0, "y": 5e-324, "z": 1e16, "w": 2 ** 4000, "v": -(2 ** 64)})
    @example({"é\x01": ["\u0000", "\ud83d", "tab\there"]})
    @example([np.float64(-0.0), np.float32(0.1), np.int64(-7), np.bool_(False),
              np.complex128(1 - 0.0j), np.complex64(0.5j), complex(-0.0, 1e16)])
    def test_matches_the_two_pass_route(self, tree):
        assert render_report_json(tree) == two_pass(tree)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                     np.float32(math.inf), complex(math.nan, 0),
                                     complex(0, -math.inf), complex(math.inf, math.nan),
                                     np.complex128(complex(1, math.nan)),
                                     np.complex64(complex(math.inf, 0))])
    @pytest.mark.parametrize("where", ["top", "value", "list", "nested"])
    def test_non_finite_floats_raise_value_error(self, bad, where):
        tree = {"top": bad, "value": {"k": bad, "a": 1.0}, "list": [0, (1, bad)],
                "nested": {"a": [{"b": [bad]}]}}[where]
        got = raised(render_report_json, tree)
        assert got is not None and got[0] is ValueError
        assert got == raised(two_pass, tree)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", np.array([1.0]),
                                     np.datetime64("2020-01-01")],
                             ids=["object", "set", "bytes", "array", "datetime64"])
    def test_an_unknown_type_raises_the_same_type_error(self, bad):
        tree = {"checks": [{"name": "x", "values": {"witness": bad}}]}
        got = raised(render_report_json, tree)
        assert got is not None and got[0] is TypeError
        assert got == raised(two_pass, tree)
        assert got[1].startswith("cannot serialize ")

    def test_an_integer_too_long_to_print_raises_as_before(self):
        tree = {"n": 10 ** 5000}
        got = raised(render_report_json, tree)
        assert got is not None and got[0] is ValueError
        assert got == raised(two_pass, tree)
