"""Unit tests of the JSON comparison in tools/compare_cli_outputs.py."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_cli_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_cli_outputs", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def test_identical_documents_differ_by_zero():
    doc = {"a": [1.0, {"b": "x", "c": True}], "d": None, "e": 3}
    assert compare.largest_difference(doc, json.loads(json.dumps(doc)))[0] == 0.0
    assert compare.largest_difference({}, {}) == (0.0, "$", {}, {})
    assert compare.largest_difference([], []) == (0.0, "$", [], [])


def test_nested_leaf_of_largest_relative_difference():
    old = {"a": [1.0, {"b": 2.0, "c": 10.0}], "d": 4.0}
    new = {"a": [1.0, {"b": 2.2, "c": 10.5}], "d": 4.0}
    rel, path, a, b = compare.largest_difference(old, new)
    assert (path, a, b) == ("$.a[1].b", 2.0, 2.2)
    assert rel == pytest.approx(0.2 / 2.2, rel=1e-14)
    # the relative difference is taken against the larger magnitude, either way round
    assert compare.largest_difference(new, old)[:2] == (rel, "$.a[1].b")


def test_containers_of_different_shape_differ_by_infinity():
    assert compare.largest_difference({"x": [1, 2]}, {"x": [1, 2, 3]}) == (
        math.inf, "$.x", [1, 2], [1, 2, 3])
    assert compare.largest_difference({"x": 1}, {"y": 1})[:2] == (math.inf, "$")
    assert compare.largest_difference([1.0], {"0": 1.0})[:2] == (math.inf, "$")


def test_nan_differs_by_infinity():
    nan = float("nan")
    assert compare.largest_difference([nan], [nan])[:2] == (math.inf, "$[0]")
    assert compare.largest_difference([1.0, nan], [1.0, 2.0])[:2] == (math.inf, "$[1]")


def test_a_bool_against_a_number_differs_by_infinity():
    assert compare.largest_difference({"ok": True}, {"ok": 1}) == (math.inf, "$.ok", True, 1)
    assert compare.largest_difference([False], [0.0])[:2] == (math.inf, "$[0]")
    assert compare.largest_difference([True], [True])[0] == 0.0


def test_json_report_names_the_leaf():
    old = json.dumps({"cells": [{"measure": 1.0}]}).encode()
    new = json.dumps({"cells": [{"measure": 1.5}]}).encode()
    line = compare._json_report("frame.json", old, new)
    assert line == ("    out/frame.json: largest relative difference 0.333 at "
                    "$.cells[0].measure (1.0 -> 1.5)")


def test_json_report_gives_no_line_without_two_json_documents():
    doc = b'{"a": 1}'
    assert compare._json_report("cells.csv", doc, b'{"a": 2}') is None
    assert compare._json_report("bounds.json", doc, None) is None
    assert compare._json_report("bounds.json", None, doc) is None
    assert compare._json_report("bounds.json", doc, b"not json") is None
