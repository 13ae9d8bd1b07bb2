"""Property test of the spec loaders: one field of a built-in spec document replaced at a time."""

import json
from pathlib import Path

import pytest

from gaugemech import cli, liealg, semidirect

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# no file of these names lies next to this test, so a string group reference resolves to nothing
BASEDIR = Path(__file__).resolve().parent
VALUES = [None, "x", [], {}, float("inf"), float("-inf"), float("nan"), 1e308, -1, 0, True, False, 1.5, "0.5", [1e300, 1e300]]


def _paths(node, prefix=()):
    """The path of every node of a JSON document, the document itself first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _documents():
    groups = [liealg.spec_to_json(g) for g in (liealg.so3(), liealg.heisenberg3(), liealg.translation_group(3), liealg.torus(1))]
    bundles = {json.dumps(s["bundle"]): s["bundle"] for s in cli.BUILTIN_SCENARIOS.values() if "bundle" in s}
    inline = semidirect.sd_to_json(semidirect.so3_r3())
    named = inline | {"K": "so3", "N": "r3"}
    return [("group", g) for g in groups] + [("bundle", b) for b in bundles.values()] + [("semidirect", inline), ("semidirect", named)]


# (loader kind, document, path of the replaced field): every connection field sits inside a bundle document
SITES = [(kind, doc, path) for kind, doc in _documents() for path in _paths(doc)]


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _is_number(x):
    return type(x) in (int, float)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(site=st.sampled_from(SITES), value=st.sampled_from(VALUES))
def test_single_field_mutation_loads_or_names_its_field(site, value):
    kind, doc, path = site
    old = doc
    for key in path:
        old = old[key]
    try:
        cli._resolve(kind, _replace(doc, path, value), BASEDIR)
    except cli.ConfigError as exc:
        assert str(exc).startswith(repr(kind)), exc
    else:
        assert not (_is_number(old) and isinstance(value, (bool, str))), f"{value!r} in place of the number at {path} loaded"
