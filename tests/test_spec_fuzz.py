"""Mutated copies of the CLI test spec never crash ``gklab analyze``.

Each example mutates ``SPEC`` from ``test_cli.py``: values swapped for
other JSON types, floats, bools, small negative, out-of-range or large
integers, keys deleted or added, and deep ``direct`` nesting.  It runs
through ``cli.main`` under a small element cap.  Every outcome is a
documented exit code (0, 2 input error, 3 cap exceeded) with no traceback on
stderr, a recipe with a key that no recipe type reads never exits 0, and
the unmutated spec still gives the pinned report bytes.  A degree or a
builtin order past the cap is refused before anything is built, so large
integers cost nothing.

``gklab classify`` literals are fuzzed the same way: any string of digits,
separators and a few other characters exits 0 or 2, with no traceback.  So
are ``gklab graph``'s arguments: catalog names, mutated specs, missing paths
and directories as the group, and ``--name`` and ``--dot`` present, absent,
unknown or a directory.
"""

import copy
import functools
import hashlib
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from gklab import catalog
from gklab.cli import main
from test_cli import SPEC, SPEC_REPORT_SHA256, chain_spec, wide_spec

# Every group of SPEC has order at most 200 (fig3.e), so the unmutated spec
# analyses in full; a mutation that grows a group hits the cap instead.
CAP = "200"

JUNK = st.one_of(
    st.integers(-10, -1),
    st.integers(4, 1000),
    st.integers(10**6, 10**18),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["s3", "c2", "k", "perm", "direct", "cyclic", "fig3.e"]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.builds(dict),
)


EXTRA_KEYS = st.sampled_from(["bogus", "args", "p", "factors", "kernel",
                              "action_matrices", "Type"])


def _paths(node, path=()):
    """Every path to a value below node, as key and index tuples."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(SPEC)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    # an extra key, unknown to every recipe type or read by another one
    dicts = [node for node in map(functools.partial(_at, doc), _paths(doc))
             if isinstance(node, dict)]
    if dicts and draw(st.booleans()):
        draw(st.sampled_from(dicts))[draw(EXTRA_KEYS)] = draw(JUNK)
    # deep nesting past the bound: products of trivial groups reach it
    # without growing, and anything shallower would take seconds to analyse
    deep = draw(st.sampled_from([None, "wide", "top-first", "bottom-first"]))
    if deep is not None and isinstance(doc.get("groups"), dict):
        n = draw(st.integers(65, 300))
        extra = (wide_spec(n + 1) if deep == "wide"
                 else chain_spec(n, top_first=deep == "top-first"))["groups"]
        doc["groups"].update({name: extra[name] for name in extra
                              if name not in doc["groups"]})
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=mutated_specs())
@example(spec=SPEC)
@example(spec={"groups": {"g": {"type": "perm", "degree": -3, "gens": [[]]}}})
@example(spec={"groups": {"m": {"type": "matgrp", "p": 2, "gens": [[]]}}})
@example(spec={"groups": {"c": {"type": "builtin", "name": "cyclic",
                                "args": [2], "bogus": 1}}})
@example(spec=wide_spec(600))
@example(spec=wide_spec(128))
@example(spec=chain_spec(700, top_first=True))
def test_mutated_spec_exits_cleanly(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.setenv("GKLAB_MAX_ORDER", CAP)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = main(["analyze", "spec.json", "-o", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")
    # every recipe is built, so one with a key no type reads fails the run
    groups = spec.get("groups")
    if isinstance(groups, dict) and any(
            isinstance(recipe, dict) and "bogus" in recipe
            for recipe in groups.values()):
        assert code, spec
    # compared as JSON text: True == 1 and 1.0 == 1 in Python, not in JSON
    if json.dumps(spec) == json.dumps(SPEC):
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            SPEC_REPORT_SHA256


# digits and separators, plus characters int() accepts in a number ("+",
# "_", a tab, an Arabic-Indic digit) and two it rejects
LITERAL_CHARS = list("0123456789-, ") + ["x", "+", "_", ".", "\t", "٣"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(literal=st.text(st.sampled_from(LITERAL_CHARS), max_size=12),
       cls=st.sampled_from(["cut", "rational"]))
@example(literal="2-3-5", cls="cut")
@example(literal="-3", cls="cut")
@example(literal="", cls="cut")
@example(literal="1_1", cls="rational")
@example(literal="2-" + "7" * 5000, cls="cut")  # past int()'s digit limit
def test_classify_literal_exits_cleanly(capsys, literal, cls):
    # "--" ends the options, so a literal starting with "-" reaches classify
    code = main(["classify", "--class", cls, "--", literal])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")


CATALOG_NAMES = [entry.name for entry in catalog.catalog()]


@st.composite
def graph_args(draw):
    """(argv for ``gklab graph``, spec to write or None).

    The group is a catalog name, an unknown name, a mutated SPEC in a file,
    a missing path or a directory; ``--name`` is absent, one of SPEC's
    groups or unknown; ``--dot`` is absent, a file or a directory.
    """
    kind = draw(st.sampled_from(["catalog", "spec", "missing", "directory"]))
    spec = None
    if kind == "catalog":
        group = draw(st.sampled_from(CATALOG_NAMES + ["fig3.zz", ""]))
    elif kind == "spec":
        spec, group = draw(mutated_specs()), "spec.json"
    else:
        group = "missing.json" if kind == "missing" else "adir"
    argv = ["graph", group]
    name = draw(st.sampled_from([None, "", "nope", *sorted(SPEC["groups"])]))
    if name is not None:
        argv += ["--name", name]
    dot = draw(st.sampled_from([None, "out.dot", "adir", ".",
                                "missing/out.dot"]))
    if dot is not None:
        argv += ["--dot", dot]
    return argv, spec


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=graph_args())
@example(case=(["graph", "fig3.e"], None))
@example(case=(["graph", "spec.json", "--name", "s3", "--dot", "adir"], SPEC))
@example(case=(["graph", "adir"], None))
@example(case=(["graph", "missing.json", "--name", "nope"], None))
@example(case=(["graph", "spec.json"], SPEC))
def test_graph_args_exit_cleanly(tmp_path, monkeypatch, capsys, case):
    argv, spec = case
    monkeypatch.setenv("GKLAB_MAX_ORDER", CAP)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir(exist_ok=True)
    (tmp_path / "out.dot").unlink(missing_ok=True)
    spec_file = tmp_path / "spec.json"
    spec_file.unlink(missing_ok=True)
    if spec is not None:
        spec_file.write_text(json.dumps(spec))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")
    elif "--dot" in argv:
        assert (tmp_path / "out.dot").read_text().startswith("graph ")
    else:
        assert out.startswith("graph ")
