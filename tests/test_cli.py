import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gklab
from gklab import catalog, cli, verify
from gklab import elements as el
from gklab.cli import main
from gklab.groups import DEFAULT_CAP
from gklab.structure import InvariantFailed

SPEC = {
    "groups": {
        "s3": {"type": "perm", "degree": 3, "gens": [[[1, 2]], [[1, 2, 3]]]},
        "q8": {"type": "matgrp", "p": 3,
               "gens": [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]},
        "c2": {"type": "builtin", "name": "cyclic", "args": [2]},
        "d": {"type": "direct", "factors": ["s3", "c2"]},
        "e": {"type": "catalog", "name": "fig3.e"},
        "sd": {"type": "semidirect", "kernel": "k", "acting": "c2",
               "action_images": [[[0, 0]]]},
        "k": {"type": "builtin", "name": "cyclic", "args": [3]},
    }
}
# the analyze bytes of SPEC, pinned before generator words were dropped
SPEC_REPORT_SHA256 = \
    "52a6553c1ffab02bedcb11a5bd68678ec98dd6dcc1f753ec9607ef9b221356f5"
# GL(2,11), 13,200 elements: an enumerated group above TABLE_BOUND, whose
# ids multiply by element products (its analyze bytes, pinned before the
# table of orders and inverses by id was deleted)
GL2_11_SPEC = {"groups": {"gl2_11": {
    "type": "matgrp", "p": 11, "gens": [[[2, 0], [0, 1]], [[10, 1], [10, 0]]]}}}
GL2_11_REPORT_SHA256 = \
    "3fa9bb1c06872b876bbf7290b5155f88279ea89e177ea6dbc5a966572060b496"

C1 = {"type": "builtin", "name": "cyclic", "args": [1]}
ONE_ACTION_FORM = ("a semidirect recipe takes action_matrices with p, or "
                   "action_images without p")


def _report_sha256(tmp_path, spec: dict) -> str:
    """sha256 of the analyze JSON of spec, written to spec.json in tmp_path,
    the working directory."""
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    report = cli.analysis_report(cli.load_spec("spec.json"),
                                 {"spec": "spec.json"})
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def wide_spec(k: int) -> dict:
    """One direct product of k trivial factors: product depth k - 1."""
    return {"groups": {"c1": C1, "w": {"type": "direct",
                                       "factors": ["c1"] * k}}}


def chain_spec(n: int, top_first: bool, kind: str = "direct") -> dict:
    """r0 built on r1, r1 on r2, ..., r(n-1) on the trivial rn, each a
    product with c1: r0 has product depth n.  top_first lists r0 first, so
    building it descends the whole chain."""
    def link(i):
        if kind == "direct":
            return {"type": "direct", "factors": [f"r{i + 1}", "c1"]}
        return {"type": "semidirect", "kernel": f"r{i + 1}", "acting": "c1",
                "action_images": [[[]]]}
    groups = {f"r{i}": link(i) for i in range(n)}
    groups[f"r{n}"] = groups["c1"] = C1
    order = list(groups) if top_first else list(reversed(groups))
    return {"groups": {name: groups[name] for name in order}}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


class TestAnalyze:
    def test_report_contents(self, spec_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", spec_path, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        s3 = report["groups"]["s3"]
        assert s3["order"] == 6
        assert s3["gk_graph"]["vertices"] == [2, 3]
        assert s3["rationality"]["is_rational"] is True
        assert s3["frobenius_kind"] == "frobenius"
        assert report["groups"]["d"]["order"] == 12
        assert report["groups"]["e"]["order"] == 200
        assert report["groups"]["sd"]["order"] == 6
        assert report["groups"]["sd"]["structure"]["predicates"]["abelian"] is False

    def test_byte_stable(self, spec_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", spec_path, "-o", str(a)])
        main(["analyze", spec_path, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_groups_map(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"groups": {}}')
        assert main(["analyze", str(path)]) == 2

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent/spec.json"]) == 2

    def test_cap_exceeded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKLAB_MAX_ORDER", "10")
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"groups": {
            "s4": {"type": "perm", "degree": 4,
                   "gens": [[[1, 2]], [[1, 2, 3, 4]]]}}}))
        assert main(["analyze", str(path)]) == 3

    @pytest.mark.parametrize("recipe", [
        {"type": "direct", "factors": ["c3", "c3"]},
        {"type": "semidirect", "kernel": "c3", "acting": "c3",
         "action_images": [[[0]]]}])
    def test_product_cap_exceeded(self, tmp_path, monkeypatch, capsys, recipe):
        # each factor fits under the cap, their product does not
        monkeypatch.setenv("GKLAB_MAX_ORDER", "8")
        path = tmp_path / "product.json"
        path.write_text(json.dumps({"groups": {
            "c3": {"type": "builtin", "name": "cyclic", "args": [3]},
            "p": recipe}}))
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == \
            "error: product order 9 exceeds cap 8\n"

    @pytest.mark.parametrize("p", [4, -5, 0])
    def test_elem_abelian_needs_a_prime(self, tmp_path, capsys, p):
        path = tmp_path / "elem.json"
        path.write_text(json.dumps({"groups": {
            "v": {"type": "builtin", "name": "elem_abelian", "args": [p, 2]}}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad recipe 'v': elem_abelian needs a prime p, got {p}\n"

    def test_trivial_groups_are_classified_realized(self, tmp_path, capsys):
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"groups": {
            "c1": C1, "w": {"type": "direct", "factors": ["c1", "c1"]}}}))
        assert main(["analyze", str(path)]) == 0
        for report in json.loads(capsys.readouterr().out)["groups"].values():
            assert report["gk_graph"]["literal"] == ""
            assert {v["status"] for v in report["classification"].values()} \
                == {"realized"}
            assert set(report["classification"]) == {"solvable-cut",
                                                      "solvable-rational"}

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_max_order_env(self, spec_path, monkeypatch, capsys, value):
        monkeypatch.setenv("GKLAB_MAX_ORDER", value)
        assert main(["analyze", spec_path]) == 2
        assert "GKLAB_MAX_ORDER" in capsys.readouterr().err

    def test_internal_invariant_failed(self, spec_path, monkeypatch, capsys):
        def stalled(G, p):
            raise InvariantFailed(f"no p-element of {G.label} normalizes")
        monkeypatch.setattr(cli, "sylow", stalled)
        assert main(["analyze", spec_path]) == 5
        err = capsys.readouterr().err
        assert "internal invariant failed" in err
        assert "no p-element" in err
        assert "Traceback" not in err

    def test_pinned_report_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _report_sha256(tmp_path, SPEC) == SPEC_REPORT_SHA256

    def test_pinned_report_sha256_above_table_bound(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _report_sha256(tmp_path, GL2_11_SPEC) == GL2_11_REPORT_SHA256

    def test_unwritable_output(self, spec_path, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["analyze", spec_path, "-o", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [0, 4])
    def test_non_prime_modulus(self, tmp_path, capsys, p):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"groups": {
            "m": {"type": "matgrp", "p": p, "gens": [[[1, 2], [0, 1]]]}}}))
        assert main(["analyze", str(path)]) == 2
        assert f"p={p}" in capsys.readouterr().err

    def test_top_level_not_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(cli.SpecError, match="JSON object"):
            cli.load_spec(str(path))
        assert main(["analyze", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "graph"])
    def test_deeply_nested_spec(self, tmp_path, capsys, command):
        # json.load recurses once per nesting level
        path = tmp_path / "deep.json"
        path.write_text('{"groups": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read spec file: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", ["nosuch", "quaternion8_times_c3",
                                      "corpus"])
    def test_unknown_builtin(self, tmp_path, capsys, name):
        # only the catalog's registered builders are builtins
        path = tmp_path / "builtin.json"
        path.write_text(json.dumps({"groups": {
            "g": {"type": "builtin", "name": name, "args": []}}}))
        assert main(["analyze", str(path)]) == 2
        assert f"unknown builtin {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("builtin, args, expected", [
        ("cyclic", [2, 3], "takes 1 argument (n), got 2"),
        ("cyclic", [], "takes 1 argument (n), got 0"),
        ("elem_abelian", [2], "takes 2 arguments (p, rank), got 1"),
        ("quaternion8", [1], "takes 0 arguments, got 1"),
    ])
    def test_builtin_arity(self, tmp_path, capsys, builtin, args, expected):
        path = tmp_path / "arity.json"
        path.write_text(json.dumps({"groups": {
            "x": {"type": "builtin", "name": builtin, "args": args}}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad recipe 'x': builtin {builtin!r} {expected}\n"

    @pytest.mark.parametrize("recipe, message", [
        ({"type": "builtin", "name": "cyclic", "args": [2], "bogus": 1},
         "a builtin recipe takes no key 'bogus'"),
        # a key another type reads
        ({"type": "catalog", "name": "fig3.a", "args": []},
         "a catalog recipe takes no key 'args'"),
        ({"type": "direct", "factors": ["c2", "c2"], "z": 0, "kernel": "c2"},
         "a direct recipe takes no key 'kernel', 'z'"),
        # a semidirect recipe reads p only beside action_matrices, and takes
        # exactly one of the two action forms
        *[({"type": "semidirect", "kernel": "c2", "acting": "c2", **action},
           ONE_ACTION_FORM) for action in (
              {"action_images": [[[0]]], "p": "not a prime"},
              {"action_images": [[[0]]], "p": 2},
              {"action_matrices": [[[1]]], "p": 2, "action_images": [[[0]]]},
              {"action_matrices": [[[1]]]}, {})],
    ])
    def test_unknown_recipe_key(self, tmp_path, capsys, recipe, message):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"groups": {
            "x": recipe, "c2": SPEC["groups"]["c2"]}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad recipe 'x': {message}\n"

    @pytest.mark.parametrize("factors", ["xy", {"x": 1}, ["x", 2], None])
    def test_direct_factors_need_a_list_of_names(self, tmp_path, capsys,
                                                 factors):
        path = tmp_path / "factors.json"
        path.write_text(json.dumps({"groups": {
            "d": {"type": "direct", "factors": factors},
            "x": SPEC["groups"]["c2"], "y": SPEC["groups"]["k"]}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: bad recipe 'd': factors needs a list of recipe names, "
            f"got {json.dumps(factors)}\n")

    @pytest.mark.parametrize("recipe, field, what", [
        ({"type": "semidirect", "kernel": ["k"], "acting": "c2",
          "action_images": [[[0]]]}, "kernel", "a recipe name"),
        ({"type": "semidirect", "kernel": "k", "acting": {"c2": 1},
          "action_images": [[[0]]]}, "acting", "a recipe name"),
        ({"type": "catalog", "name": ["fig3.a"]}, "name", "a catalog name"),
        ({"type": "builtin", "name": ["cyclic"], "args": [2]}, "name",
         "a builtin name"),
        ({"type": "builtin", "name": None}, "name", "a builtin name"),
    ], ids=["kernel", "acting", "catalog-name", "builtin-name",
            "builtin-null"])
    def test_name_fields_take_json_strings(self, tmp_path, capsys, recipe,
                                           field, what):
        """A field read as a name (a dict key) is checked to be a string
        before it is looked up."""
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"groups": {
            "x": recipe, "k": SPEC["groups"]["k"],
            "c2": SPEC["groups"]["c2"]}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad recipe 'x': {field} needs {what}, "
            f"got {json.dumps(recipe[field])}\n")

    @pytest.mark.parametrize("groups, message", [
        ({"x": {"type": "perm", "gens": []}},
         "bad recipe 'x': a perm recipe needs key 'degree'"),
        ({"x": {"type": "semidirect", "action_images": [[[0]]]}},
         "bad recipe 'x': a semidirect recipe needs key 'acting', 'kernel'"),
        ({"x": {"type": "builtin", "name": "nosuch"}},
         "bad recipe 'x': unknown builtin 'nosuch'"),
        ({"x": {"type": "wat"}},
         'bad recipe \'x\': unknown recipe type "wat"'),
        ({"x": {"type": True}}, "bad recipe 'x': unknown recipe type true"),
        ({"x": [1]}, "bad recipe 'x': needs a type"),
        ({"x": {"type": "catalog", "name": "nope"}},
         "bad recipe 'x': no catalog entry named 'nope'"),
        ({"sd": {"type": "semidirect", "kernel": "k", "acting": "c2",
                 "action_images": [[[5]]]},
          "k": SPEC["groups"]["k"], "c2": SPEC["groups"]["c2"]},
         "bad recipe 'sd': generator index 5 is outside the valid range 0..0"),
        ({"d": {"type": "direct", "factors": ["k", "y"]},
          "k": SPEC["groups"]["k"]},
         "bad recipe 'd': undefined group name 'y'"),
        ({"a": {"type": "direct", "factors": ["b", "b"]},
          "b": {"type": "direct", "factors": ["a", "a"]}},
         "bad recipe 'b': cyclic recipe reference through 'a'"),
    ], ids=["missing-key", "missing-keys", "unknown-builtin", "unknown-type",
            "non-string-type", "no-type", "no-catalog-entry",
            "generator-index", "undefined", "cyclic"])
    def test_recipe_errors_name_their_recipe(self, tmp_path, capsys, groups,
                                             message):
        """Every recipe error names the recipe at fault, with no Python
        exception repr in it."""
        path = tmp_path / "errors.json"
        path.write_text(json.dumps({"groups": groups}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_semidirect_action_matrices_build(self, tmp_path):
        path = tmp_path / "matrices.json"
        path.write_text(json.dumps({"groups": {
            "sd": {"type": "semidirect", "kernel": "k", "acting": "c2",
                   "action_matrices": [[[2]]], "p": 3},
            "k": SPEC["groups"]["k"], "c2": SPEC["groups"]["c2"]}}))
        assert main(["analyze", str(path), "-o", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out").read_text())
        assert report["groups"]["sd"]["frobenius_kind"] == "frobenius"  # S3

    def test_every_builtin_builds(self):
        args = {"cyclic": [4], "elem_abelian": [2, 2], "dihedral": [6],
                "sym": [3], "alt": [4]}
        assert sorted(catalog.BUILTINS) == sorted(
            ["cyclic", "elem_abelian", "dihedral", "quaternion8", "sl2_3",
             "dicyclic12", "sym", "alt", "c7_c3", "c7_c6"])
        for name, build in catalog.BUILTINS.items():
            assert build is getattr(catalog, name)
            assert build(*args.get(name, [])).order > 1

    @pytest.mark.parametrize("word", [[0, -1], [0, 1]])
    def test_generator_index_out_of_range(self, tmp_path, capsys, word):
        # C3 has one generator, so 0 is the only valid index
        path = tmp_path / "word.json"
        path.write_text(json.dumps({"groups": {
            "k": {"type": "builtin", "name": "cyclic", "args": [3]},
            "c2": {"type": "builtin", "name": "cyclic", "args": [2]},
            "sd": {"type": "semidirect", "kernel": "k", "acting": "c2",
                   "action_images": [[word]]}}}))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"generator index {word[1]} is outside the valid range 0..0" in err

    @pytest.mark.parametrize("recipe, field, shown", [
        ({"type": "perm", "degree": 3.5, "gens": [[[1, 2]]]}, "degree", "3.5"),
        ({"type": "perm", "degree": "3", "gens": [[[1, 2]]]}, "degree",
         '"3"'),
        ({"type": "perm", "degree": 3, "gens": [[[True, 2]]]}, "gens", "true"),
        ({"type": "perm", "degree": 3, "gens": [[1, 2]]}, "gens", "1"),
        ({"type": "matgrp", "p": 3.0, "gens": [[[1, 1], [0, 1]]]}, "p",
         "3.0"),
        ({"type": "matgrp", "p": 3, "gens": [[[1, 0.5], [0, 1]]]}, "gens",
         "0.5"),
        ({"type": "builtin", "name": "cyclic", "args": [2.0]}, "args", "2.0"),
        ({"type": "semidirect", "kernel": "k", "acting": "k",
          "action_images": [[[0, 0.9]]]}, "action_images", "0.9"),
        ({"type": "semidirect", "kernel": "k", "acting": "k", "p": False,
          "action_matrices": [[[1]]]}, "p", "false"),
    ])
    def test_integer_fields_take_json_integers_only(self, tmp_path, capsys,
                                                    recipe, field, shown):
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"groups": {
            "g": recipe, "k": {"type": "builtin", "name": "cyclic",
                               "args": [3]}}}))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad recipe 'g': {field} needs a")
        assert err.rstrip().endswith(f"got {shown}")

    def test_cycle_repeating_a_point(self, tmp_path, capsys):
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"groups": {
            "g": {"type": "perm", "degree": 3, "gens": [[[1, 1]]]}}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: bad recipe 'g': cycle repeats a point: [1, 1]\n"

    @pytest.mark.parametrize("p", [10**24 + 7, 10**40])
    def test_modulus_beyond_primality_bound(self, tmp_path, capsys, p):
        path = tmp_path / "bigp.json"
        path.write_text(json.dumps({"groups": {
            "m": {"type": "matgrp", "p": p, "gens": [[[1, 1], [0, 1]]]}}}))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad recipe 'm': cannot decide whether "
                              f"{p} is prime")

    @pytest.mark.parametrize("spec, recipe", [
        (wide_spec(600), "w"), (wide_spec(128), "w"), (wide_spec(66), "w"),
        (chain_spec(700, top_first=True), "r0"),
        (chain_spec(700, top_first=False), "r635"),
        (chain_spec(65, top_first=False), "r0"),
        (chain_spec(65, top_first=True, kind="semidirect"), "r0"),
    ], ids=["wide-600", "wide-128", "wide-66", "chain-700-top-first",
            "chain-700-bottom-first", "chain-65", "semidirect-chain-65"])
    def test_products_nest_at_most_64_deep(self, tmp_path, capsys, spec,
                                           recipe):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad recipe {recipe!r}: products nest more than 64 deep\n")

    @pytest.mark.parametrize("spec", [
        wide_spec(65), chain_spec(64, top_first=True),
        chain_spec(64, top_first=False)], ids=["wide-65", "chain-64-top-first",
                                               "chain-64-bottom-first"])
    def test_product_depth_64_builds(self, tmp_path, spec):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(spec))
        groups = cli.load_spec(str(path))
        assert {G.order for G in groups.values()} == {1}

    @pytest.mark.parametrize("degree", [-3, 0])
    def test_perm_degree_below_one(self, tmp_path, capsys, degree):
        path = tmp_path / "degree.json"
        path.write_text(json.dumps({"groups": {
            "g": {"type": "perm", "degree": degree, "gens": [[]]}}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad recipe 'g': degree needs an integer of at least 1, "
            f"got {degree}\n")

    @pytest.mark.parametrize("recipe, message", [
        ({"type": "perm", "degree": 10**9, "gens": [[[1, 2]]]},
         "recipe 'g': degree 1000000000 exceeds cap"),
        ({"type": "builtin", "name": "elem_abelian", "args": [997, 1000]},
         "elem_abelian order 997^1000 exceeds cap"),
        ({"type": "builtin", "name": "cyclic", "args": [2**20 + 1]},
         "cyclic order 1048577 exceeds cap"),
        ({"type": "builtin", "name": "dihedral", "args": [10**12]},
         "dihedral order 1000000000000 exceeds cap")],
        ids=["perm", "elem_abelian", "cyclic", "dihedral"])
    def test_oversized_request_is_refused_before_building(
            self, tmp_path, monkeypatch, capsys, recipe, message):
        """A size past the element cap exits 3 before any point is listed:
        listing 10^9 points, or 1000 permutations on 997,000 points, would
        take gigabytes."""
        monkeypatch.delenv("GKLAB_MAX_ORDER", raising=False)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"groups": {"g": recipe}}))
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == \
            f"error: {message} {DEFAULT_CAP}\n"

    def test_empty_matrix(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"groups": {
            "m": {"type": "matgrp", "p": 2, "gens": [[]]}}}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad recipe 'm': empty matrix")

    def test_cyclic_reference(self, tmp_path):
        path = tmp_path / "cyc.json"
        path.write_text(json.dumps({"groups": {
            "a": {"type": "direct", "factors": ["b", "b"]},
            "b": {"type": "direct", "factors": ["a", "a"]}}}))
        assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("recipe, same", [
    ({"type": "builtin", "name": "sym", "args": [5]},
     {"type": "perm", "degree": 5, "gens": [[[1, 2]], [[1, 2, 3, 4, 5]]]}),
    ({"type": "catalog", "name": "fig3.c"},
     {"type": "perm", "degree": 3, "gens": [[[1, 2]], [[1, 2, 3]]]}),
], ids=["builtin-S5", "catalog-S3"])
def test_a_named_recipe_multiplies_as_its_perm_recipe(tmp_path, monkeypatch,
                                                      capsys, recipe, same):
    """A builtin or catalog recipe's group is analysed as built, with the
    rows and ids its enumeration made, so it makes as many element products
    as the permutation recipe of the same group (S5: 244, S3: 16)."""
    real, calls = el.mul, []

    def counting(a, b):
        calls.append(1)
        return real(a, b)
    monkeypatch.setattr(el, "mul", counting)  # before any group is built
    counts = []
    for r in (recipe, same):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"groups": {"g": r}}))
        del calls[:]
        assert main(["analyze", str(path)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1]


class TestGraph:
    def test_catalog_name(self, capsys):
        assert main(["graph", "fig3.l"]) == 0
        out = capsys.readouterr().out
        assert '"2" -- "3"' in out and '"7"' in out
        assert out.startswith('graph "C7 x| C6" {\n')  # the group's label

    def test_figure_p_edges(self, capsys):
        assert main(["graph", "fig3.p"]) == 0
        out = capsys.readouterr().out
        assert out.count("--") == 4

    def test_spec_member(self, spec_path, capsys):
        assert main(["graph", spec_path, "--name", "s3"]) == 0
        assert capsys.readouterr().out.startswith('graph "s3" {\n')

    # a builtin, a direct product, a catalog entry and a semidirect product
    @pytest.mark.parametrize("name", ["c2", "d", "e", "sd"])
    def test_spec_member_titles_the_graph_with_its_recipe_name(
            self, spec_path, capsys, name):
        assert main(["graph", spec_path, "--name", name]) == 0
        assert capsys.readouterr().out.startswith(f'graph "{name}" {{\n')

    def test_unknown(self, capsys):
        assert main(["graph", "fig3.zz"]) == 2

    def test_name_on_a_catalog_entry(self, capsys):
        assert main(["graph", "fig3.c", "--name", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --name applies to a spec file only\n"

    def test_unwritable_dot(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.dot"
        assert main(["graph", "fig3.a", "--dot", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err


class TestVerifyAndClassify:
    def test_verify_classifier(self, capsys):
        assert main(["verify", "classifier"]) == 0
        assert "39/39 pass" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["classifier", "figure3"])
    @pytest.mark.parametrize("option", [["--seed", "9"], ["--count", "5"],
                                        ["--max-order", "60"]])
    def test_corpus_options_on_another_suite(self, capsys, suite, option):
        """--seed, --count and --max-order drive the invariants suite alone;
        any other suite refuses them rather than dropping them."""
        assert main(["verify", suite, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --seed, --count and --max-order "
                                "apply to the invariants suite only\n")

    @pytest.mark.parametrize("argv, want", [
        ([], (1, 200, 2000)),
        (["--seed", "9", "--count", "5", "--max-order", "60"], (9, 5, 60))])
    def test_invariants_corpus_options(self, monkeypatch, argv, want):
        calls = []

        def spy(*args):
            calls.append(args)
            raise LookupError("stop after the corpus call")
        monkeypatch.setattr(verify.cat, "distinct_corpus", spy)
        with pytest.raises(LookupError):
            main(["verify", "invariants", *argv])
        assert calls == [want]

    def test_invariants_max_order_below_corpus(self, capsys):
        argv = ["verify", "invariants", "--count", "3", "--max-order", "1"]
        assert main(argv) == 2
        assert "max_order" in capsys.readouterr().err

    def test_classify_realized(self, capsys):
        assert main(["classify", "2-3", "--class", "cut"]) == 0
        assert "realized" in capsys.readouterr().out

    def test_classify_forbidden(self, capsys):
        assert main(["classify", "2,3,5", "--class", "cut"]) == 0
        assert "forbidden" in capsys.readouterr().out

    def test_classify_parse_error(self):
        assert main(["classify", "4-6", "--class", "cut"]) == 2

    @pytest.mark.parametrize("cls", ["cut", "rational"])
    def test_classify_empty_graph(self, capsys, cls):
        assert main(["classify", "", "--class", cls]) == 0
        assert capsys.readouterr().out == (
            f"(empty) [solvable-{cls}]: realized "
            "(the trivial group (empty graph))\n")

    @pytest.mark.parametrize("literal, token", [("2-3-5", "2-3-5"),
                                                ("-3", "-3"), ("2,3x", "3x")])
    def test_classify_bad_token(self, capsys, literal, token):
        assert main(["classify", literal, "--class", "cut"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: bad graph literal token {token!r}")

    @pytest.mark.parametrize("literal", ["2-1000000000000000000000007",
                                         "2,3," + "9" * 30])
    def test_classify_vertex_beyond_primality_bound(self, capsys, literal):
        assert main(["classify", literal, "--class", "cut"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot decide")


BLOCK_SYMPY = 'raise ImportError("sympy is blocked for this test")\n'


def _gklab(argv, pythonpath, cwd):
    code = "import sys; from gklab.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env={"PYTHONPATH": pythonpath,
                               "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True, timeout=120)


class TestNoSympyAtRunTime:
    def test_cli_runs_with_sympy_blocked(self, tmp_path, capsys):
        (tmp_path / "block" / "sympy").mkdir(parents=True)
        (tmp_path / "block" / "sympy" / "__init__.py").write_text(BLOCK_SYMPY)
        src = str(Path(gklab.__file__).resolve().parents[1])
        blocked = f"{tmp_path / 'block'}:{src}"
        (tmp_path / "spec.json").write_text(json.dumps(SPEC))
        runs = [["analyze", "spec.json"], ["verify", "figure3"],
                ["classify", "2-3,2-5", "--class", "cut"]]
        outputs = []
        for argv in runs:
            proc = _gklab(argv, blocked, tmp_path)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            outputs.append(proc.stdout)
        assert hashlib.sha256(outputs[0].encode()).hexdigest() == \
            SPEC_REPORT_SHA256
        for argv, out in zip(runs[1:], outputs[1:]):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_import_loads_no_sympy(self):
        src = str(Path(gklab.__file__).resolve().parents[1])
        code = "import sys, gklab; print('sympy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_runs_on_the_standard_library(self, tmp_path):
        """Importing gklab, ``verify classifier`` and ``analyze`` of a small
        spec load no top-level module but gklab and the standard library's
        beyond those a bare interpreter has loaded at start-up (such as
        site's ``_distutils_hack``)."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        src = str(Path(gklab.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "def top(): return {m.partition('.')[0] for m in sys.modules}\n"
            "base = top()\n"
            "from gklab.cli import main\n"
            "assert main(['verify', 'classifier']) == 0\n"
            "assert main(['analyze', sys.argv[1], '-o', sys.argv[2]]) == 0\n"
            "loaded = top() - base\n"
            "print('gklab' in loaded, sorted(loaded - {'gklab'}"
            " - set(sys.stdlib_module_names)), file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(spec), str(tmp_path / "out")],
            env={"PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "True []\n"), proc.stderr
