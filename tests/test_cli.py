import hashlib
import json

import pytest

from gklab import catalog, cli
from gklab.cli import main
from gklab.frobenius import SearchExhausted

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

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_max_order_env(self, spec_path, monkeypatch, capsys, value):
        monkeypatch.setenv("GKLAB_MAX_ORDER", value)
        assert main(["analyze", spec_path]) == 2
        assert "GKLAB_MAX_ORDER" in capsys.readouterr().err

    def test_search_exhausted(self, spec_path, monkeypatch, capsys):
        def exhausted(G):
            raise SearchExhausted(f"no complement found in {G.label}")
        monkeypatch.setattr(cli, "frobenius_kind", exhausted)
        assert main(["analyze", spec_path]) == 4
        assert "no complement found" in capsys.readouterr().err

    def test_pinned_report_sha256(self, tmp_path, monkeypatch):
        # the analyze bytes of SPEC, pinned before generator words were dropped
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(SPEC))
        report = cli.analysis_report(cli.load_spec("spec.json"),
                                     {"spec": "spec.json"})
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "52a6553c1ffab02bedcb11a5bd68678ec98dd6dcc1f753ec9607ef9b221356f5"

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

    @pytest.mark.parametrize("name", ["nosuch", "quaternion8_times_c3",
                                      "corpus"])
    def test_unknown_builtin(self, tmp_path, capsys, name):
        # only the catalog's registered builders are builtins
        path = tmp_path / "builtin.json"
        path.write_text(json.dumps({"groups": {
            "g": {"type": "builtin", "name": name, "args": []}}}))
        assert main(["analyze", str(path)]) == 2
        assert f"unknown builtin {name!r}" in capsys.readouterr().err

    def test_every_builtin_builds(self):
        args = {"cyclic": [4], "elem_abelian": [2, 2], "dihedral": [6],
                "sym": [3], "alt": [4]}
        assert sorted(catalog.BUILTINS) == sorted(
            ["cyclic", "elem_abelian", "dihedral", "quaternion8", "sl2_3",
             "dicyclic12", "sym", "alt", "c7_c3", "c7_c6"])
        for name, build in catalog.BUILTINS.items():
            assert build is getattr(catalog, name)
            assert build(*args.get(name, [])).order > 1

    def test_cyclic_reference(self, tmp_path):
        path = tmp_path / "cyc.json"
        path.write_text(json.dumps({"groups": {
            "a": {"type": "direct", "factors": ["b", "b"]},
            "b": {"type": "direct", "factors": ["a", "a"]}}}))
        assert main(["analyze", str(path)]) == 2


class TestGraph:
    def test_catalog_name(self, capsys):
        assert main(["graph", "fig3.l"]) == 0
        out = capsys.readouterr().out
        assert '"2" -- "3"' in out and '"7"' in out

    def test_figure_p_edges(self, capsys):
        assert main(["graph", "fig3.p"]) == 0
        out = capsys.readouterr().out
        assert out.count("--") == 4

    def test_spec_member(self, spec_path, capsys):
        assert main(["graph", spec_path, "--name", "s3"]) == 0
        assert "graph" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["graph", "fig3.zz"]) == 2

    def test_unwritable_dot(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.dot"
        assert main(["graph", "fig3.a", "--dot", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err


class TestVerifyAndClassify:
    def test_verify_classifier(self, capsys):
        assert main(["verify", "classifier"]) == 0
        assert "39/39 pass" in capsys.readouterr().out

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
