import hashlib
from dataclasses import fields, replace

import pytest

from gklab import catalog
from gklab import elements as el
from gklab.groups import (direct_factors, element_orders_multiset,
                          enumerate_group)
from gklab.primegraph import FIGURE_GRAPHS, gk_graph, product_graph
from gklab.rationality import is_cut_group
from gklab.structure import is_solvable


class TestBuilders:
    def test_cyclic(self):
        assert catalog.cyclic(1).order == 1
        assert catalog.cyclic(1).label == "C1"
        assert catalog.cyclic(6).order == 6
        with pytest.raises(catalog.OutOfRange):
            catalog.cyclic(0)

    def test_elem_abelian(self):
        G = catalog.elem_abelian(3, 2)
        assert G.order == 9
        from gklab.structure import exponent
        assert exponent(G) == 3

    @pytest.mark.parametrize("p", [4, 1, 0, -5, 9])
    def test_elem_abelian_needs_a_prime(self, p):
        with pytest.raises(catalog.OutOfRange, match="prime p"):
            catalog.elem_abelian(p, 2)

    def test_dihedral(self):
        assert catalog.dihedral(8).order == 8
        with pytest.raises(catalog.OutOfRange):
            catalog.dihedral(7)

    def test_quaternion8(self, q8):
        assert q8.order == 8

    def test_sl2_3(self):
        G = catalog.sl2_3()
        assert G.order == 24
        from gklab.groups import element_order
        assert sum(1 for g in G.elements if element_order(G, g) == 2) == 1

    def test_sym_alt(self):
        assert catalog.sym(5).order == 120
        assert catalog.alt(4).order == 12
        assert catalog.alt(6).order == 360
        with pytest.raises(catalog.OutOfRange):
            catalog.sym(7)
        with pytest.raises(catalog.OutOfRange):
            catalog.alt(2)

    def test_dicyclic12(self):
        assert catalog.dicyclic12().order == 12


class TestCompanionMatrices:
    def test_a_mod_2_has_order_7(self):
        mats = catalog.companion_matrices()
        A = el.mat(2, mats["A"])
        G = enumerate_group([A])
        assert G.order == 7

    def test_c_d_mod_2_give_s3(self):
        mats = catalog.companion_matrices()
        G = enumerate_group([el.mat(2, mats["C"]), el.mat(2, mats["D"])])
        assert G.order == 6

    def test_e_f_mod_2_give_order_20(self):
        mats = catalog.companion_matrices()
        G = enumerate_group([el.mat(2, mats["E"]), el.mat(2, mats["F"])])
        assert G.order == 20


class TestCatalog:
    def test_entry_count(self):
        entries = catalog.catalog()
        assert len(entries) == 22
        assert sum(1 for e in entries if e.name.startswith("fig3.")) == 18
        assert sum(1 for e in entries if e.name.startswith("twofrob.")) == 4

    def test_names_unique(self):
        names = [e.name for e in catalog.catalog()]
        assert len(set(names)) == len(names)

    def test_shaded_entries_rational(self):
        shaded = {"fig3." + c for c in "acdefk"}
        for e in catalog.catalog():
            if e.name.startswith("fig3."):
                assert e.is_rational == (e.name in shaded)

    def test_entries_name_the_figure_letter_they_realize(self):
        for e in catalog.catalog():
            assert e.figure in FIGURE_GRAPHS, e.name
            if e.name.startswith("fig3."):
                assert e.name == f"fig3.{e.figure}"
        recorded = {f.name for f in fields(catalog.CatalogEntry)}
        assert not recorded & {"graph_literal", "is_cut"}

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            catalog.catalog_entry("fig3.z")

    def test_small_entries_build(self):
        for name in ("fig3.a", "fig3.c", "fig3.g", "fig3.l", "twofrob.c"):
            e = catalog.catalog_entry(name)
            assert e.build().order == e.order

    def test_verify_rows_check_every_recorded_fact(self, monkeypatch):
        from gklab import verify
        entries = catalog.catalog
        wrong = {"fig3.c": {"frobenius_kind": "none"},  # S3 is Frobenius
                 "twofrob.c": {"is_rational": False}}  # S4 is rational

        def tampered():
            return [replace(e, **wrong.get(e.name, {})) for e in entries()]

        monkeypatch.setattr(catalog, "catalog", tampered)
        rows = verify.suite_figure3() + verify.suite_twofrobenius()
        failed = {name: detail for name, ok, detail in rows if not ok}
        assert set(failed) == set(wrong)
        assert "kind" in failed["fig3.c"]
        assert "rational" in failed["twofrob.c"]

    def test_product_entries_obey_the_product_graph_law(self):
        """A figure entry built as A x B has the graph of A joined to B's."""
        products = set()
        for e in catalog.catalog():
            factors = direct_factors(e.build())
            if factors is not None:
                products.add(e.figure)
                A, B = factors
                assert FIGURE_GRAPHS[e.figure] == product_graph(
                    gk_graph(A), gk_graph(B)), e.name
        assert products == set("dfijkmnopqr")

    def test_figure_rows_check_the_classifier_table(self, monkeypatch):
        from gklab import verify
        monkeypatch.setitem(FIGURE_GRAPHS, "q", FIGURE_GRAPHS["r"])
        failed = {name: detail for name, ok, detail in verify.suite_figure3()
                  if not ok}
        assert failed == {"fig3.q": "graph 2-3,2-5,2-7,3-5,5-7 != "
                                    "2-3,2-5,2-7,3-5,3-7,5-7"}


class TestCorpus:
    def test_deterministic(self):
        a = [g.label for g in catalog.corpus(1, 30, 500)]
        b = [g.label for g in catalog.corpus(1, 30, 500)]
        assert a == b

    def test_max_order_respected(self):
        assert all(g.order <= 300 for g in catalog.corpus(7, 25, 300))

    def test_count(self):
        assert len(catalog.corpus(2, 17, 1000)) == 17

    def test_max_order_below_every_pool_group(self):
        with pytest.raises(catalog.OutOfRange, match="max_order"):
            catalog.corpus(1, 3, 1)

    def test_pinned_solvable_cut_count(self):
        # regression constant measured once for the standard corpus call
        groups = catalog.corpus(1, 200, 2000)
        distinct = catalog.distinct_corpus(1, 200, 2000)
        per_label = {lbl: is_solvable(g) and is_cut_group(g)
                     for lbl, g in distinct.items()}
        count = sum(1 for g in groups if per_label[g.label])
        assert count == 124
        assert count >= 50

    def test_c7_c6_label_is_the_permutation_group(self):
        """Two pool builders label their group C7 x| C6; the standard
        corpus keeps the 7-point permutation group ``c7_c6`` builds, not the
        sweep row's semidirect product, so a dedupe that swaps them fails
        here."""
        G = catalog.distinct_corpus(1, 200, 2000)["C7 x| C6"]
        perm = catalog.c7_c6()
        assert G.generators == perm.generators
        assert all(x[0] == "P" and len(x[1]) == 7 for x in G.generators)
        assert G.ordered == perm.ordered


# sha256 of one line per group that catalog builds: every catalog entry,
# every corpus pool builder and every sweep builder, by label, order,
# generators and sorted element order counts.
CONSTRUCTIONS_SHA256 = (
    "77bdbbe4001d408b9e9bf8c82f188701ca92252f8011cdb5c6fa29af766e1473")


def test_every_construction_is_pinned():
    builders = ([e.build for e in catalog.catalog()] + catalog._corpus_pool()
                + [build for _, _, build in catalog.frobenius_family_sweep()])
    lines = []
    for build in builders:
        G = build()
        lines.append(repr((G.label, G.order, tuple(G.generators),
                           sorted(element_orders_multiset(G).items()))) + "\n")
    assert len(lines) == 82
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == CONSTRUCTIONS_SHA256
