import re

import pytest
from hypothesis import given, strategies as st

from gklab import catalog
from gklab.groups import direct_product
from gklab.primegraph import (FIGURE_GRAPHS, FORBIDDEN, OPEN, REALIZED,
                              SOLVABLE_CUT, SOLVABLE_RATIONAL, NonPrimeVertex,
                              PrimeGraph, classify, component_diameters,
                              components, gk_graph, higman_check,
                              lemma_edge_implications, parse_graph_literal,
                              product_graph, to_dot)


class TestGkGraph:
    def test_s3(self, s3):
        g = gk_graph(s3)
        assert g.vertices == (2, 3) and g.edges == ()

    def test_c6_has_edge(self):
        g = gk_graph(catalog.cyclic(6))
        assert g.edges == ((2, 3),)

    def test_twofrob_l_graph(self):
        G = catalog.catalog_entry("twofrob.l").build()
        assert gk_graph(G) == FIGURE_GRAPHS["l"]


class TestCombinatorics:
    def test_components_of_l(self):
        assert sorted(map(sorted, components(FIGURE_GRAPHS["l"]))) == [[2, 3], [7]]

    def test_single_vertex(self):
        g = PrimeGraph.make([5], [])
        assert components(g) == [frozenset({5})]
        assert component_diameters(g) == [0]

    def test_figure_p_diameter(self):
        assert component_diameters(FIGURE_GRAPHS["p"]) == [2]

    def test_higman(self):
        assert higman_check(FIGURE_GRAPHS["h"])
        assert higman_check(PrimeGraph.make([2, 3, 5], [(2, 3), (2, 5), (3, 5)]))
        assert not higman_check(PrimeGraph.make([2, 3, 5], []))

    def test_edge_implications(self):
        good = PrimeGraph.make([2, 3, 5, 7], [(5, 7), (2, 3), (2, 7), (3, 5)])
        assert lemma_edge_implications(good)
        assert lemma_edge_implications(PrimeGraph.make([], []))
        assert not lemma_edge_implications(PrimeGraph.make([3, 7], [(3, 7)]))


class TestClassify:
    def test_d_realized(self):
        v = classify(parse_graph_literal("2-3"), SOLVABLE_CUT)
        assert v.status == REALIZED and "(d)" in v.citation

    def test_question_b_open(self):
        v = classify(parse_graph_literal("2-3,2-5"), SOLVABLE_RATIONAL)
        assert v.status == OPEN

    def test_three_isolated_forbidden(self):
        v = classify(parse_graph_literal("2,3,5"), SOLVABLE_CUT)
        assert v.status == FORBIDDEN

    def test_non_prime_vertex(self):
        with pytest.raises(NonPrimeVertex):
            classify(PrimeGraph.make([4], []), SOLVABLE_CUT)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            classify(FIGURE_GRAPHS["a"], "nilpotent")
        with pytest.raises(ValueError, match="unknown class"):
            classify(PrimeGraph.make([], []), "nilpotent")

    @pytest.mark.parametrize("cls", [SOLVABLE_CUT, SOLVABLE_RATIONAL])
    def test_empty_graph_is_the_trivial_groups(self, cls):
        v = classify(parse_graph_literal(""), cls)
        assert v.status == REALIZED and "trivial group" in v.citation


class TestProductGraph:
    def test_s3_times_c2(self, s3):
        got = product_graph(gk_graph(s3), gk_graph(catalog.cyclic(2)))
        assert got == FIGURE_GRAPHS["d"]

    def test_with_empty(self, s3):
        assert product_graph(gk_graph(s3), PrimeGraph.make([], [])) == gk_graph(s3)

    def test_matches_direct_product(self, s3, c7c3):
        prod = direct_product(s3, c7c3)
        assert gk_graph(prod) == product_graph(gk_graph(s3), gk_graph(c7c3))

    def test_figure_p(self, c7c3):
        e = catalog.catalog_entry("fig3.e").build()
        assert product_graph(gk_graph(e), gk_graph(c7c3)) == FIGURE_GRAPHS["p"]


PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def prime_graphs(draw):
    verts = draw(st.sets(st.sampled_from(PRIMES), min_size=1, max_size=5))
    verts = sorted(verts)
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return PrimeGraph.make(verts, edges)


class TestLiteralsAndDot:
    @given(prime_graphs())
    def test_literal_roundtrip(self, g):
        assert parse_graph_literal(g.literal()) == g

    @pytest.mark.parametrize("text, literal", [
        ("", ""), (" , ", ""), ("2-3,,5", "2-3,5"), (" 5 ,3 - 2,", "2-3,5"),
        ("7,7,2-7", "2-7")])
    def test_literal_grammar(self, text, literal):
        assert parse_graph_literal(text).literal() == literal

    @pytest.mark.parametrize("text, token", [
        ("2-3-5", "2-3-5"), ("-3", "-3"), ("3-", "3-"), ("2,x", "x"),
        ("2--3", "2--3"), ("+3", "+3"), ("1_1", "1_1"), ("\u0663", "\u0663"),
        ("3.0", "3.0"),
        # past int()'s digit limit (4,300 by default)
        pytest.param("2-" + "7" * 5000, "2-" + "7" * 5000, id="5000-digits")])
    def test_literal_bad_token_is_named(self, text, token):
        with pytest.raises(ValueError, match=f"bad graph literal token "
                                             f"{re.escape(repr(token))}"):
            parse_graph_literal(text)

    def test_parse_rejects_non_prime(self):
        with pytest.raises(NonPrimeVertex):
            parse_graph_literal("4-6")

    def test_dot_roundtrip_through_literal(self):
        g = FIGURE_GRAPHS["l"]
        dot = to_dot(g)
        edges = [line.strip().strip(";").replace('"', "").replace(" -- ", "-")
                 for line in dot.splitlines() if "--" in line]
        verts = [line.strip().strip(";").strip('"')
                 for line in dot.splitlines()
                 if line.strip().endswith(";") and "--" not in line]
        literal = ",".join(edges + [v for v in verts
                                    if all(v not in e.split("-") for e in edges)])
        assert parse_graph_literal(literal) == g

    def test_dot_escapes_quotes_and_backslashes_in_the_name(self):
        dot = to_dot(FIGURE_GRAPHS["a"], 's3 "odd" \\')
        assert dot == 'graph "s3 \\"odd\\" \\\\" {\n  "2";\n}\n'

    def test_dot_bytes_of_plain_names_unchanged(self):
        # the bytes `gklab graph fig3.l` printed before names were escaped
        names = [e.name for e in catalog.catalog()] + [
            "gk", "C7 x| C6", "C2^6 x| (C7 x| C6)", "SL(2,3)"]
        for name in names:
            assert to_dot(FIGURE_GRAPHS["l"], name) == (
                f'graph "{name}" {{\n  "2";\n  "3";\n  "7";\n'
                '  "2" -- "3";\n}\n')
