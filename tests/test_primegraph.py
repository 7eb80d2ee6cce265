import hashlib
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gklab import catalog, primegraph
from gklab.groups import direct_product
from gklab.primegraph import (CUT_SPECTRA, FIGURE_GRAPHS, FORBIDDEN, OPEN,
                              REALIZED, SOLVABLE_CUT, SOLVABLE_RATIONAL,
                              NonPrimeVertex, PrimeGraph, classify,
                              component_diameters, components, gk_graph,
                              higman_check, lemma_edge_implications,
                              parse_graph_literal, product_graph, to_dot)
from gklab.verify import _check_group_invariants


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


FALLBACK = "not among the realizable or open classification entries"
SPECTRUM = "prime spectrum not among those of solvable cut groups"
# sha256 of the sorted census lines below, with every SPECTRUM citation read
# as FALLBACK: the census the classifier gave before it read CUT_SPECTRA
CENSUS_SHA256 = (
    "0ed5a3bd6ba8b4b135d78f0fca387a723033cb80a5299ea11375f655bdf03200")


def _census() -> dict[tuple[str, str], tuple[str, str]]:
    """(literal, class) -> (status, citation) for every graph whose vertices
    lie in {2, 3, 5, 7}, the empty graph included: 113 graphs."""
    out = {}
    for n in range(5):
        for vertices in combinations([2, 3, 5, 7], n):
            pairs = list(combinations(vertices, 2))
            for k in range(len(pairs) + 1):
                for edges in combinations(pairs, k):
                    g = PrimeGraph.make(vertices, edges)
                    for cls in (SOLVABLE_CUT, SOLVABLE_RATIONAL):
                        v = classify(g, cls)
                        out[g.literal(), cls] = (v.status, v.citation)
    return out


class TestCensus:
    def test_spectra_outside_the_list_cite_it(self):
        census = _census()
        assert len(census) == 2 * 113
        for (literal, cls), (status, citation) in census.items():
            if not literal:  # the trivial group's, realized by its own rule
                continue
            outside = set(parse_graph_literal(literal).vertices) not in CUT_SPECTRA
            if status != FORBIDDEN:
                assert not outside, (literal, cls)
            elif citation in (FALLBACK, SPECTRUM):
                assert (citation == SPECTRUM) == outside, (literal, cls)

    def test_citations(self):
        census = _census()
        cited = {(cls, c): sorted(lit for (lit, k), (_, cit) in census.items()
                                  if k == cls and cit == c)
                 for cls in (SOLVABLE_CUT, SOLVABLE_RATIONAL)
                 for c in (FALLBACK, SPECTRUM)}
        assert cited == {
            (SOLVABLE_CUT, FALLBACK): sorted([
                "2-5,3", "2-3,2-5,3-5,7", "2-3,2-7,3-5", "2-3,2-5,3-7",
                "2-3,2-7,3-7,5", "2-3,2-5,2-7,3-7", "2-3,2-5,3-5,3-7"]),
            (SOLVABLE_CUT, SPECTRUM): sorted([
                "5", "7", "2,7", "3,5", "5,7", "2-5,7"]),
            (SOLVABLE_RATIONAL, FALLBACK): sorted([
                "3", "2-3,5", "2-5,3", "2-3,3-5"]),
            (SOLVABLE_RATIONAL, SPECTRUM): sorted(["5", "3,5"])}
        statuses = Counter((cls, status) for (_, cls), (status, _)
                           in census.items())
        assert statuses == {(SOLVABLE_CUT, REALIZED): 19,
                            (SOLVABLE_CUT, OPEN): 4,
                            (SOLVABLE_CUT, FORBIDDEN): 90,
                            (SOLVABLE_RATIONAL, REALIZED): 7,
                            (SOLVABLE_RATIONAL, OPEN): 1,
                            (SOLVABLE_RATIONAL, FORBIDDEN): 105}
        lines = sorted(f"{lit}\t{cls}\t{status}\t"
                       f"{FALLBACK if cit == SPECTRUM else cit}\n"
                       for (lit, cls), (status, cit) in census.items())
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == CENSUS_SHA256

    def test_verify_reads_the_classifiers_spectrum_list(self, monkeypatch):
        S3 = catalog.sym(3)
        assert _check_group_invariants(S3) == []
        monkeypatch.setattr(primegraph, "CUT_SPECTRA",
                            [s for s in CUT_SPECTRA if s != {2, 3}])
        assert _check_group_invariants(S3) == [
            "spectrum [2, 3] not in the allowed list"]

    @pytest.mark.parametrize("build", [catalog.cyclic, catalog.sym])
    def test_trivial_group_breaks_no_invariant(self, build):
        assert _check_group_invariants(build(1)) == []


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
