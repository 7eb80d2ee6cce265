"""Gruenberg-Kegel graphs: construction, combinatorics, theorem classifier.

Graphs are value types: sorted prime vertices, sorted unordered edges.
Components and diameters share one breadth-first search (``_distances``).
``parse_graph_literal`` reads the ``p``/``p-q`` literal grammar and
``to_dot`` writes DOT, escaping ``\\`` and ``"`` in the graph name.

This module is the one record of the classification:

* Figure 3, entries (a)-(v): each entry's graph as a literal
  (``FIGURE_GRAPHS``, parsed at import), and which letters are realized or
  open for solvable cut and for solvable rational groups (``CUT_REALIZED``,
  ``CUT_OPEN``, ``RATIONAL_REALIZED``, ``RATIONAL_OPEN``, gathered with
  their citations in ``FIGURE_VERDICTS``);
* the prime spectra a solvable group may have: a cut group's is one of the
  nine sets of ``CUT_SPECTRA``, the trivial group's empty one included, all
  inside {2,3,5,7} (``CUT_PRIMES``), and a rational group's lies inside
  {2,3,5} (``RATIONAL_PRIMES``).
  ``verify invariants`` checks built groups against these same constants.

``classify`` matches literal prime labels (vertex 5 vs 7 matters), never
abstract graph shapes.  The empty graph is the trivial group's, realized for
both classes; a figure entry is realized or ``open`` as its letter says; any
other graph is forbidden, citing the first rule it breaks: the spectrum
bounds, the three-primes lemma, the edge implications, then the spectrum
list (every rational group is cut), and else that it is no figure entry.
``CLASSES`` names the two classes on the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .groups import GroupHandle, element_orders_multiset
from .numtheory import isprime

SOLVABLE_CUT = "solvable-cut"
SOLVABLE_RATIONAL = "solvable-rational"
CLASSES = {"cut": SOLVABLE_CUT, "rational": SOLVABLE_RATIONAL}  # by CLI name

REALIZED = "realized"
FORBIDDEN = "forbidden"
OPEN = "open"

_TOKEN = re.compile(r"([0-9]+)(?:-([0-9]+))?")  # a graph literal's p or p-q


class NonPrimeVertex(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PrimeGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(vertices, edges) -> "PrimeGraph":
        vs = set(vertices)
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            vs.update((a, b))
            es.add((min(a, b), max(a, b)))
        return PrimeGraph(tuple(sorted(vs)), tuple(sorted(es)))

    def literal(self) -> str:
        """Canonical edge-list literal, isolated vertices appended."""
        used = {v for e in self.edges for v in e}
        parts = [f"{a}-{b}" for a, b in self.edges]
        parts += [str(v) for v in self.vertices if v not in used]
        return ",".join(parts)


@dataclass(frozen=True)
class TheoremVerdict:
    class_queried: str
    status: str
    citation: str


def parse_graph_literal(text: str) -> PrimeGraph:
    """Parse literals like "2-3,2-5,7": comma-separated tokens, each ``p``
    (a vertex) or ``p-q`` (an edge) in decimal digits.  Spaces are ignored,
    empty tokens skipped, and any other token, or one with more digits than
    ``int()`` converts, is a ValueError naming it."""
    vertices: set[int] = set()
    edges = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        m = _TOKEN.fullmatch(part)
        if m is None:
            raise ValueError(f"bad graph literal token {part!r}: expected "
                             "p or p-q, in decimal digits")
        try:
            ends = [int(x) for x in m.groups() if x is not None]
        except ValueError:  # int()'s digit limit, far above PRIMALITY_BOUND
            raise ValueError(f"bad graph literal token {part!r}: too many "
                             "digits") from None
        if len(ends) == 1:
            vertices.add(ends[0])
        else:
            edges.append(tuple(ends))
    graph = PrimeGraph.make(vertices, edges)
    if any(not isprime(v) for v in graph.vertices):
        raise NonPrimeVertex(f"non-prime vertex in {graph.vertices}")
    return graph


# Figure 3, entries (a)-(v): the literal prime-labeled graphs of the
# classification, in parse_graph_literal's grammar, parsed once at import.
FIGURE_GRAPHS: dict[str, PrimeGraph] = {
    letter: parse_graph_literal(text) for letter, text in {
        "a": "2",
        "b": "3",
        "c": "2,3",
        "d": "2-3",
        "e": "2,5",
        "f": "2-5",
        "g": "3,7",
        "h": "2-3,5",
        "i": "2-3,2-5",
        "j": "2-3,3-5",
        "k": "2-3,2-5,3-5",
        "l": "2-3,7",
        "m": "2-3,2-7",
        "n": "2-3,3-7",
        "o": "2-3,2-7,3-7",
        "p": "2-3,2-7,3-5,5-7",
        "q": "2-3,2-5,2-7,3-5,5-7",
        "r": "2-3,2-5,2-7,3-5,3-7,5-7",
        "s": "2-3,2-7,3-5,3-7",
        "t": "2-3,2-5,2-7,3-5",
        "u": "2-3,2-7,3-5,3-7,5-7",
        "v": "2-3,2-5,2-7,3-5,3-7",
    }.items()}

CUT_REALIZED = "abcdefghijklmnopqr"
CUT_OPEN = "stuv"
RATIONAL_REALIZED = "acdefk"
RATIONAL_OPEN = "i"

# class -> figure letter -> (status, citation); "{}" takes the letter
FIGURE_VERDICTS = {
    SOLVABLE_CUT: {
        **dict.fromkeys(CUT_REALIZED, (REALIZED, "figure entry ({})")),
        **dict.fromkeys(CUT_OPEN, (
            OPEN, "open question on four-vertex graphs ({})"))},
    SOLVABLE_RATIONAL: {
        **dict.fromkeys(RATIONAL_REALIZED, (REALIZED, "figure entry ({})")),
        **dict.fromkeys(RATIONAL_OPEN, (
            OPEN, "open question: 3-2-5 for rational groups"))},
}

# the prime spectra of solvable cut groups, the trivial group's included; a
# rational group's lies in RATIONAL_PRIMES
CUT_SPECTRA = [set(), {2}, {3}, {2, 3}, {2, 5}, {3, 7},
               {2, 3, 5}, {2, 3, 7}, {2, 3, 5, 7}]
CUT_PRIMES = set().union(*CUT_SPECTRA)
RATIONAL_PRIMES = {2, 3, 5}


def gk_graph(G: GroupHandle) -> PrimeGraph:
    """Vertices: primes among element orders; edge p-q iff an order-pq element exists."""
    orders = set(element_orders_multiset(G))
    vertices = sorted(n for n in orders if isprime(n))
    edges = [(p, q) for p, q in combinations(vertices, 2) if p * q in orders]
    return PrimeGraph.make(vertices, edges)


def _adjacency(graph: PrimeGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _distances(adj: dict[int, set[int]], src: int) -> dict[int, int]:
    """Breadth-first distance from src to every vertex of its component."""
    dist = {src: 0}
    queue = [src]
    for x in queue:  # grows while it is read: a breadth-first search
        for w in adj[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def components(graph: PrimeGraph) -> list[frozenset[int]]:
    adj = _adjacency(graph)
    comps: list[frozenset[int]] = []
    for v in graph.vertices:
        if not any(v in c for c in comps):
            comps.append(frozenset(_distances(adj, v)))
    return comps


def component_diameters(graph: PrimeGraph) -> list[int]:
    adj = _adjacency(graph)
    return [max(max(_distances(adj, src).values()) for src in comp)
            for comp in components(graph)]


def lemma_edge_implications(graph: PrimeGraph) -> bool:
    """Edge constraints for GK-graphs of cut groups."""
    es = set(graph.edges)
    first = (not ({(2, 7), (3, 5), (3, 7), (5, 7)} & es)) or (2, 3) in es
    second = (5, 7) not in es or ((2, 7) in es and (3, 5) in es)
    return first and second


def higman_check(graph: PrimeGraph) -> bool:
    """Every 3 vertices span at least one edge (solvable groups)."""
    es = set(graph.edges)
    return all(any((min(a, b), max(a, b)) in es
                   for a, b in combinations(triple, 2))
               for triple in combinations(graph.vertices, 3))


def classify(graph: PrimeGraph, class_queried: str) -> TheoremVerdict:
    """Where the classification puts graph; the empty graph is the trivial
    group's, realized for both classes."""
    if any(not isprime(v) for v in graph.vertices):
        raise NonPrimeVertex(f"non-prime vertex in {graph.vertices}")
    if class_queried not in FIGURE_VERDICTS:
        raise ValueError(f"unknown class {class_queried!r}")
    if not graph.vertices:
        return TheoremVerdict(class_queried, REALIZED,
                              "the trivial group (empty graph)")
    match = next((name for name, g in FIGURE_GRAPHS.items() if g == graph), None)
    if (entry := FIGURE_VERDICTS[class_queried].get(match)) is not None:
        status, citation = entry
        return TheoremVerdict(class_queried, status, citation.format(match))
    return TheoremVerdict(class_queried, FORBIDDEN, _forbidden_citation(
        graph, rational=class_queried == SOLVABLE_RATIONAL))


def _forbidden_citation(graph: PrimeGraph, rational: bool = False) -> str:
    spectrum = set(graph.vertices)
    if rational and not spectrum <= RATIONAL_PRIMES:
        return "prime spectrum of a solvable rational group lies in {2,3,5}"
    if not spectrum <= CUT_PRIMES:
        return "prime spectrum of a solvable cut group lies in {2,3,5,7}"
    if not higman_check(graph):
        return "three mutually non-adjacent vertices (three-primes lemma)"
    if not lemma_edge_implications(graph):
        return "edge implication constraints for cut groups"
    if spectrum not in CUT_SPECTRA:  # a rational group is cut
        return "prime spectrum not among those of solvable cut groups"
    return "not among the realizable or open classification entries"


def product_graph(g1: PrimeGraph, g2: PrimeGraph) -> PrimeGraph:
    """GK-graph of a direct product: union plus all cross edges."""
    edges = set(g1.edges) | set(g2.edges)
    edges.update((min(p, q), max(p, q))
                 for p in g1.vertices for q in g2.vertices if p != q)
    return PrimeGraph.make(set(g1.vertices) | set(g2.vertices), edges)


def to_dot(graph: PrimeGraph, name: str = "gk") -> str:
    """DOT text of graph, named by name with its \\ and " escaped."""
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{quoted}" {{']
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for a, b in graph.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
