"""The benchmark's workloads: pinned input frames, one timed operation each,
and the outputs every operation is checked against (``goldens.json``).

Every call into gklab goes through a module attribute (``groups.direct_product``,
never a name imported into this file), so the wrappers that ``tracing``
installs on those modules see these calls too.

Input frames are pinned: the seed only orders the operations (analyze-catalog
ignores it).  A corpus drawn from the seed itself changes the work of a run
by up to 60% between seeds, which no bound of the benchmark could absorb; see
NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import random

from gklab import catalog, cli, groups, primegraph, rationality, structure, verify

# Pinned frames per size.  "full" is what the benchmark measures; "tiny" is
# for the smoke test.  Every operation a frame yields has a golden.
FRAMES = {
    "analyze-catalog": {
        "full": {"names": ["twofrob.l", "fig3.q", "fig3.p"]},
        "tiny": {"names": ["fig3.c", "fig3.g", "twofrob.c"]},
    },
    # The `gklab verify invariants` default traffic (seed 1, max order 2000),
    # cut from 200 to 40 draws so that one pass fits the run length.
    "corpus-verify": {
        "full": {"seed": 1, "count": 40, "max_order": 2000},
        "tiny": {"seed": 1, "count": 12, "max_order": 60},
    },
    # Seed 2 of the pair sampler, whose 24 pairs include the two known
    # product_cut_predicate mismatches (C6 x Q8 x C6 x Q8 and one of order
    # 4608): every run counts them.
    "product-pairs": {
        "full": {"seed": 2, "count": 200, "max_order": 2000,
                 "product_cap": 12000, "pairs": 24},
        "tiny": {"seed": 2, "count": 30, "max_order": 24,
                 "product_cap": 200, "pairs": 4},
    },
}


def distinct_corpus(seed: int, count: int, max_order: int) -> list:
    """Distinct corpus groups by label, first occurrence kept, label order."""
    distinct = {}
    for G in catalog.corpus(seed, count, max_order):
        distinct.setdefault(G.label, G)
    return [distinct[label] for label in sorted(distinct)]


class Workload:
    """Inputs of a frame, one operation, and the outputs goldens pin."""

    name = ""
    pinned: tuple[str, ...] = ()

    def inputs(self, frame: dict, seed: int) -> list:
        """[(golden key, operation arguments)], freshly built."""
        raise NotImplementedError

    def run(self, *args) -> dict:
        raise NotImplementedError

    def golden(self, out: dict) -> dict:
        return {k: out[k] for k in self.pinned}

    def check(self, out: dict, golden: dict) -> list[str]:
        return [f"{k} {out[k]!r} != {golden[k]!r}"
                for k in self.pinned if out[k] != golden[k]]

    def known_defect(self, out: dict) -> bool:
        return False


class AnalyzeCatalog(Workload):
    """Build a pinned catalog group and produce its `gklab analyze` bytes."""

    name = "analyze-catalog"
    pinned = ("sha256",)

    def inputs(self, frame: dict, seed: int) -> list:
        return [(name, (name,)) for name in frame["names"]]

    def run(self, name: str) -> dict:
        G = catalog.catalog_entry(name).build()
        report = cli.analysis_report({name: G}, {"catalog": name})
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


class CorpusVerify(Workload):
    """`verify._check_group_invariants` on each distinct corpus group."""

    name = "corpus-verify"
    pinned = ("violations", "cut", "rational", "solvable")

    def inputs(self, frame: dict, seed: int) -> list:
        ops = [(G.label, (G,)) for G in
               distinct_corpus(frame["seed"], frame["count"], frame["max_order"])]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, G) -> dict:
        violations = verify._check_group_invariants(G)
        # memo hits on what the check just computed
        return {"violations": violations,
                "cut": rationality.is_cut_group(G),
                "rational": rationality.is_rational_group(G),
                "solvable": structure.is_solvable(G)}


class ProductPairs(Workload):
    """Direct product of a sampled pair of cut corpus groups, checked by the
    direct cut verdict, the product-cut predicate and the product-graph law."""

    name = "product-pairs"
    # predicted_cut is deliberately not pinned: it is compared with the
    # direct verdict instead (known_defect), so a fix reads as a fix.
    pinned = ("order", "cut", "graph")

    def inputs(self, frame: dict, seed: int) -> list:
        cut = [G for G in
               distinct_corpus(frame["seed"], frame["count"], frame["max_order"])
               if rationality.is_cut_group(G)]
        pairs = [(a, b) for i, a in enumerate(cut) for b in cut[i:]
                 if a.order * b.order <= frame["product_cap"]]
        sample = random.Random(frame["seed"]).sample(
            pairs, min(frame["pairs"], len(pairs)))
        ops = [(f"{a.label} ; {b.label}", (a, b)) for a, b in sample]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, a, b) -> dict:
        P = groups.direct_product(a, b)
        graph = primegraph.gk_graph(P)
        law = primegraph.product_graph(primegraph.gk_graph(a),
                                       primegraph.gk_graph(b))
        return {"order": P.order,
                "cut": rationality.is_cut_group(P),
                "predicted_cut": rationality.product_cut_predicate(a, b),
                "graph": graph.literal(),
                "graph_law": graph == law}

    def check(self, out: dict, golden: dict) -> list[str]:
        bad = super().check(out, golden)
        if not out["graph_law"]:
            bad.append("gk_graph differs from product_graph")
        return bad

    def known_defect(self, out: dict) -> bool:
        return out["predicted_cut"] != out["cut"]


WORKLOADS = {w.name: w for w in (AnalyzeCatalog(), CorpusVerify(), ProductPairs())}
