"""An ``analyze`` report never contradicts itself.

Specs are drawn from builtin recipes, the trivial group included, and from
direct products of them.  Each group's report must satisfy the laws its own
fields imply:

* a rational group is cut;
* a solvable cut group's GK graph is not ``forbidden`` for the cut class,
  and a solvable rational group's is not ``forbidden`` for the rational
  class (the classification is a theorem about such groups);
* the ``element_orders`` counts sum to the order;
* the graph's vertices are exactly the primes among the element orders;
* the graph literal parses back to the same graph;
* the ``sylow_orders`` multiply to the order.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from gklab.cli import analysis_report, load_spec
from gklab.numtheory import isprime
from gklab.primegraph import (SOLVABLE_CUT, SOLVABLE_RATIONAL, FORBIDDEN,
                              PrimeGraph, parse_graph_literal)

# (builtin name, args, order of the group it builds)
BUILTINS = [
    ("cyclic", [1], 1), ("cyclic", [2], 2), ("cyclic", [3], 3),
    ("cyclic", [4], 4), ("cyclic", [5], 5), ("cyclic", [6], 6),
    ("cyclic", [7], 7), ("cyclic", [8], 8), ("cyclic", [12], 12),
    ("sym", [1], 1), ("sym", [3], 6), ("sym", [4], 24), ("alt", [4], 12),
    ("alt", [5], 60), ("elem_abelian", [2, 2], 4),
    ("elem_abelian", [3, 2], 9), ("elem_abelian", [5, 1], 5),
    ("dihedral", [8], 8), ("dihedral", [10], 10), ("quaternion8", [], 8),
    ("sl2_3", [], 24), ("dicyclic12", [], 12), ("c7_c3", [], 21),
    ("c7_c6", [], 42),
]
# products stay small enough that a report takes milliseconds
MAX_PRODUCT_ORDER = 600


@st.composite
def specs(draw):
    picks = draw(st.lists(st.sampled_from(BUILTINS), min_size=1, max_size=4))
    groups = {f"b{i}": {"type": "builtin", "name": name, "args": args}
              for i, (name, args, _) in enumerate(picks)}
    orders = {f"b{i}": order for i, (_, _, order) in enumerate(picks)}
    for k in range(draw(st.integers(0, 2))):
        factors = draw(st.lists(st.sampled_from(sorted(orders)), min_size=2,
                                max_size=3))
        if math.prod(map(orders.__getitem__, factors)) <= MAX_PRODUCT_ORDER:
            groups[f"d{k}"] = {"type": "direct", "factors": factors}
    return {"groups": groups}


def _check_laws(name: str, r: dict) -> None:
    rat, cut = r["rationality"]["is_rational"], r["rationality"]["is_cut"]
    solvable = r["structure"]["solvable"]
    assert cut or not rat, name
    for cls, holds in ((SOLVABLE_CUT, cut), (SOLVABLE_RATIONAL, rat)):
        if solvable and holds:
            assert r["classification"][cls]["status"] != FORBIDDEN, (name, cls)
    orders = {int(k): v for k, v in r["element_orders"].items()}
    assert sum(orders.values()) == r["order"], name
    graph = r["gk_graph"]
    assert set(graph["vertices"]) == {n for n in orders if isprime(n)}, name
    made = PrimeGraph.make(graph["vertices"], map(tuple, graph["edges"]))
    assert parse_graph_literal(graph["literal"]) == made, name
    assert math.prod(r["structure"]["sylow_orders"].values()) == r["order"], name


C1 = {"type": "builtin", "name": "cyclic", "args": [1]}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=specs())
@example(spec={"groups": {"c1": C1,
                          "w": {"type": "direct", "factors": ["c1", "c1"]}}})
@example(spec={"groups": {"c1": C1, "c2": {"type": "builtin",
                                           "name": "cyclic", "args": [2]},
                          "w": {"type": "direct", "factors": ["c1", "c2"]}}})
def test_report_obeys_its_own_laws(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    report = analysis_report(load_spec(str(path)), {})
    for name, r in report["groups"].items():
        _check_laws(name, r)
