"""Per-layer tracing from outside the program.

``Tracer.installed`` wraps gklab's public functions in every gklab module that
holds a reference to them (``from .structure import conjugacy_classes`` binds
the name once per importing module).  Each wrapper records a span; a layer's
self time is its spans' durations minus the part covered by child spans.

``count_elements`` is a separate pass: it counts ``elements.mul``/``inv``
calls by element kind.  Those run ~15M times per workload, so wrapping them
in the span pass would distort every self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from gklab import elements

# layer metric -> {module: [functions]}; each listed function is wrapped and
# its self time charged to the layer.
LAYERS = {
    "groups.enumerate_s": {"groups": ["enumerate_group"]},
    "groups.product_s": {"groups": ["direct_product", "semidirect_product",
                                    "extend_to_automorphism"]},
    "groups.closure_s": {"groups": ["closure_in", "small_generating_set",
                                    "subgroup_as_group"]},
    "groups.element_order_s": {"groups": ["element_order",
                                          "element_orders_multiset"]},
    "structure.classes_s": {"structure": ["conjugacy_classes"]},
    "structure.sylow_s": {"structure": ["sylow", "is_p_element"]},
    "structure.fitting_s": {"structure": ["core_p", "fitting", "fitting_series"]},
    "structure.quotient_s": {"structure": ["quotient"]},
    "structure.predicates_s": {"structure": [
        "class_predicates", "is_solvable", "is_nilpotent", "is_abelian",
        "is_cyclic", "is_metacyclic", "is_metabelian", "is_supersolvable",
        "derived_subgroup", "normal_closure", "minimal_normal_subgroups",
        "exponent", "cyclic_subgroup_set", "centralizer",
        "normalizer_of_cyclic"]},
    "rationality.report_s": {"rationality": [
        "rationality_report", "element_verdict", "class_iota_exponents",
        "is_cut_group", "is_rational_group", "product_cut_predicate"]},
    "rationality.bg_oracle_s": {"rationality": ["cut_oracle_via_bg",
                                                "scanned_iota_exponents"]},
    "primegraph.graph_s": {"primegraph": ["gk_graph", "product_graph",
                                          "components", "component_diameters",
                                          "classify"]},
    "frobenius.kind_s": {"frobenius": [
        "frobenius_kind", "is_frobenius", "is_two_frobenius",
        "frobenius_decomposition", "two_frobenius_decomposition",
        "fingerprint"]},
    "catalog.build_s": {"catalog": [
        "catalog_entry", "corpus", "vector_semidirect", "matrix_action",
        "cyclic", "elem_abelian", "dihedral", "sym", "alt", "quaternion8",
        "sl2_3", "dicyclic12", "c7_c3", "c7_c6"]},
    "verify.self_s": {"verify": ["_check_group_invariants",
                                 "_cut_sylow_invariants", "_quotient_closure",
                                 "_predicate_chain"]},
    "cli.report_s": {"cli": ["analysis_report", "_group_report"]},
}

# functions whose result is a newly built group (counted in elements_built)
BUILDERS = {"groups.enumerate_group", "groups.direct_product",
            "groups.semidirect_product", "groups.subgroup_as_group",
            "structure.quotient"}

COUNT_METRICS = ["elements.mul_mat_calls", "elements.mul_perm_calls",
                 "elements.inv_calls", "groups.elements_built",
                 "structure.classes_built"]


def wrapped_functions() -> list[tuple[str, str, str]]:
    """(module, function, layer) for every wrapped function."""
    return [(mod, fn, layer) for layer, mods in LAYERS.items()
            for mod, fns in mods.items() for fn in fns]


def _gklab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gklab" or name.startswith("gklab."))]


def _patch(replacements: dict) -> list:
    """Swap originals for wrappers wherever a gklab module references them."""
    undo = []
    for mod in _gklab_modules():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None and callable(value):
                setattr(mod, attr, new)
                undo.append((mod, attr, value))
    return undo


def _unpatch(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class Tracer:
    """Span self times per layer plus call and build counts."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._child = []  # child-span time of each open span

    def _enter(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> None:
        dur = time.perf_counter() - start
        self.self_s[layer] += dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    def _wrap(self, qualname: str, layer: str, fn):
        builds = qualname in BUILDERS
        classes = qualname == "structure.conjugacy_classes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            if classes and "conjugacy" not in args[0]._memo:
                self.counts["structure.classes_built"] += 1
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # spans close here too when NotFrobenius unwinds through them
                self._exit(layer, start)
            if builds:
                self.counts["groups.elements_built"] += result.order
            return result
        return wrapper

    @contextmanager
    def installed(self):
        import gklab
        replacements = {}
        for mod, fn, layer in wrapped_functions():
            original = getattr(getattr(gklab, mod), fn)
            replacements[id(original)] = self._wrap(f"{mod}.{fn}", layer, original)
        undo = _patch(replacements)
        try:
            yield self
        finally:
            _unpatch(undo)


@contextmanager
def count_elements(counts: Counter):
    """Count elements.mul by kind and elements.inv into counts while active.

    Groups keep the multiplication they were built with, so inputs must be
    built inside this context for their calls to be counted.
    """
    mul, inv = elements.mul, elements.inv
    names = {elements.MAT: "elements.mul_mat_calls",
             elements.PERM: "elements.mul_perm_calls"}

    def counting_mul(a, b):
        counts[names.get(a[0], a[0])] += 1
        return mul(a, b)

    def counting_inv(a):
        counts["elements.inv_calls"] += 1
        return inv(a)

    undo = _patch({id(mul): counting_mul, id(inv): counting_inv})
    try:
        yield counts
    finally:
        _unpatch(undo)
