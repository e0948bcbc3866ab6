"""The fast output writers print exactly what the plain ones print.

cli._dumps is checked against json.dumps(obj, sort_keys=True, indent=2),
and io.export_dot against a reference copy of the DOT writer that formats
every label from its VertexSet.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    LabeledGraph,
    VertexSet,
    build_Fk,
    build_TS,
    build_TSk,
    build_TSk_induced,
    cycle,
    make_graph,
    path,
)
from tokenslide.cli import _dumps
from tokenslide.decompose import product
from tokenslide.graph import Graph
from tokenslide.io import export_dot


# ---------------------------------------------------------------------------
# JSON


ints = st.one_of(st.integers(-300, 300),
                 st.integers(-2**80, 2**80))  # past 64 bits
scalars = st.one_of(
    st.none(), st.booleans(), ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\\n\t/é€😀\x00 '), max_size=6))
# lists of ints and of int lists take the writer's fast paths; bools
# among them must not
int_lists = st.lists(st.one_of(ints, st.booleans()), max_size=5)
json_values = st.recursive(
    st.one_of(scalars, int_lists, st.lists(int_lists, max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet='ab"\\é', max_size=3), inner,
                        max_size=4),
        st.dictionaries(ints, inner, max_size=3)),
    max_leaves=20)


class TestJsonWriter:
    @given(json_values)
    @settings(max_examples=250, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[], []], [[1], [True]], [1, True], [[1, -2], [], [3]],
        {"a": [[0, 1]], "b": {"c": []}}, {1: [1], 2: {"x": None}},
        [float("nan"), float("-inf")], [(1, 2)], 2**70, "q\"\\é"])
    def test_edge_cases(self, obj):
        assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# DOT


def _reference_format_label(vs):
    members = [v + 1 for v in vs.members()]
    if vs.n <= 9:
        return "".join(str(v) for v in members)
    return "-".join(str(v) for v in members)


def _reference_node_label(lab):
    if isinstance(lab, tuple):
        return (_reference_format_label(lab[0]) + "|"
                + _reference_format_label(lab[1]))
    return _reference_format_label(lab)


def reference_export_dot(g, graph_name="G"):
    """The DOT writer as it was before labels were formatted from masks."""
    lines = [f"graph {graph_name} {{"]
    if isinstance(g, Graph):
        for v in range(g.n):
            name = g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  v{v} [label="{name}"];')
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
    else:
        for i in range(g.num_nodes()):
            lines.append(
                f'  n{i} [label="{_reference_node_label(g.labels[i])}"];')
        for i, j in g.edges():
            lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _public_copy(lg):
    # the same graph through the checked constructor, labels as VertexSets
    return LabeledGraph(lg.kind, lg.base, lg.labels,
                        [lg.neighbors(i) for i in range(lg.num_nodes())],
                        k=lg.k)


class TestDotWriter:
    def test_named_graph_with_escapes(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)],
                       names=['a"b', "c\\d", 'e\\"', "plain"])
        assert export_dot(g, "N") == reference_export_dot(g, "N")

    @pytest.mark.parametrize("lg", [
        build_TSk(cycle(8), 3), build_TS(path(6)), build_Fk(cycle(5), 2),
        build_TSk(path(12), 4), build_TS(cycle(11)), build_Fk(path(10), 2),
        build_TSk(path(1), 1),
    ], ids=["C8-k3", "P6-all", "F2-C5", "P12-k4", "C11-all", "F2-P10",
            "P1-k1"])
    def test_set_labels(self, lg):
        assert export_dot(lg) == reference_export_dot(lg)
        assert export_dot(_public_copy(lg)) == reference_export_dot(lg)

    def test_labels_of_another_host_size(self):
        # labels over a host other than the base: formatted by their own n
        base = path(3)
        lg = LabeledGraph("Abstract", base,
                          [VertexSet.of([0, 9], 12), VertexSet.of([1], 2)],
                          [[1], [0]])
        assert export_dot(lg) == reference_export_dot(lg)

    @pytest.mark.parametrize("a,b", [
        (build_TSk(path(3), 1), build_TSk(cycle(4), 2)),    # host 7
        (build_TSk(path(5), 2), build_TSk(cycle(6), 2)),    # host 11
        (build_TSk_induced(path(12), 2, range(5)),          # one host, 12
         build_TSk_induced(path(12), 1, range(6, 12))),
    ], ids=["host7", "host11", "shared-host12"])
    def test_product_pair_labels(self, a, b):
        p = product(a, b)
        assert export_dot(p) == reference_export_dot(p)
