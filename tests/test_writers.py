"""The fast output writers print exactly what the plain ones print.

cli._dumps is checked against json.dumps(obj, sort_keys=True, indent=2),
with a LabeledGraph against json.dumps of its labeled_to_json dict, and
io.export_dot against a reference copy of the DOT writer that formats
every label from its mask by the definition. The streamed output the
CLI prints, a chunk at a time, is checked against the joined text, and
its memory against the size of that text.
"""

import contextlib
import io
import json
import math
import random
import tracemalloc
from hashlib import sha256
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    LabeledGraph,
    build_Fk,
    build_Lk,
    build_TS,
    build_TSk,
    build_TSk_induced,
    complete,
    cycle,
    flip_graph,
    make_graph,
    path,
    star,
)
import tokenslide.cli
import tokenslide.io
from tokenslide.cli import _dumps, _emit, main
from tokenslide.decompose import JoinSpec, decompose_join, product
from tokenslide.graph import Graph
from tokenslide.io import (_label_formatter, export_dot, format_label,
                           labeled_to_json, write_graph6)


# ---------------------------------------------------------------------------
# JSON


ints = st.one_of(st.integers(-300, 300),
                 st.integers(-2**80, 2**80))  # past 64 bits
scalars = st.one_of(
    st.none(), st.booleans(), ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\\n\t/é€😀\x00 '), max_size=6))
# lists of ints and of int lists take the writer's fast paths; bools
# among them must not; int rows of one length share one template
int_lists = st.lists(st.one_of(ints, st.booleans()), max_size=5)
equal_rows = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(ints, min_size=n, max_size=n), min_size=1, max_size=5))


def _rows_from(pool):
    row = st.lists(st.sampled_from(pool), max_size=5)
    return st.lists(st.one_of(row, row.map(tuple)), min_size=1, max_size=5)


# rows of tuples drawn from a small pool, so that tuples repeat as the
# segments of triangulations do; a bool in one of them must not print
# as the int it equals
int_tuples = st.lists(ints, max_size=3).map(tuple)
odd_tuples = st.lists(st.one_of(ints, st.booleans()), max_size=3).map(tuple)
tuple_rows = st.lists(st.one_of(int_tuples, odd_tuples), min_size=1,
                      max_size=4).flatmap(_rows_from)


class _Text(str):
    """A str subclass, which the writer leaves to json.dumps."""


# lists of strs and of str pairs, as node labels and label edges, take
# the writer's quoting path; a str subclass among them must not
texts = st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x1f\x7f/é€😀 '),
                max_size=6)
str_lists = st.lists(st.one_of(texts, texts.map(_Text)), max_size=5)
str_pairs = st.lists(st.one_of(
    st.tuples(texts, texts).map(list), st.tuples(texts, texts),
    st.tuples(texts, texts.map(_Text)).map(list)), max_size=5)
json_values = st.recursive(
    st.one_of(scalars, int_lists, st.lists(int_lists, max_size=4),
              equal_rows, int_lists.map(tuple), tuple_rows, str_lists,
              str_pairs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(alphabet='ab"\\é', max_size=3), inner,
                        max_size=4),
        st.dictionaries(ints, inner, max_size=3)),
    max_leaves=20)


# the 45 segments of a 10-point set, one tuple each, shared by the rows
# that hold it as triangulations share them
SEGMENTS = [(a, b) for a in range(10) for b in range(a + 1, 10)]
TRIANGULATIONS = [tuple(SEGMENTS[(7 * i + 3 * j) % 45] for j in range(17))
                  for i in range(60)]


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

    def test_int_arrays_skip_json_dumps(self):
        # tuples take the fast paths as lists do
        obj = [(1, 2), [(1, 2), [3]], TRIANGULATIONS]
        expected = json.dumps(obj, sort_keys=True, indent=2)
        with mock.patch.object(json, "dumps", side_effect=AssertionError):
            assert _dumps(obj) == expected

    def test_str_arrays_and_keys_skip_json_dumps(self):
        # labels and label pairs, as decompose prints them
        obj = {"nodes": ["1-3", 'q"\\é\x01'],
               "edges": [("a", "b"), [], ["\u20ac", "\n"]]}
        expected = json.dumps(obj, sort_keys=True, indent=2)
        with mock.patch.object(json, "dumps", side_effect=AssertionError):
            assert _dumps(obj) == expected

    @pytest.mark.parametrize("chunk", [1, 3, tokenslide.io.CHUNK_ROWS])
    @pytest.mark.parametrize("obj", [
        [[i, -7 * i] for i in range(10_000)],
        [list(range(i % 5, 2 * (i % 5))) for i in range(40)] + [[2**70]],
        [[[i, j] for j in range(i, i + 17)] for i in range(60)],
        [[1, 2], [3, 4], [True, False], [5, 6]],
        [(-1) ** i * i * 37 for i in range(5_000)],
        TRIANGULATIONS,
        [[(0, 1)], [], ((0, 1), (2, 3)), [()]],
        [[1, 2], (True, 3), (4, 5)],
        [[(1, 1)], [(1, True)], [(1, 1), (2, 3)]],
        [[1, 2], (3, 4), [5], ()],
        [(2**70, -2**65), (1, 2)],
        [[(2**70, 1)], [(0, 3), (2**70, 1)]],
    ], ids=["equal-pairs", "mixed-lengths", "triangulations", "bool-row",
            "flat-ints", "tuple-triangulations", "empty-inner",
            "bool-in-tuple-row", "bool-in-repeated-tuple", "list-tuple-rows",
            "big-tuple-row", "big-repeated-tuple"])
    def test_row_shapes(self, chunk, obj):
        with _chunk_rows(chunk):
            for value in (obj, {"a": obj, "b": [obj]}):
                assert _dumps(value) == json.dumps(value, sort_keys=True,
                                                   indent=2)


# ---------------------------------------------------------------------------
# DOT


def _reference_format_label(mask, n):
    """The members of mask among n host vertices, 1-indexed, ascending;
    concatenated for a host of at most 9 vertices, else dash-separated."""
    members = [str(v + 1) for v in range(n) if mask >> v & 1]
    if n <= 9:
        return "".join(members)
    return "-".join(members)


def reference_export_dot(g):
    """The DOT writer as it was before labels were formatted from masks."""
    lines = ["graph G {"]
    if isinstance(g, Graph):
        for v in range(g.n):
            name = g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  v{v} [label="{name}"];')
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
    else:
        for i, mask in enumerate(g.label_masks()):
            label = _reference_format_label(mask, g.base.n)
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in g.edges():
            lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _public_copy(lg):
    # the same graph through the checked constructor
    return LabeledGraph(lg.kind, lg.base, lg.label_masks(),
                        lg.upper_rows(), k=lg.k)


class TestDotWriter:
    @pytest.mark.parametrize("n", [0, 1, 8, 9, 10, 12, 24])
    def test_format_label(self, n):
        masks = range(1 << n) if n <= 12 else [
            0, 1, 1 << (n - 1), (1 << n) - 1, 0b1010 << 8 | 1 << (n - 1)]
        for mask in masks:
            assert format_label(mask, n) == _reference_format_label(mask, n)

    def test_named_graph_with_escapes(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)],
                       names=['a"b', "c\\d", 'e\\"', "plain"])
        assert export_dot(g) == reference_export_dot(g)

    @pytest.mark.parametrize("lg", [
        build_TSk(cycle(8), 3), build_TS(path(6)), build_Fk(cycle(5), 2),
        build_TSk(path(12), 4), build_TS(cycle(11)), build_Fk(path(10), 2),
        build_TSk(path(1), 1),
    ], ids=["C8-k3", "P6-all", "F2-C5", "P12-k4", "C11-all", "F2-P10",
            "P1-k1"])
    def test_set_labels(self, lg):
        assert export_dot(lg) == reference_export_dot(lg)
        assert export_dot(_public_copy(lg)) == reference_export_dot(lg)

    @pytest.mark.parametrize("a,b", [
        (build_TSk(path(3), 1), build_TSk(cycle(4), 2)),    # host 7
        (build_TSk(path(5), 2), build_TSk(cycle(6), 2)),    # host 11
        (build_TSk_induced(path(12), 2, range(5)),          # one host, 12
         build_TSk_induced(path(12), 1, range(6, 12))),
    ], ids=["host7", "host11", "shared-host12"])
    def test_product_pair_labels(self, a, b):
        p = product(a, b)
        assert export_dot(p) == reference_export_dot(p)


def _half_masks(n):
    """Masks over n vertices whose members lie only below n // 2 (the low
    half the label tables split at), only from n // 2 up, or on both
    sides; the single bits n // 2 - 1 and n // 2 among them."""
    h = n // 2
    low, full = (1 << h) - 1, (1 << n) - 1
    masks = {0, 1, 1 << h - 1, 1 << h, 1 << h - 1 | 1 << h, 1 << n - 1,
             low, full ^ low, full}
    rnd = random.Random(n)
    for _ in range(30):
        r = rnd.getrandbits(n)
        masks |= {r & low, r & ~low, r}
    return sorted(masks)


def _assert_label_writers(lg):
    """format_label, _label_formatter, the DOT node lines and the JSON
    node rows of lg's labels against their definitions."""
    n = lg.base.n
    fmt = _label_formatter(n)
    for mask in lg.label_masks():
        want = _reference_format_label(mask, n)
        assert format_label(mask, n) == want
        assert fmt(mask) == want
    assert export_dot(lg) == reference_export_dot(lg)
    plain = labeled_to_json(lg)
    plain["nodes"] = [[v for v in range(n) if mask >> v & 1]
                      for mask in lg.label_masks()]
    assert _dumps(lg) == json.dumps(plain, sort_keys=True, indent=2)


class TestHalfLabels:
    """Labels are written as the text of their low half joined to that of
    their high half; every split prints as the whole label does."""

    @pytest.mark.parametrize("n", [9, 10, 11, 65, 128])
    def test_masks_on_either_side_of_the_split(self, n):
        masks = _half_masks(n)
        _assert_label_writers(LabeledGraph(
            "Abstract", make_graph(n, []), masks, [()] * len(masks)))

    def test_product_across_the_split(self):
        # one host of 65: the left factor's labels are the single
        # vertices 0..32, bits 31 and 32 on either side of the split,
        # and the right factor's are pairs in the high half
        left = build_TSk_induced(path(65), 1, range(33))
        right = build_TSk_induced(path(65), 2, range(52, 65))
        _assert_label_writers(product(left, right))


# ---------------------------------------------------------------------------
# Streaming


class _Discard:
    """A stdout that drops what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _chunk_rows(size):
    """Patch the chunk size of both writers (the CLI imports it by name)."""
    stack = contextlib.ExitStack()
    for module in (tokenslide.io, tokenslide.cli):
        stack.enter_context(mock.patch.object(module, "CHUNK_ROWS", size))
    return stack


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


NAMED = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                   names=['a"b', "c\\d", 'e\\"', "plain", ""])

# a graph of every kind, and the shapes the JSON writer treats apart:
# no nodes, no edges, the empty label (which prints as []), and bases of
# 0, 1, 9, 10 and 70 vertices, whose masks the writer formats in halves
# of 0 and 0, 0 and 1, 4 and 5, 5 and 5, and 35 and 35 bits
STREAMED = {
    "TSk-C12": build_TSk(cycle(12), 4),
    "TS-P11": build_TS(path(11)),
    "Lk-K6": build_Lk(complete(6), 3),
    "Fk-C7": build_Fk(cycle(7), 3),
    "Flip": flip_graph([(0, 8), (7, 16), (16, 9), (8, 0), (5, 6), (3, 9)]),
    "Product": product(build_TSk(path(5), 2), build_TSk(cycle(6), 2)),
    "decompose-part": decompose_join(JoinSpec(
        star(3), make_graph(5, [(0, 3), (3, 4), (4, 2), (2, 1), (0, 2),
                                (1, 3)]),
        [1, 2, 3], [0, 1], 3)).parts[3],
    "no-nodes": build_TSk(path(3), 3),
    "no-edges": build_TSk(make_graph(5, []), 2),
    "empty-label": LabeledGraph("Abstract", path(2), [0, 1, 2],
                                [[1, 2], [], []]),
    "base0": LabeledGraph("Abstract", make_graph(0, []), [0], [[]]),
    "base1": build_TSk(path(1), 1),
    "base9": build_TSk(cycle(9), 3),
    "base10": build_TSk(path(10), 3),
    "base70": build_TSk(path(70), 2),
}


def _assert_same_text(got, want):
    """Fail unless got == want, naming the first differing line.

    The texts are compared by SHA-256 digest, and the failure message
    holds only that line: pytest's diff of two texts of hundreds of
    kilobytes would run for minutes.
    """
    if sha256(got.encode()).digest() == sha256(want.encode()).digest():
        return
    a, b = got.splitlines(), want.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    pytest.fail(f"texts differ first at line {i + 1}: "
                f"{a[i] if i < len(a) else '<end>'!r} against "
                f"{b[i] if i < len(b) else '<end>'!r}", pytrace=False)


class TestStreaming:
    @pytest.mark.parametrize("chunk", [1, 3, tokenslide.io.CHUNK_ROWS])
    @pytest.mark.parametrize("g,k", [(path(20), 5), (NAMED, None),
                                     (NAMED, 2)],
                             ids=["P20-k5", "named-all", "named-k2"])
    def test_build_dot_prints_export_dot(self, tmp_path, chunk, g, k):
        # P_20 has 4,368 stable 5-sets, past one chunk of the default size
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps(tokenslide.io.graph_to_json(g)))
        mode = ["--all"] if k is None else ["--k", str(k)]
        with _chunk_rows(chunk):
            out = _stdout_of(["build", "--json", str(graph_file), *mode,
                              "--format", "dot"])
        lab = build_TS(g) if k is None else build_TSk(g, k)
        _assert_same_text(out, export_dot(lab))
        _assert_same_text(out, reference_export_dot(lab))

    @pytest.mark.parametrize("chunk", [1, 3, tokenslide.io.CHUNK_ROWS])
    @pytest.mark.parametrize("g", [NAMED, build_TSk(cycle(9), 3),
                                   build_TS(path(7)), make_graph(0, [])],
                             ids=["named", "C9-k3", "P7-all", "empty"])
    def test_one_write_per_chunk(self, chunk, g):
        if isinstance(g, Graph):
            rows = (g.n, len(g.edges()))
        else:
            rows = (g.num_nodes(), g.num_edges())
        pieces = []
        with _chunk_rows(chunk):
            assert export_dot(g, pieces.append) is None
        assert "".join(pieces) == reference_export_dot(g)
        assert len(pieces) == 2 + sum(math.ceil(r / chunk) for r in rows)

    @pytest.mark.parametrize("chunk", [1, 2, tokenslide.io.CHUNK_ROWS])
    @given(obj=json_values)
    @settings(max_examples=150, deadline=None)
    def test_emit_prints_dumps(self, chunk, obj):
        out = io.StringIO()
        with _chunk_rows(chunk), contextlib.redirect_stdout(out):
            _emit(obj)
        assert out.getvalue() == _dumps(obj) + "\n"
        assert out.getvalue() == json.dumps(obj, sort_keys=True,
                                            indent=2) + "\n"

    @pytest.mark.parametrize("chunk", [1, 3, tokenslide.io.CHUNK_ROWS])
    @pytest.mark.parametrize("lg", STREAMED.values(), ids=STREAMED.keys())
    def test_emit_prints_labeled_to_json(self, chunk, lg):
        # alone, as build prints it, and inside a dict, as geom does
        for value, plain in ((lg, labeled_to_json(lg)),
                             ({"flip_graph": lg, "ts_iso": [1, True]},
                              {"flip_graph": labeled_to_json(lg),
                               "ts_iso": [1, True]})):
            out = io.StringIO()
            with _chunk_rows(chunk), contextlib.redirect_stdout(out):
                _emit(value)
            _assert_same_text(out.getvalue(), json.dumps(
                plain, sort_keys=True, indent=2) + "\n")

    def test_empty_label_prints_an_empty_array(self):
        assert json.loads(_dumps(STREAMED["empty-label"]))["nodes"] \
            == [[], [0], [1]]

    @pytest.mark.parametrize("chunk", [1, 3, tokenslide.io.CHUNK_ROWS])
    @pytest.mark.parametrize("g,k", [(path(20), 5), (NAMED, None)],
                             ids=["P20-k5", "named-all"])
    def test_build_json_prints_labeled_to_json(self, tmp_path, chunk, g, k):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps(tokenslide.io.graph_to_json(g)))
        mode = ["--all"] if k is None else ["--k", str(k)]
        with _chunk_rows(chunk):
            out = _stdout_of(["build", "--json", str(graph_file), *mode])
        lab = build_TS(g) if k is None else build_TSk(g, k)
        _assert_same_text(out, json.dumps(labeled_to_json(lab),
                                          sort_keys=True, indent=2) + "\n")

    def test_build_dot_memory_is_bounded(self):
        """Printing TS_5(P_24) as DOT holds no copy of its 1.6 MB text."""
        text = len(export_dot(build_TSk(path(24), 5)))
        assert _cli_peak_above_build(["--format", "dot"]) < text / 10

    def test_build_json_memory_is_bounded(self):
        """Printing TS_5(P_24) as JSON builds no nested lists of its
        nodes and edges and holds no copy of its 3.05 MB text."""
        text = len(_dumps(build_TSk(path(24), 5)))
        assert _cli_peak_above_build([]) < text / 5


def _peak(fn):
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cli_peak_above_build(options):
    """The peak of build --k 5 of P_24 with options, less the peak of
    build_TSk alone."""
    argv = ["build", "--graph6", write_graph6(path(24)), "--k", "5",
            *options]

    def run_cli():
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0

    run_cli()  # caches filled on a first call do not count
    return _peak(run_cli) - _peak(lambda: build_TSk(path(24), 5))
