import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tokenslide
from tokenslide import (
    InputError,
    LabeledGraph,
    add_isolated,
    classify_subdivision,
    complete,
    cycle,
    delaunay,
    flip_graph,
    join,
    make_graph,
    parse_graph6,
    path,
    star,
    triangulations,
    write_graph6,
)
from tokenslide.cli import main
from tokenslide.searches import SEARCH_NAMES

from conftest import diamond, graphs, paw

PTS_JSON = "[[0,8],[7,16],[16,9],[8,0],[5,6],[3,9]]"
HULL3_JSON = ("[[1,40],[4,37],[36,24],[8,22],[9,11],[1,2],[15,27],[2,26],"
              "[18,20],[24,24]]")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """The environment with this tokenslide first on PYTHONPATH, so a child
    process imports the same package as the tests."""
    pkg_root = str(Path(tokenslide.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGen:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
        assert code == 0
        assert out.strip() == write_graph6(path(4))

    def test_bipartite_needs_m(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "complete_bipartite",
                           "--n", "3")
        assert code == 2
        code, out, _ = run(capsys, "gen", "--family", "complete_bipartite",
                           "--m", "2", "--n", "3")
        assert code == 0
        assert parse_graph6(out.strip()).num_edges() == 6

    def test_trees(self, capsys):
        code, out, _ = run(capsys, "gen", "--trees", "7")
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    # stdout SHA-256 of `gen --trees n` as printed when the trees came
    # from networkx's nonisomorphic_trees: pins each tree's labelling
    @pytest.mark.parametrize("n,sha", [
        (1, "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46"),
        (2, "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9"),
        (3, "881159da90c6f28631b6a3eafd6d6d13cda0d0e4cc09d828374719d272f3da34"),
        (4, "fca32a9fe1fd1a400c423e69ebee00e2a06fb15691a3b08274f2950e9c7e7a02"),
        (5, "cadaf2507e308dfd2348560b661a75cb5cd600724913693e828e0e1b7018f29a"),
        (6, "bc7dfc8e00d1cd74b1a4ff950ea5a23a0d419f333c84aae12432f60db5ce3335"),
        (7, "1f4ab77681e0e4d7bcc864f8a4c9d7fc657d4bab7b488af85ff943585a973dd4"),
        (8, "6b01819566cb3a830636e8158d2e56d5a21b3111661bef146c2c4a6bdfa1228c"),
        (9, "f386cad27139d53e87e5294de9d436936ef5b82c1a36ae2e76037e81372a1199"),
        (10, "76fe6681e5e0d08123d332c3cc89fe41355258894858118ed6a631dc71b2b10f"),
    ])
    def test_trees_golden_stdout(self, capsys, n, sha):
        code, out, err = run(capsys, "gen", "--trees", str(n))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_connected(self, capsys):
        code, out, _ = run(capsys, "gen", "--connected", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(parse_graph6(l).n == 4 for l in lines)

    def test_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "path", "--n", "3",
                           "--trees", "5")
        assert code == 2
        assert "not allowed with argument --family" in err

    def test_family_needs_n(self, capsys):
        assert run(capsys, "gen", "--family", "cycle")[0] == 2

    def test_golden_stdout(self, capsys):
        # stdout SHA-256 recorded when every extension of every smaller
        # graph was canonised: pins the representatives and their order
        code, out, err = run(capsys, "gen", "--connected", "7")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "3e273b09a46c808674a69b93e0a54c254d340f26cc4bb7a0464ae17f4ee44c05"


class TestBuild:
    def test_k(self, capsys):
        js = run_json(capsys, "build", "--graph6", write_graph6(path(4)),
                      "--k", "2")
        assert js["kind"] == "TSk"
        assert js["nodes"] == [[0, 2], [0, 3], [1, 3]]

    def test_all(self, capsys):
        js = run_json(capsys, "build", "--graph6", write_graph6(path(3)),
                      "--all")
        assert js["kind"] == "TS"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "build", "--graph6",
                           write_graph6(path(4)), "--k", "2",
                           "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 2
        assert "13" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(write_graph6(path(4)) + "\n"))
        js = run_json(capsys, "build", "--stdin", "--k", "2")
        assert len(js["nodes"]) == 3

    def test_k_all_conflict(self, capsys):
        g6 = write_graph6(path(4))
        assert run(capsys, "build", "--graph6", g6, "--k", "2",
                   "--all")[0] == 2
        assert run(capsys, "build", "--graph6", g6)[0] == 2

    def test_no_input(self, capsys):
        assert run(capsys, "build", "--k", "2")[0] == 2

    def test_malformed_graph6(self, capsys):
        code, _, err = run(capsys, "build", "--graph6", "~", "--k", "2")
        assert code == 2
        assert "error:" in err

    def test_budget_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", "4")
        g6 = write_graph6(add_isolated(make_graph(0, []), 20))
        code, _, err = run(capsys, "build", "--graph6", g6, "--k", "2")
        assert code == 3
        assert "resource cap:" in err

    # stdout SHA-256 recorded while LabeledGraph re-checked every builder's
    # output and _emit called json.dumps; C_8 labels are concatenated
    # digits, P_11 labels are dash-separated
    @pytest.mark.parametrize("graph,mode,fmt,sha", [
        (cycle(8), ["--k", "3"], "json",
         "55fc0b9d04b9079cb4f509129447ffd382b4ad7ac8194f00cef610111a54f321"),
        (cycle(8), ["--all"], "json",
         "2bf18d83293e3e73b6cd2ee3c08fd9ba9dcad360b85269e7a5055cec3984dcd6"),
        (cycle(8), ["--k", "3"], "dot",
         "7ccfe5be1c9a8dbda1e5bcac72c78d9423cdc3dd1368ecf2e7ee44848acaf353"),
        (cycle(8), ["--all"], "dot",
         "decc5e00e8ab4349c2779860824141e10e1008bebd051af3aa73573593d3efab"),
        (path(11), ["--k", "3"], "json",
         "38f021e25758622c927edb5a638eb56d656fbe640343ad59367b95914bd111d9"),
        (path(11), ["--all"], "json",
         "cce5b51db7ad005563825b84b4de75e0543bd15891feef1cdc4d7132e4064961"),
        (path(11), ["--k", "3"], "dot",
         "513be9283a6af07ec606641f56fc5a99e4217fd02dea66f0d831dd5387ac4ab2"),
        (path(11), ["--all"], "dot",
         "967ecd72662680e1b3a3a57a16d99f87b5a8d2eed45d9ea1ee356ac42d676710"),
    ], ids=["C8-k3-json", "C8-all-json", "C8-k3-dot", "C8-all-dot",
            "P11-k3-json", "P11-all-json", "P11-k3-dot", "P11-all-dot"])
    def test_golden_stdout(self, capsys, graph, mode, fmt, sha):
        code, out, err = run(capsys, "build", "--graph6", write_graph6(graph),
                             *mode, "--format", fmt)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestAnalyze:
    def test_plain(self, capsys):
        js = run_json(capsys, "analyze", "--graph6", write_graph6(complete(5)))
        assert js["planar"] is False
        assert js["chromatic"] == 5

    def test_chromatic_below_dsatur_bound(self, capsys):
        # DSATUR colours this 9-vertex graph with 4; the search finds 3
        js = run_json(capsys, "analyze", "--graph6", "HLago@r")
        assert (js["clique"], js["chromatic"]) == (3, 3)

    def test_ts_k(self, capsys):
        js = run_json(capsys, "analyze", "--graph6", write_graph6(path(8)),
                      "--ts", "3")
        assert js["nodes"] == 20
        assert js["edges"] == 30

    def test_ts_all(self, capsys):
        js = run_json(capsys, "analyze", "--graph6", write_graph6(path(3)),
                      "--ts-all")
        assert js["nodes"] == 4

    def test_mode_conflict(self, capsys):
        assert run(capsys, "analyze", "--graph6", write_graph6(path(3)),
                   "--ts", "2", "--ts-all")[0] == 2

    def test_ts_all_of_edgeless_graph(self, capsys):
        # 4,095 nodes and no edges; the clique search once built n-bit
        # complement masks here and took seconds
        js = run_json(capsys, "analyze", "--graph6",
                      write_graph6(make_graph(12, [])), "--ts-all")
        assert (js["nodes"], js["edges"]) == (4095, 0)
        assert (js["clique"], js["chromatic"]) == (1, 1)
        assert js["diameter"] == "infinite"

    def test_ts5_of_p24(self, capsys):
        # 15,504 nodes; TS_5(P_24) has diameter 5 * (24 - 10 + 1)
        js = run_json(capsys, "analyze", "--graph6", write_graph6(path(24)),
                      "--ts", "5")
        assert (js["nodes"], js["edges"]) == (15504, 58140)
        assert (js["diameter"], js["clique"], js["chromatic"],
                js["girth"], js["planar"]) == (75, 2, 2, 4, False)
        witness = [tuple(e) for e in js["planar_witness"]]
        assert classify_subdivision(js["nodes"], witness) is not None

    # on the wheel of C_9 and a hub, a budget of 2 runs out in the first
    # clique search (3 steps) and one of 8 in the 3-colouring search (19
    # steps)
    @pytest.mark.parametrize("budget,search", [(2, "stable-set"),
                                               (8, "colouring")])
    def test_search_budget(self, capsys, monkeypatch, budget, search):
        from tokenslide import config

        wheel = join(cycle(9), range(9), complete(1), [0])
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", budget)
        code, out, err = run(capsys, "analyze", "--graph6",
                             write_graph6(wheel))
        assert code == 3
        assert out == ""
        assert f"resource cap: {search} search passed {budget} steps" in err

    # TS_3(C_12) has no triangle and is bipartite: the triangle scan and
    # the 2-colouring settle its clique and chromatic numbers without the
    # searches, so a budget of 5, which its clique search would pass
    # (382 steps), changes nothing
    def test_triangle_free_analyze_spends_no_budget(self, capsys,
                                                    monkeypatch):
        from tokenslide import config

        argv = ("analyze", "--graph6", write_graph6(cycle(12)), "--ts", "3")
        want = run(capsys, *argv)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 5)
        assert run(capsys, *argv) == want
        assert want[0] == 0 and want[2] == ""

    # stdout SHA-256 of these commands as printed with networkx's
    # one-edge-at-a-time witness search; a change to the witness or to
    # any other field fails here
    @pytest.mark.parametrize("graph,mode,sha", [
        (path(12), ["--ts", "3"],
         "ac1d216b1d2e255c13d704d61d023420e9d8b75b42ed932c71d59bb8200a0372"),
        (cycle(12), ["--ts", "3"],
         "1d43c5698b8267c16bb73d1c4ca17291b097ac172e8189046c0400d806131174"),
        (cycle(10), ["--ts-all"],
         "a083bc687f20c9097e0030fd38e7e496e355165a3488c838b52857e8e60dcbed"),
    ], ids=["P12-ts3", "C12-ts3", "C10-ts-all"])
    def test_golden_stdout(self, capsys, graph, mode, sha):
        code, out, err = run(capsys, "analyze", "--graph6",
                             write_graph6(graph), *mode)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestRealize:
    def test_family(self, capsys):
        js = run_json(capsys, "realize", "--family", "path", "--n", "4",
                      "--k", "2")
        base = parse_graph6(js["base_graph6"])
        assert base.n == 5
        assert js["k"] == 2

    def test_split(self, capsys):
        js = run_json(capsys, "realize", "--split", write_graph6(paw()),
                      "--k", "2")
        assert "base_graph6" in js

    def test_search_positive(self, capsys):
        js = run_json(capsys, "realize", "--search",
                      write_graph6(complete(4)), "--k", "2", "--max-n", "5")
        assert "base_graph6" in js

    def test_search_negative(self, capsys):
        js = run_json(capsys, "realize", "--search",
                      write_graph6(diamond()), "--k", "2", "--max-n", "4")
        assert js == {"found": False, "max_n": 4}

    def test_search_budget_cap(self, capsys, monkeypatch):
        # the edgeless graph on 4 vertices has 6 stable pairs, and the
        # search counts them against the budget before it is rejected
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", "5")
        code, out, err = run(capsys, "realize", "--search",
                             write_graph6(star(4)), "--k", "2",
                             "--max-n", "7")
        assert code == 3
        assert out == ""
        assert "resource cap:" in err

    def test_search_budget_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", "abc")
        code, out, err = run(capsys, "realize", "--search",
                             write_graph6(star(4)), "--k", "2",
                             "--max-n", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    # stdout SHA-256 per argv. The search hits depend on the enumeration
    # order and were recorded when every extension of every smaller graph
    # was canonised. P_3 finds its base below the top layer; K_4 finds
    # it on the top layer (base 24 of the 34 graphs on 5 vertices) and
    # "HrGiACD" too (base 522 of the 1,044 graphs on 7 vertices), where
    # the search keeps only candidates with as many stable k-sets as the
    # target has vertices. The family and split outputs pin each
    # construction's base and witness_iso, recorded when every
    # constructor built TS_k itself to read its witness off the node labels
    GOLDEN = {
        ("--search", "Bg", "--k", "2", "--max-n", "5"):
            "aadef507ad4ddd41b86d49af478e348e4c2e51eec26f94f9171476e22df11e62",
        ("--search", "C~", "--k", "2", "--max-n", "5"):  # K_4
            "632c78a19dec52dcc29dbef64e37d87e4ed7a19c1b7229e930b55151b2c1ca7f",
        ("--search", "HrGiACD", "--k", "2", "--max-n", "7"):
            "421277409b3904182264b8ee15e9ee43c57f70caab61a0302dbc3387177f1f8f",
        ("--family", "complete", "--n", "2", "--k", "2"):
            "d07ccc507926331d73735726b15b95db2f6a4acc7bd47fa449d97576be339607",
        ("--family", "complete", "--n", "4", "--k", "3"):
            "8059fb185aa1895d006ed98bc6a06f82f2622bfca23ed30f93f535ee171ed4ba",
        ("--family", "path", "--n", "4", "--k", "2"):
            "d89a10f7cc8acbb26d9df6fe16cc51dc92f17b31386ffe41545ec6d50e2a2be5",
        ("--family", "path", "--n", "5", "--k", "3"):
            "983f4df742558523e83f21e6bd4e85247e4c1d93c50aabfdbd54968d3ef8bedb",
        ("--family", "cycle", "--n", "3", "--k", "2"):
            "1e121f475446f4e3f12acfbe2f4371a8e4e5d932c0593cfccf14d094ae9e659d",
        ("--family", "cycle", "--n", "3", "--k", "4"):
            "b04f9b30c1842a7447f5d06a71fe7dfb9af2a4c0dd5cfeb6e31378e552d83ca0",
        ("--family", "cycle", "--n", "5", "--k", "3"):
            "b38492216c912f603e95ace8c1a2134cd5366c7bcfb1830089ea0cb4d5c921bf",
        ("--family", "cycle", "--n", "6", "--k", "2"):
            "88ae4b1115acd7a4a3967b40dcc9929478ad75e2ff62910e5740ddd1150eafb3",
        ("--family", "star", "--n", "3", "--k", "3"):
            "7d5b30ef1f2fc3d167fe8afcfa384cef84823cae6f3c491744b97afc725b9f0b",
        ("--family", "star", "--n", "2", "--k", "4"):
            "c0ac822126ea6fd4f0acbb86678be4a9e73af1a126d9825b7675555ebb076b90",
        ("--split", "Cx", "--k", "2"):  # the paw
            "1879fe4ddb2c904f9e46b390f9467dd5a9578e1a4c4bcbc427dd2fb541e1aada",
        ("--split", "Cs", "--k", "3"):  # K_{1,3}
            "e3e9374eb57fe17ace13b6ca91fc7ff47c504afd6101ee2aeb5c506f7a227da1",
    }

    def test_golden_stdout(self, capsys):
        assert write_graph6(path(3)) == "Bg"
        assert write_graph6(paw()) == "Cx"
        assert write_graph6(star(3)) == "Cs"
        assert write_graph6(complete(4)) == "C~"
        for argv, digest in self.GOLDEN.items():
            code, out, err = run(capsys, "realize", *argv)
            assert code == 0, (argv, err)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_exactly_one_mode(self, capsys):
        assert run(capsys, "realize", "--k", "2")[0] == 2
        assert run(capsys, "realize", "--family", "path", "--n", "3",
                   "--k", "2", "--search", "C~")[0] == 2


class TestDecompose:
    SPEC = {
        "g1": {"n": 2, "edges": []},
        "g2": {"n": 2, "edges": []},
        "h1": [0],
        "h2": [0],
        "k": 1,
    }

    def test_spec_file(self, capsys, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(self.SPEC))
        js = run_json(capsys, "decompose", "--spec", str(f))
        assert js["k"] == 1
        assert js["join_nodes"] == 4
        assert [p["s"] for p in js["parts"]] == [1, 0]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.SPEC)))
        js = run_json(capsys, "decompose", "--stdin")
        assert js["full_nodes"] == 4

    def test_no_input(self, capsys):
        assert run(capsys, "decompose")[0] == 2

    # stdout SHA-256 recorded before the product rule had one
    # implementation; SPEC3's parts s = 1, 2 are built by that rule
    SPEC3 = {
        "g1": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "g2": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5],
                                 [0, 5]]},
        "h1": [0, 2],
        "h2": [1],
        "k": 3,
    }

    # P_11 and C_11 joined along {0, 4, 8} and {1, 5, 9}: 22 vertices,
    # so labels are written with dashes; TS_4 has 3,099 nodes
    SPEC11 = {
        "g1": {"n": 11, "edges": [[i, i + 1] for i in range(10)]},
        "g2": {"n": 11, "edges": [[i, (i + 1) % 11] for i in range(11)]},
        "h1": [0, 4, 8],
        "h2": [1, 5, 9],
        "k": 4,
    }

    @pytest.mark.parametrize("spec,sha", [
        (SPEC,
         "a4d0026dbee4bf19469c7ee52c35c96407ca7586b68df8f164f2ab2f90ec6556"),
        (SPEC3,
         "8b9f6bf24b01c949291b21bad3acdf0cc032ba364bf1f6dfae0ff446afea7088"),
        (SPEC11,
         "d69cc34c7b4a3dc430525c7e9445e34f0e20eba53fd79d65549d4b7e4df5da64"),
    ], ids=["SPEC", "P5-C6-k3", "P11-C11-k4"])
    def test_golden_stdout(self, capsys, monkeypatch, spec, sha):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        code, out, err = run(capsys, "decompose", "--stdin")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestGeom:
    def test_check(self, capsys):
        js = run_json(capsys, "geom", "--points", PTS_JSON, "--check")
        assert js["general_position"]["ok"] is True

    def test_triangulations_and_delaunay(self, capsys):
        js = run_json(capsys, "geom", "--points", PTS_JSON,
                      "--triangulations", "--delaunay")
        assert len(js["triangulations"]) == 7
        assert len(js["delaunay"]) == 11
        assert [list(s) for s in json.loads(json.dumps(js["delaunay"]))] \
            == js["delaunay"]

    def test_flip_graph(self, capsys):
        js = run_json(capsys, "geom", "--points", PTS_JSON, "--flip-graph")
        assert len(js["flip_graph"]["nodes"]) == 7

    def test_ts_iso(self, capsys):
        js = run_json(capsys, "geom", "--points", PTS_JSON, "--check-ts-iso")
        assert js["ts_iso"] == {"isomorphic": True, "alpha": 4,
                                "triangulations": 7}

    @pytest.mark.parametrize("fault", ["missing-flip", "wrong-label"])
    def test_ts_iso_false(self, capsys, monkeypatch, fault):
        # the flip graph of PTS_JSON less one edge, or with one label
        # mask changed, is not TS_alpha of the crossing graph
        fg = flip_graph(json.loads(PTS_JSON))
        up = [list(row) for row in fg.upper_rows()]
        masks = list(fg.label_masks())
        if fault == "missing-flip":
            up[0].pop()  # each edge is stored once, in its earlier end's row
        else:
            masks[0] ^= 1
        bad = LabeledGraph._unchecked(fg.kind, fg.base, tuple(masks),
                                      tuple(map(tuple, up)), k=fg.k)
        monkeypatch.setattr("tokenslide.cli.flip_graph", lambda pts: bad)
        js = run_json(capsys, "geom", "--points", PTS_JSON, "--check-ts-iso")
        assert js["ts_iso"] == {"isomorphic": False, "alpha": 4,
                                "triangulations": 7}

    def test_lawson(self, capsys):
        tri = run_json(capsys, "geom", "--points", PTS_JSON,
                       "--triangulations")["triangulations"][0]
        js = run_json(capsys, "geom", "--points", PTS_JSON,
                      "--lawson", json.dumps(tri))
        assert js["lawson_flips"] == 2

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PTS_JSON))
        js = run_json(capsys, "geom", "--stdin", "--check")
        assert js["general_position"]["ok"] is True

    def test_no_action(self, capsys):
        assert run(capsys, "geom", "--points", PTS_JSON)[0] == 2

    def test_golden_stdout(self, capsys):
        # stdout SHA-256 recorded before alpha shared the clique search
        code, out, err = run(capsys, "geom", "--points", PTS_JSON, "--check",
                             "--triangulations", "--flip-graph",
                             "--check-ts-iso")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "5e4fdf60c3d584fd9a5de3c842f628ad920f19c309b08d74fbbab75530a46a04"

    def test_golden_stdout_hull3(self, capsys):
        # 10 points, 3 on the hull: 1,653 triangulations, alpha 14; stdout
        # SHA-256 recorded before the counting bound and the grouped swaps
        code, out, err = run(capsys, "geom", "--points", HULL3_JSON,
                             "--check", "--triangulations", "--flip-graph",
                             "--delaunay", "--check-ts-iso")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "83025ef173b287abbca45ce92547f925417c77916f2540e5bff780bd85ed3303"

    # stdout SHA-256 recorded while Delaunay still came from Lawson flips
    # of a greedy triangulation
    @pytest.mark.parametrize("start,sha", [
        ("first",
         "5a572a6ed660c818020decc0a6717e4f5473e052360ea5f4721f8b639960975d"),
        ("last",
         "5a572a6ed660c818020decc0a6717e4f5473e052360ea5f4721f8b639960975d"),
        ("delaunay",
         "68d9aba81913bd875ca61d9cda563317b0ecd00f7ab07643f2907dd8d85f8874"),
    ])
    def test_golden_lawson_hull3(self, capsys, start, sha):
        ts = triangulations(json.loads(HULL3_JSON))
        t = {"first": ts[0], "last": ts[-1],
             "delaunay": delaunay(json.loads(HULL3_JSON))}[start]
        code, out, err = run(capsys, "geom", "--points", HULL3_JSON,
                             "--lawson", json.dumps(t))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_crossing_work_once_per_call(self, capsys, monkeypatch):
        from tokenslide import geometry

        calls = {"edge_intersection_graph": 0, "_maximal_stable_sets": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(geometry, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(geometry, name, counted)
        geometry._crossing_of.cache_clear()
        geometry._general_position_of.cache_clear()
        code, _, err = run(capsys, "geom", "--points", PTS_JSON, "--check",
                           "--triangulations", "--flip-graph", "--delaunay",
                           "--check-ts-iso")
        assert code == 0, err
        assert calls == {"edge_intersection_graph": 1,
                         "_maximal_stable_sets": 1}
        # --check, the crossing graph and Delaunay share one verdict
        info = geometry._general_position_of.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_bad_points(self, capsys):
        assert run(capsys, "geom", "--points", "{}", "--check")[0] == 2
        assert run(capsys, "geom", "--points",
                   "[[0,0],[1,1],[900000000,2]]", "--check")[0] == 2


class TestSearch:
    def test_report(self, capsys):
        code, out, err = run(capsys, "search", "trees7")
        assert code == 0
        js = json.loads(out)
        assert js["summary"] == {"planar": 11, "nonplanar": 0}
        assert "wall time:" in err

    def test_unknown(self, capsys):
        code, _, err = run(capsys, "search", "bogus")
        assert code == 2
        assert "trees7" in err

    # stdout SHA-256 recorded when every extension of every smaller graph
    # was canonised
    @pytest.mark.parametrize("name,sha", [
        ("planar6",
         "1031dd08d3cf563f5aa7dadce270de96d3a7257d83037d516d8e26dc5ccac106"),
        ("trees8",
         "d01d53f2bd625478b4a4a93802060cf6cca4e1b8a789dd2e5963c23dbba32a9b"),
    ])
    def test_golden_stdout(self, capsys, name, sha):
        code, out, err = run(capsys, "search", name)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestHarness:
    def test_argparse_error_is_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    # each command reads exactly one input source
    @pytest.mark.parametrize("argv", [
        ["build", "--graph6", "Bg", "--json", "g.json", "--k", "1"],
        ["build", "--graph6", "Bg", "--stdin", "--k", "1"],
        ["build", "--k", "1"],
        ["analyze", "--json", "g.json", "--stdin"],
        ["analyze"],
        ["decompose", "--spec", "s.json", "--stdin"],
        ["decompose"],
        ["geom", "--points", PTS_JSON, "--stdin", "--check"],
        ["geom", "--check"],
    ])
    def test_input_source_conflict_or_missing_is_exit_2(
            self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--stdin" in err

    @pytest.mark.parametrize("case", [
        "build-k-zero", "analyze-ts-zero", "points-not-pairs",
        "points-not-json", "lawson-segment-of-one", "json-edge-of-one",
        "budget-not-an-integer", "json-file-missing", "spec-file-missing",
        "spec-missing-keys", "spec-not-an-object", "spec-k-not-an-integer",
        "spec-h1-not-a-list", "spec-k-boolean", "spec-h1-boolean",
        "json-n-boolean", "json-edge-boolean", "point-boolean",
        "lawson-segment-boolean", "json-file-not-utf8", "spec-file-not-utf8",
        "json-file-too-deep", "spec-too-deep", "points-too-deep",
        "spec-stdin-not-utf8", "budget-zero", "family-without-n"])
    def test_bad_input_is_exit_2(self, case, capsys, monkeypatch, tmp_path):
        g6 = write_graph6(path(3))
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"n": 2, "edges": [[0]]}))
        n_true_file = tmp_path / "n_true.json"
        n_true_file.write_text(json.dumps({"n": True, "edges": []}))
        edge_bool_file = tmp_path / "edge_bool.json"
        edge_bool_file.write_text(json.dumps({"n": 2,
                                              "edges": [[False, True]]}))
        missing = str(tmp_path / "missing.json")
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b'{"n": 1, "edges": [], "names": ["\xff"]}')
        # deeper than the parser's recursion limit
        too_deep = "[" * 100_000 + "]" * 100_000
        too_deep_file = tmp_path / "too_deep.json"
        too_deep_file.write_text(too_deep)
        argv = {
            "build-k-zero": ["build", "--graph6", g6, "--k", "0"],
            "analyze-ts-zero": ["analyze", "--graph6", g6, "--ts", "0"],
            "points-not-pairs": ["geom", "--points", "[1,2,3]", "--check"],
            "points-not-json": ["geom", "--points", "notjson", "--check"],
            "lawson-segment-of-one": ["geom", "--points", PTS_JSON,
                                      "--lawson", "[[0]]"],
            "json-edge-of-one": ["build", "--json", str(graph_file),
                                 "--k", "1"],
            "budget-not-an-integer": ["build", "--graph6", g6, "--k", "1"],
            "json-file-missing": ["build", "--json", missing, "--k", "1"],
            "spec-file-missing": ["decompose", "--spec", missing],
            "spec-missing-keys": ["decompose", "--stdin"],
            "spec-not-an-object": ["decompose", "--stdin"],
            "spec-k-not-an-integer": ["decompose", "--stdin"],
            "spec-h1-not-a-list": ["decompose", "--stdin"],
            "spec-k-boolean": ["decompose", "--stdin"],
            "spec-h1-boolean": ["decompose", "--stdin"],
            "json-n-boolean": ["build", "--json", str(n_true_file),
                               "--k", "1"],
            "json-edge-boolean": ["build", "--json", str(edge_bool_file),
                                  "--k", "1"],
            "point-boolean": ["geom", "--points",
                              "[[true,1],[7,16],[16,9],[8,0]]", "--check"],
            # a triangulation of PTS_JSON with [0, 1] written as booleans
            "lawson-segment-boolean": [
                "geom", "--points", PTS_JSON, "--lawson",
                "[[false,true],[0,2],[0,3],[0,4],[0,5],[1,2],[1,5],[2,3],"
                "[2,4],[2,5],[3,4]]"],
            "json-file-not-utf8": ["build", "--json", str(not_utf8),
                                   "--k", "1"],
            "spec-file-not-utf8": ["decompose", "--spec", str(not_utf8)],
            "json-file-too-deep": ["analyze", "--json", str(too_deep_file)],
            "spec-too-deep": ["decompose", "--stdin"],
            "points-too-deep": ["geom", "--stdin", "--check"],
            "spec-stdin-not-utf8": ["decompose", "--stdin"],
            "budget-zero": ["build", "--graph6", g6, "--k", "1"],
            "family-without-n": ["realize", "--family", "path", "--k", "2"],
        }[case]
        budget = {"budget-not-an-integer": "abc", "budget-zero": "0"}
        if case in budget:
            monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", budget[case])
        spec = TestDecompose.SPEC
        stdin = {"spec-missing-keys": "{}", "spec-not-an-object": "[1, 2]",
                 "spec-k-not-an-integer": json.dumps({**spec, "k": "1"}),
                 "spec-h1-not-a-list": json.dumps({**spec, "h1": 3}),
                 "spec-k-boolean": json.dumps({**spec, "k": True}),
                 "spec-h1-boolean": json.dumps({**spec, "h1": [True]}),
                 "spec-too-deep": too_deep, "points-too-deep": too_deep}
        stdin = io.StringIO(stdin.get(case, ""))
        if case == "spec-stdin-not-utf8":  # stdin that decodes strictly
            stdin = io.TextIOWrapper(io.BytesIO(b'{"k": "\xff"}'),
                                     encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert {"budget-zero": "TOKENSLIDE_NODE_BUDGET must be positive",
                "family-without-n": "--family needs --n"}.get(case, "") in err

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_enumeration_commands_never_crash(self, data):
        kind = data.draw(st.sampled_from(["gen", "realize", "search"]))
        if kind == "gen":
            argv = ["gen", data.draw(st.sampled_from(["--connected",
                                                      "--trees"])),
                    str(data.draw(st.integers(-3, 12)))]
        elif kind == "realize":
            target = data.draw(graphs(min_n=0, max_n=5))
            argv = ["realize", "--search", write_graph6(target),
                    "--k", str(data.draw(st.integers(-1, 4))),
                    "--max-n", str(data.draw(st.integers(-1, 4)))]
        else:
            argv = ["search", data.draw(st.sampled_from(
                SEARCH_NAMES + ("bogus", "", "trees9", "PLANAR6")))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    # JSON values a graph file may hold: well-formed graphs, and every
    # kind of wrong type, size or shape in their place; n stays <= 9, so
    # that no example builds a slide graph of thousands of nodes
    _json_atoms = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                            st.floats(allow_nan=True), st.text(max_size=3))
    _json_graphs = st.one_of(
        st.builds(lambda g, named: {
            "n": g.n, "edges": [list(e) for e in g.edges()],
            "names": [f"v{i}" for i in range(g.n)] if named else None},
            graphs(min_n=0, max_n=7), st.booleans()),
        st.fixed_dictionaries(
            {"n": st.one_of(st.integers(-3, 9), _json_atoms),
             "edges": st.one_of(
                 st.lists(st.lists(st.one_of(st.integers(-2, 9),
                                             _json_atoms), max_size=3),
                          max_size=6),
                 _json_atoms)},
            optional={"names": st.one_of(
                st.lists(_json_atoms, max_size=12), _json_atoms)}),
        st.recursive(_json_atoms, lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(["n", "edges", "names", "x"]),
                            inner, max_size=3)), max_leaves=6))
    # a graph file's bytes: mostly JSON, sometimes raw bytes, which need
    # not be UTF-8
    _graph_files = st.one_of(
        _json_graphs.map(lambda obj: json.dumps(obj).encode()),
        st.binary(max_size=24))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_build_and_analyze_never_crash(self, data, tmp_path):
        command = data.draw(st.sampled_from(["build", "analyze"]))
        source = data.draw(st.sampled_from(["graph6", "json", "text"]))
        if source == "graph6":
            argv = ["--graph6", write_graph6(data.draw(graphs(0, 9)))]
        elif source == "text":
            # mostly malformed graph6; short enough to stay at n <= 9
            argv = ["--graph6", data.draw(st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=130),
                min_size=1, max_size=8))]
        else:
            graph_file = tmp_path / "g.json"
            graph_file.write_bytes(data.draw(self._graph_files))
            argv = ["--json", str(graph_file)]
        k = data.draw(st.one_of(st.none(), st.integers(-2, 5)))
        every = data.draw(st.booleans())
        if command == "build":
            argv += [] if k is None else ["--k", str(k)]
            argv += ["--all"] if every else []
            argv += data.draw(st.sampled_from(
                [[], ["--format", "json"], ["--format", "dot"],
                 ["--format", "xml"]]))
        else:
            argv += [] if k is None else ["--ts", str(k)]
            argv += ["--ts-all"] if every else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *argv])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    # JoinSpec JSON: valid specs over small graphs, and for each field
    # values of the wrong type, range or shape
    _join_specs = st.tuples(graphs(0, 5), graphs(0, 5)).flatmap(
        lambda gs: st.fixed_dictionaries({
            "g1": st.just({"n": gs[0].n,
                           "edges": [list(e) for e in gs[0].edges()]}),
            "g2": st.just({"n": gs[1].n,
                           "edges": [list(e) for e in gs[1].edges()]}),
            "h1": st.lists(st.integers(0, max(gs[0].n - 1, 0)),
                           max_size=gs[0].n),
            "h2": st.lists(st.integers(0, max(gs[1].n - 1, 0)),
                           max_size=gs[1].n),
            "k": st.integers(1, 3)}))
    _bad_vertex_lists = st.one_of(
        st.lists(st.one_of(st.integers(-2, 9), _json_atoms), max_size=4),
        _json_atoms)
    _bad_fields = {"g1": st.one_of(_json_graphs, _json_atoms),
                   "g2": st.one_of(_json_graphs, _json_atoms),
                   "h1": _bad_vertex_lists, "h2": _bad_vertex_lists,
                   "k": st.one_of(st.integers(-1, 4), _json_atoms)}

    # points: spread out at random (mostly in general position), on a
    # small grid (often collinear or co-circular), or booleans, floats,
    # out-of-bound coordinates and entries that are not pairs
    _spread = st.builds(
        lambda seed, n: [[rnd.randint(0, 1000), rnd.randint(0, 1000)]
                         for rnd in [random.Random(seed)] for _ in range(n)],
        st.integers(0, 2 ** 32), st.integers(3, 8))
    _grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(list)
    _bad_point = st.one_of(
        st.lists(st.one_of(st.integers(-10 ** 6 - 2, 10 ** 6 + 2),
                           st.booleans(), st.floats(allow_nan=True)),
                 min_size=2, max_size=2),
        st.lists(st.integers(-5, 5), max_size=3),
        _json_atoms)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_decompose_and_geom_never_crash(self, data):
        kind = data.draw(st.sampled_from(["spec", "bad-spec", "text",
                                          "spread", "grid", "mixed"]))
        if kind in ("spec", "bad-spec", "text"):
            argv = ["decompose", "--stdin"]
            spec = data.draw(self._join_specs)
            if kind == "bad-spec":
                # one field wrong or missing, or no spec at all
                key = data.draw(st.sampled_from(sorted(spec) + ["all"]))
                if key == "all":
                    spec = data.draw(self._json_graphs)
                elif data.draw(st.booleans()):
                    spec[key] = data.draw(self._bad_fields[key])
                else:
                    del spec[key]
            stdin = (data.draw(st.text(max_size=8)) if kind == "text"
                     else json.dumps(spec))
        else:
            pts = data.draw({
                "spread": self._spread,
                "grid": st.lists(self._grid, max_size=8),
                "mixed": st.lists(st.one_of(self._grid, self._bad_point),
                                  max_size=8)}[kind])
            if 0 < len(pts) < 8 and data.draw(st.integers(0, 3)) == 0:
                pts.append(data.draw(st.sampled_from(pts)))  # a duplicate
            stdin = json.dumps(pts)
            if data.draw(st.booleans()):
                argv = ["geom", "--stdin"]
            else:
                argv, stdin = ["geom", "--points", stdin], ""
            for flag in ("--check", "--triangulations", "--flip-graph",
                         "--delaunay", "--check-ts-iso"):
                if data.draw(st.booleans()):
                    argv.append(flag)
            lawson = data.draw(st.sampled_from(
                ["none", "triangulation", "pairs", "junk"]))
            if lawson == "triangulation":
                try:
                    ts = triangulations(pts)
                except InputError:
                    ts = [[]]
                argv += ["--lawson", json.dumps(data.draw(
                    st.sampled_from(ts)))]
            elif lawson != "none":
                argv += ["--lawson", json.dumps(data.draw({
                    "pairs": st.lists(st.lists(st.integers(-1, 8),
                                               max_size=3), max_size=14),
                    "junk": self._json_atoms}[lawson]))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch("sys.stdin", io.StringIO(stdin)):
                code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_json_is_key_sorted(self, capsys):
        _, out, _ = run(capsys, "analyze", "--graph6", write_graph6(path(3)))
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"

    def test_console_script_installed(self):
        """The declared console script runs as its own process.

        Runs the installed ``tokenslide`` executable when one is on PATH;
        from a source checkout, runs the ``[project.scripts]`` entry point
        of pyproject.toml through the same snippet pip's wrapper uses.
        """
        import shutil

        args = ["gen", "--family", "path", "--n", "3"]
        exe = shutil.which("tokenslide")
        env = None
        if exe is not None:
            cmd = [exe, *args]
        else:
            tomllib = pytest.importorskip("tomllib")
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            with pyproject.open("rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["tokenslide"]
            module, func = target.split(":")
            snippet = (f"import sys; from {module} import {func}; "
                       f"sys.exit({func}())")
            cmd = [sys.executable, "-c", snippet, *args]
            env = package_env()

        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == write_graph6(path(3))

    def test_runtime_needs_no_dependency(self):
        """pyproject.toml declares no runtime dependency: the package runs
        on the standard library, and networkx is in the test extra."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == []

    def test_no_command_needs_networkx(self, tmp_path):
        """A fresh process in which `import networkx` fails runs every
        command through cli.main, tree enumeration included."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestDecompose.SPEC))
        runs = [
            ["build", "--graph6", write_graph6(path(6)), "--k", "2"],
            ["analyze", "--graph6", write_graph6(path(12)), "--ts", "3"],
            ["geom", "--points", PTS_JSON, "--triangulations",
             "--flip-graph", "--check-ts-iso"],
            ["decompose", "--spec", str(spec)],
            ["realize", "--search", write_graph6(complete(4)), "--k", "2",
             "--max-n", "5"],
            ["gen", "--connected", "5"],
            ["gen", "--trees", "10"],
            ["search", "planar6"],
            ["search", "trees7"],
            ["search", "trees8"],
        ]
        snippet = ("import contextlib, io, json, sys\n"
                   "sys.modules['networkx'] = None  # import raises\n"
                   "from tokenslide.cli import main\n"
                   "for argv in json.loads(sys.argv[1]):\n"
                   "    with contextlib.redirect_stdout(io.StringIO()):\n"
                   "        assert main(argv) == 0, argv\n"
                   "    print(argv[0])\n")
        r = subprocess.run([sys.executable, "-c", snippet, json.dumps(runs)],
                           capture_output=True, text=True, env=package_env())
        assert r.returncode == 0, r.stderr
        assert r.stdout.split("\n") == [argv[0] for argv in runs] + [""]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_reader_closing_stdout_is_exit_1(self, fmt):
        """A reader that stops early, like `| head -c 100`, ends the run
        with exit 1 and no traceback. TS_5(P_24) prints 1.6 MB as DOT and
        more as JSON, far past a pipe's buffer, so the writer is still
        writing when the pipe closes."""
        cmd = [sys.executable, "-m", "tokenslide.cli", "build", "--graph6",
               write_graph6(path(24)), "--k", "5", "--format", fmt]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=package_env())
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, err
        assert len(head) == 100
        assert err == ""  # no traceback, no "Exception ignored" at exit
