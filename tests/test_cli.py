import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tokenslide import (
    add_isolated,
    complete,
    cycle,
    make_graph,
    parse_graph6,
    path,
    write_graph6,
)
from tokenslide.cli import main
from tokenslide.searches import SEARCH_NAMES

from conftest import diamond, graphs, paw

PTS_JSON = "[[0,8],[7,16],[16,9],[8,0],[5,6],[3,9]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "exactly one" in err

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

    def test_golden_stdout(self, capsys):
        # the first hit depends on the enumeration order; SHA-256 recorded
        # when every extension of every smaller graph was canonised
        code, out, err = run(capsys, "realize", "--search",
                             write_graph6(path(3)), "--k", "2",
                             "--max-n", "5")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "aadef507ad4ddd41b86d49af478e348e4c2e51eec26f94f9171476e22df11e62"

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

    @pytest.mark.parametrize("spec,sha", [
        (SPEC,
         "a4d0026dbee4bf19469c7ee52c35c96407ca7586b68df8f164f2ab2f90ec6556"),
        (SPEC3,
         "8b9f6bf24b01c949291b21bad3acdf0cc032ba364bf1f6dfae0ff446afea7088"),
    ], ids=["SPEC", "P5-C6-k3"])
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

    @pytest.mark.parametrize("case", [
        "build-k-zero", "analyze-ts-zero", "points-not-pairs",
        "points-not-json", "lawson-segment-of-one", "json-edge-of-one",
        "budget-not-an-integer", "json-file-missing", "spec-file-missing",
        "spec-missing-keys", "spec-not-an-object", "spec-k-not-an-integer",
        "spec-h1-not-a-list", "spec-k-boolean", "spec-h1-boolean",
        "json-n-boolean", "json-edge-boolean", "point-boolean",
        "lawson-segment-boolean"])
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
        }[case]
        if case == "budget-not-an-integer":
            monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", "abc")
        spec = TestDecompose.SPEC
        stdin = {"spec-missing-keys": "{}", "spec-not-an-object": "[1, 2]",
                 "spec-k-not-an-integer": json.dumps({**spec, "k": "1"}),
                 "spec-h1-not-a-list": json.dumps({**spec, "h1": 3}),
                 "spec-k-boolean": json.dumps({**spec, "k": True}),
                 "spec-h1-boolean": json.dumps({**spec, "h1": [True]})}
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin.get(case, "")))
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

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
    # kind of wrong type, size or shape in their place; n stays <= 9, as
    # analyze --ts-all of the edgeless graph on 12 vertices takes seconds
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
            graph_file.write_text(json.dumps(data.draw(self._json_graphs)))
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
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import tokenslide

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
            pkg_root = str(Path(tokenslide.__file__).resolve().parents[1])
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (pkg_root, env.get("PYTHONPATH")) if p)

        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == write_graph6(path(3))
