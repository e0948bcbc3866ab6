from tokenslide import SearchReport, parse_graph6, run_search
from tokenslide.searches import SEARCH_NAMES

from conftest import raises_input_error


class TestRunSearch:
    def test_trees7_all_planar(self):
        r = run_search("trees7")
        assert len(r.verdicts) == 11
        assert r.summary == {"planar": 11, "nonplanar": 0}
        assert all(v["ts_planar"] for v in r.verdicts)

    def test_trees8_split(self):
        r = run_search("trees8")
        assert len(r.verdicts) == 23
        assert r.summary == {"planar": 16, "nonplanar": 7}

    def test_planar6_count(self):
        r = run_search("planar6")
        assert len(r.verdicts) == 99
        for v in r.verdicts:
            g = parse_graph6(v["graph6"])
            assert g.n == 6

    def test_cycles(self):
        r = run_search("cycles-planarity")
        assert [v["n"] for v in r.verdicts] == list(range(3, 9))
        for v in r.verdicts:
            assert v["ts_planar"] == (v["n"] <= 6)

    def test_unknown_name(self):
        with raises_input_error("unknown search 'nope'; choices: "
                                + ", ".join(SEARCH_NAMES)):
            run_search("nope")

    def test_verdict_fields(self):
        r = run_search("cycles-planarity")
        v = r.verdicts[0]
        assert set(v) == {"graph6", "ts_nodes", "ts_edges", "ts_planar", "n"}

    def test_json_excludes_wall_time(self):
        r = run_search("cycles-planarity")
        assert isinstance(r, SearchReport)
        assert r.wall_time >= 0
        js = r.to_json()
        assert set(js) == {"name", "verdicts", "summary"}
