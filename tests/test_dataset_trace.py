"""Trace container and JSONL persistence."""

import pytest

from repro.dataset.trace import Trace
from repro.errors import DatasetError
from tests.conftest import make_packet


def build_trace():
    return Trace(
        [
            make_packet(host="a.one.com", app_id="app1", target="/x?a=1"),
            make_packet(host="b.one.com", app_id="app1", target="/y?b=2"),
            make_packet(host="c.two.net", app_id="app2", target="/z?c=3", cookie="s=1"),
        ]
    )


class TestContainer:
    def test_len_iter_getitem(self):
        trace = build_trace()
        assert len(trace) == 3
        assert trace[0].host == "a.one.com"
        assert [p.app_id for p in trace] == ["app1", "app1", "app2"]

    def test_append_extend(self):
        trace = Trace()
        trace.extend([make_packet()])
        trace.extend([make_packet(), make_packet()])
        assert len(trace) == 3

    def test_by_app(self):
        groups = build_trace().by_app()
        assert set(groups) == {"app1", "app2"}
        assert len(groups["app1"]) == 2

    def test_by_domain(self):
        groups = build_trace().by_domain()
        assert set(groups) == {"one.com", "two.net"}
        assert len(groups["one.com"]) == 2


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        again = Trace.load_jsonl(path)
        assert len(again) == len(trace)
        for original, loaded in zip(trace, again):
            assert loaded.host == original.host
            assert loaded.request.target == original.request.target
            assert loaded.cookie == original.cookie

    def test_load_skips_blank_lines(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(Trace.load_jsonl(path)) == 3

    def test_load_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": "1.2.3.4"}\n')
        with pytest.raises(DatasetError, match="line 1"):
            Trace.load_jsonl(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(DatasetError):
            Trace.load_jsonl(path)

    def test_concatenated_files_loadable(self, tmp_path):
        """Two saved traces concatenated with cat-like append still load."""
        a, b = tmp_path / "a.jsonl", tmp_path / "combined.jsonl"
        build_trace().save_jsonl(a)
        b.write_text(a.read_text() + a.read_text())
        assert len(Trace.load_jsonl(b)) == 6


class TestGzip:
    def test_gzip_roundtrip(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save_jsonl(path)
        import gzip

        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("{")
        again = Trace.load_jsonl(path)
        assert len(again) == len(trace)

    def test_gzip_smaller_than_plain(self, tmp_path):
        trace = Trace([make_packet(target=f"/x?i={i}") for i in range(200)])
        plain = tmp_path / "t.jsonl"
        packed = tmp_path / "t.jsonl.gz"
        trace.save_jsonl(plain)
        trace.save_jsonl(packed)
        assert packed.stat().st_size < plain.stat().st_size / 2
