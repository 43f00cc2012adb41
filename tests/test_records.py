"""Per-size scan records: shared by the scans of one run_all or census call,
and sizes past (n - 1)/2 counted on their complements' verdicts."""

import json
from collections import Counter

import pytest
from conftest import record_calls
from oracles import plain_scan

import integra.classify
from integra.classify import in_A_k, in_G_k, shared_records
from integra.cli import main
from integra.groups import construct, to_document
from integra.verify import run_all
from test_classify import SWEPT_SPECS, _swept


def _record_streams(monkeypatch):
    """Record the size-j streams that classify opens: valued ones through
    symmetric_sets_by_orbit, counted ones through count_symmetric_sets."""
    return [
        record_calls(monkeypatch, integra.classify, name)
        for name in ("symmetric_sets_by_orbit", "count_symmetric_sets")
    ]


def _opened(streams):
    """How often each (group id, size) was opened, valued streams first."""
    return Counter((id(g), k) for calls in streams for g, k, *_rest in calls)


def _clear(*records):
    for calls in records:
        del calls[:]


# G_4 fills sizes 1..4 up to its first failure; the A_j then read them or
# scan what G_4 left, and the G_j read them all.
@pytest.mark.parametrize("spec", SWEPT_SPECS)
def test_shared_records_match_plain_scans(spec):
    g = _swept(spec)
    calls = [("G", 4)] + [("A", j) for j in (4, 3, 2, 1)] + [("G", j) for j in (1, 2, 3)]
    with shared_records():
        for cls, j in calls:
            rep = in_A_k(g, j) if cls == "A" else in_G_k(g, j)
            assert rep == plain_scan(g, j, cls), (cls, j)


@pytest.mark.parametrize(
    ("spec", "k"),
    (
        # Members: every set of size 15 - 10 = 5 passes.
        ("quaternion x cyclic:2", 10),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", 9),
        # A failing complement size says nothing of which size-k set fails first.
        ("dihedral:8", 5),
        ("cyclic:5 x cyclic:2", 6),
    ),
)
def test_dense_a_k_reads_a_passing_complement_record(monkeypatch, spec, k):
    g = construct(spec)
    c = g.order - 1 - k
    assert 0 < c < k
    streams = _record_streams(monkeypatch)
    verdicts = record_calls(monkeypatch, integra.classify, "is_integral")
    # Without the complement's record, the scan values size k and opens no
    # other size to get one.
    with shared_records():
        assert in_A_k(g, k) == plain_scan(g, k, "A")
    assert list(_opened(streams)) == [(id(g), k)]
    assert verdicts
    # With it, a size k whose complement size passed is counted, not valued.
    _clear(*streams)
    with shared_records():
        complement = in_A_k(g, c)
        assert list(_opened(streams)) == [(id(g), c)]
        _clear(*streams, verdicts)
        assert in_A_k(g, k) == plain_scan(g, k, "A")
    assert list(_opened(streams)) == [(id(g), k)]
    assert (not verdicts) == complement.member


def test_run_all_opens_each_stream_once(monkeypatch):
    streams = _record_streams(monkeypatch)
    assert all(r.passed for r in run_all())
    opened = _opened(streams)
    assert opened and max(opened.values()) == 1


def test_no_record_outlives_run_all(monkeypatch):
    verdicts = record_calls(monkeypatch, integra.classify, "is_integral")
    run_all()
    first = len(verdicts)
    del verdicts[:]
    run_all()
    assert len(verdicts) == first > 0


def test_census_opens_each_stream_once(monkeypatch, capsys, tmp_path):
    g = construct("quaternion")
    doc = to_document(g)
    (tmp_path / "q8.json").write_text(json.dumps(doc), encoding="utf-8")
    streams = _record_streams(monkeypatch)
    assert main(["census", "--dir", str(tmp_path), "--k", "2", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [(r["class"], r["member"], r["sets_checked"]) for r in reports] == [
        ("A", True, 3), ("G", True, 4),
    ]
    opened = _opened(streams)
    assert sorted(k for _g, k in opened) == [1, 2]
    assert max(opened.values()) == 1
