"""Report math and serialization."""

import copy
import csv
import dataclasses
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import JitterConfig, SessionConfig, compute_cdf, percentile_nearest_rank
from relaysim.reports import CSV_BLOCK, REPORT_SCHEMA_VERSION, build_report, write_summary_csv


def test_percentile_nearest_rank():
    arr = np.array([1.0, 2.0, 3.0, 4.0])
    assert percentile_nearest_rank(arr, 0.50) == 2.0  # lower value at midpoint
    assert percentile_nearest_rank(arr, 0.25) == 1.0
    assert percentile_nearest_rank(arr, 0.51) == 3.0
    assert percentile_nearest_rank(arr, 1.0) == 4.0
    assert percentile_nearest_rank(np.array([7.0]), 0.01) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile_nearest_rank(np.array([]), 0.5)
    with pytest.raises(ValueError):
        percentile_nearest_rank(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        percentile_nearest_rank(np.array([1.0]), 1.5)


def test_compute_cdf():
    assert compute_cdf([3.0, 1.0, 3.0]) == [(1.0, pytest.approx(1 / 3)), (3.0, 1.0)]
    assert compute_cdf([]) == []
    cdf = compute_cdf([5.0, 2.0, 9.0, 2.0])
    assert [v for v, _ in cdf] == [2.0, 5.0, 9.0]
    assert cdf[-1][1] == 1.0


def _report(seed=1, loss_threshold=None, **kw):
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=10, interval_ms=10.0,
                        warmup_ms=1000.0, seed=seed, loss_threshold=loss_threshold,
                        jitter=JitterConfig(kind="watermark"))
    args = dict(
        method="drt-wm", latencies=[60.0, 60.0, 50.0], dropped_late=2,
        tail_flushed=1, path_changes=[], overhead_sum_ms=0.0, candidate_paths=1,
        topk_paths=[0])
    args.update(kw)
    return build_report(cfg, **args)


def test_build_report_basics():
    rep = _report()
    assert rep.delivered == 3
    assert rep.loss_rate == pytest.approx(0.2)
    assert rep.latency_mean_ms == pytest.approx(170.0 / 3)
    assert rep.latency_p50_ms == 60.0
    assert rep.latency_max_ms == 60.0
    assert rep.cdf == [(50.0, pytest.approx(1 / 3)), (60.0, 1.0)]


def test_loss_threshold_logic():
    assert _report(loss_threshold=0.1).loss_threshold_exceeded is True
    assert _report(loss_threshold=0.2).loss_threshold_exceeded is False  # not strict
    assert _report(loss_threshold=None).loss_threshold_exceeded is None


def test_json_round_trips():
    rep = _report(path_changes=[(100.0, 0, 3)])
    d = json.loads(rep.to_json())
    assert d["method"] == "drt-wm"
    assert d["path_changes"] == [[100.0, 0, 3]]
    assert rep.to_json() == _report(path_changes=[(100.0, 0, 3)]).to_json()


def test_csv_writers_deterministic(tmp_path):
    rep = _report()
    p1 = write_summary_csv([rep, _report(seed=2)], tmp_path / "a.csv")
    p2 = write_summary_csv([rep, _report(seed=2)], tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[1]
    assert header.startswith("method,endpoint,user,seed")
    c1 = rep.write_cdf_csv(tmp_path / "c1.csv")
    c2 = rep.write_cdf_csv(tmp_path / "c2.csv")
    assert c1.read_bytes() == c2.read_bytes()


def test_to_dict_is_an_independent_copy():
    rep = _report(path_changes=[(100.0, 0, 3)], topk_paths=[0, 2])
    before = rep.to_json()
    d = rep.to_dict()
    d["config"]["router"]["kind"] = "vcroute_ts"
    d["config"]["jitter"].clear()
    d["topk_paths"].append(9)
    d["path_changes"][0][1] = 7
    assert rep.to_json() == before


def test_json_holds_no_cdf():
    # schema 2: the CDF is written to its CSV alone, and the two fields whose
    # value never varied are gone
    rep = _report(path_changes=[(100.0, 0, 3)])
    d = json.loads(rep.to_json())
    assert REPORT_SCHEMA_VERSION == 2
    assert d["schema_version"] == 2
    assert not {"cdf", "control_messages", "estimator_implementation"} & set(d)
    assert d["plan_update_count"] == 1
    assert rep.cdf == [(50.0, pytest.approx(1 / 3)), (60.0, 1.0)]


# ------------------------------------------------- the writers against json and csv
#
# The reference for the JSON is one indented json.dumps of to_dict; the CDF
# CSV is formatted in bulk, and its reference is csv.writer rows.

def _reference_json(rep):
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def _reference_cdf_csv(rep):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["schema_version", REPORT_SCHEMA_VERSION])
    writer.writerow(["latency_ms", "cumulative_fraction"])
    writer.writerows(rep.cdf)
    return buf.getvalue().encode()


def _many_rows(n):
    rng = np.random.default_rng(n)
    values = np.unique(rng.gamma(4.0, 40.0, n) + rng.random(n) * 1e-3)
    cdf = list(zip(values.tolist(), (np.arange(1, values.size + 1) / values.size).tolist()))
    changes = [(float(t), int(a), int(b)) for t, a, b in
               zip(np.cumsum(rng.random(n) * 1e4), rng.integers(0, 17, n), rng.integers(0, 17, n))]
    return cdf, changes


@pytest.mark.parametrize("count", [0, 1, 20_000])
def test_to_json_equals_one_indented_dumps(count):
    # path_changes is formatted by json's C encoder and respaced; an
    # unpruned 8-relay vcr-wm session makes about 18k changes
    rep = dataclasses.replace(_report(), path_changes=_many_rows(count)[1] if count else [])
    assert len(rep.path_changes) == count
    assert rep.to_json() == json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


_NAN, _INF = float("nan"), float("inf")
ROW_CASES = {
    "empty": ([], []),
    "one row": ([(150.25, 1.0)], [(61000.0, 0, 3)]),
    "a full block": _many_rows(CSV_BLOCK),
    "5000 rows": _many_rows(5000),
    "nan and inf": ([(_NAN, 0.5), (-_INF, _NAN), (_INF, 1.0)], [(_INF, 0, 1), (_NAN, 1, 0)]),
    "numpy floats and ints": ([(np.float64(0.1), 1), (2, np.float64(1e-07)),
                               (np.float64(1e16), np.float64(-0.0))],
                              [(np.float64(100.5), 2, 0), (7, 0, 2)]),
    # rows equal in value to float rows that print differently
    "an int for a float": ([(1, 1.0)] * 3, []),
    "negative zero": ([(-0.0, 0.5), (2.5, 1.0)], []),
}
NAME_CASES = {
    "plain": ("e0", "u0"),
    "awkward": ('e"0\\\n', "ü→ [[1.0,0.5],[2.0,1.0]], [\n      1.0"),
}


@pytest.mark.parametrize("names", sorted(NAME_CASES))
@pytest.mark.parametrize("rows", sorted(ROW_CASES))
def test_writers_equal_json_dumps_and_csv_writer(tmp_path, rows, names):
    cdf, changes = ROW_CASES[rows]
    endpoint, user = NAME_CASES[names]
    rep = dataclasses.replace(_report(), cdf=list(cdf), path_changes=list(changes),
                              endpoint=endpoint, user=user, method=user)
    want = _reference_json(rep)
    assert rep.to_json() == want
    assert rep.write_json(tmp_path / "r.json").read_bytes() == want.encode()
    assert rep.write_cdf_csv(tmp_path / "c.csv").read_bytes() == _reference_cdf_csv(rep)


# ------------------------------------------------- writes in any order
#
# A report keeps nothing between writes: any order of the writers, on a
# report or its copy, gives the reference bytes.

def _case_report(rows, names):
    cdf, changes = ROW_CASES[rows]
    endpoint, user = NAME_CASES[names]
    return dataclasses.replace(_report(), cdf=list(cdf), path_changes=list(changes),
                               endpoint=endpoint, user=user, method=user)


def _assert_writes_reference(rep, tmp_path, order=("json", "csv")):
    want_json, want_csv = _reference_json(rep), _reference_cdf_csv(rep)
    for writer in order:
        if writer == "json":
            assert rep.to_json() == want_json
            assert rep.write_json(tmp_path / "r.json").read_bytes() == want_json.encode()
        else:
            assert rep.write_cdf_csv(tmp_path / "c.csv").read_bytes() == want_csv


WRITE_ORDERS = {"csv first": ("csv", "json"), "json twice": ("json", "json", "csv")}


@pytest.mark.parametrize("order", sorted(WRITE_ORDERS))
@pytest.mark.parametrize("names", sorted(NAME_CASES))
@pytest.mark.parametrize("rows", sorted(ROW_CASES))
def test_writers_equal_the_reference_in_any_order(tmp_path, rows, names, order):
    _assert_writes_reference(_case_report(rows, names), tmp_path, WRITE_ORDERS[order])


@pytest.mark.parametrize("copy_of", ["pickle", "deepcopy"])
def test_a_written_report_equals_and_copies_as_an_unwritten_one(tmp_path, copy_of):
    written, unwritten = _case_report("5000 rows", "awkward"), _case_report("5000 rows", "awkward")
    _assert_writes_reference(written, tmp_path)
    assert written == unwritten
    assert repr(written) == repr(unwritten)
    assert written.to_dict() == unwritten.to_dict()
    if copy_of == "pickle":
        twin = pickle.loads(pickle.dumps(written))
    else:
        twin = copy.deepcopy(written)
    assert twin == unwritten
    _assert_writes_reference(twin, tmp_path, ("csv", "json"))


_SPECIAL = [0.0, -0.0, _NAN, _INF, -_INF, 0, 1, -7, np.float64(-0.0), np.float64(_NAN),
            np.float64(_INF), 5e-324, 1e16, 1.7976931348623157e308]


@st.composite
def _cdf_rows(draw):
    """Up to two CSV blocks and a bit of rows: Python floats, ints, numpy
    floats and the special values, with some drawn floats up front."""
    n = draw(st.integers(0, 2 * CSV_BLOCK + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.gamma(2.0, 50.0, 2 * n) * 10.0 ** rng.integers(-8, 9, 2 * n)
    kinds = rng.integers(0, 4, 2 * n)
    picks = rng.integers(0, len(_SPECIAL), 2 * n)
    numbers = [float(v) if k == 0 else int(v) if k == 1 else np.float64(v) if k == 2
               else _SPECIAL[p] for v, k, p in zip(values.tolist(), kinds.tolist(), picks.tolist())]
    drawn = draw(st.lists(st.floats() | st.integers(-10**20, 10**20), max_size=6))
    numbers[:len(drawn)] = drawn[:len(numbers)]
    return list(zip(numbers[0::2], numbers[1::2]))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), rows=_cdf_rows())
def test_writers_equal_the_reference_through_calls(tmp_path_factory, data, rows):
    tmp_path = tmp_path_factory.mktemp("writes")
    rep = dataclasses.replace(_report(), cdf=rows)
    want_json, want_csv = _reference_json(rep), _reference_cdf_csv(rep)
    for step in data.draw(st.lists(st.sampled_from(
            ["to_json", "write_json", "write_cdf_csv"]), min_size=1, max_size=8)):
        if step == "to_json":
            assert rep.to_json() == want_json
        elif step == "write_json":
            assert rep.write_json(tmp_path / "r.json").read_bytes() == want_json.encode()
        else:
            assert rep.write_cdf_csv(tmp_path / "c.csv").read_bytes() == want_csv
