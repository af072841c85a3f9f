"""The one-plan incremental run (``pipelines/incremental.py``).

1. Checkpoint interchange: every checkpoint a run writes equals, day by
   day, the chain ``groupby_upload(full_hops=True)`` → ``roll_checkpoint``
   (same keys, same IR columns, equal tail-hop dicts after unpickling),
   and ``serve_with_events`` over a written checkpoint reproduces the
   run's output for that day — for a fresh run, a cached first
   checkpoint, a rolled first checkpoint, a complete day splitting the
   range, a day without left rows and a zero-row bootstrap window. The
   output also equals the one-shot ``temporal_join``.
2. Null keys: null-key events are dropped (reference removeNulls,
   GroupBy.scala:181) by ``groupby_upload`` and the incremental run;
   null-key left rows get null features, as in ``temporal_join``.
"""

import os
import pickle
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from chronon_ray.api import GroupByConf, TQuery, UNBOUNDED, agg, window
from chronon_ray.sources import list_partitions, read_parquet, scan_table
from chronon_ray.state.partitions import PartitionRange, shift_ds
from chronon_ray.testing.tokengen import (gen_events, gen_queries,
                                          write_partitioned as wp)
from chronon_ray.util import dataset_schema

CONF = GroupByConf(
    name="run", sources=(), key_columns=("doc_id",),
    aggregations=(agg("n_tok", "sum", [window(7, "d"), UNBOUNDED]),
                  agg("n_tok", "count", [window(1, "d")]),
                  agg("n_tok", "max", [window(3, "d")]),
                  agg("source", "unique_count", [window(7, "d")])))


@pytest.fixture(scope="module")
def env(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("incremental_run")
    # queries span 14 days, events 10: the first query days predate
    # every event
    ev = gen_events(3000, n_keys=60, seed=21, span_days=10)
    q = gen_queries(600, ev, n_keys=60, seed=22)
    wp(ev, str(base / "events"))
    wp(q, str(base / "queries"))
    return {"base": base, "events": str(base / "events"),
            "queries": str(base / "queries"),
            "ev_days": list_partitions(str(base / "events"))}


def _end_ms(ds):
    return int(pd.Timestamp(ds).value // 10**6)


def _table(ds):
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables \
        else dataset_schema(ds).empty_table()


def _events(env, lo, hi):
    return scan_table(env["events"], TQuery(start_partition=lo,
                                            end_partition=hi,
                                            time_column="ts"))


def _run(env, left, out, ck, start, end):
    from chronon_ray.pipelines.backfill import backfill_incremental

    return backfill_incremental(left, env["events"], CONF, out, ck, start,
                                end, num_partitions=4, step_days=30)


def _norm(name, v):
    if name.endswith("__tailhops") and v is not None:
        return pickle.loads(v)
    if isinstance(v, list):
        return sorted(v, key=repr)
    return v


def _by_key(t: pa.Table) -> dict:
    return {r["doc_id"]: {k: _norm(k, v) for k, v in r.items()}
            for r in t.to_pylist()}


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(lambda v: tuple(v)
                              if isinstance(v, (list, np.ndarray)) else v)
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _read_days(out, days):
    frames = [pq.read_table(os.path.join(out, f"ds={d}")).to_pandas()
              for d in days if os.path.isdir(os.path.join(out, f"ds={d}"))]
    return pd.concat(frames, ignore_index=True)


def _check_interchange(env, left, out, ck, days):
    """Every checkpoint of ``days`` equals the upload → roll chain, and
    serving it reproduces the written output of its day."""
    from chronon_ray.pipelines.backfill import max_window_days
    from chronon_ray.pipelines.upload import (groupby_upload,
                                              roll_checkpoint,
                                              serve_with_events)

    w = max_window_days(CONF) or 3650
    chain = None
    for i, d in enumerate(days):
        end = _end_ms(d)
        if i == 0:
            chain = groupby_upload(
                _events(env, shift_ds(d, -w), shift_ds(d, -1)), CONF, end,
                num_partitions=4, full_hops=True)
        else:
            prev = shift_ds(d, -1)
            chain = roll_checkpoint(chain, _events(env, prev, prev), CONF,
                                    _end_ms(prev), end, num_partitions=4)
        chain_t = _table(chain)
        fused = pq.read_table(os.path.join(ck, f"ds={d}"))
        assert fused.schema == chain_t.schema, d
        assert _by_key(fused) == _by_key(chain_t), d
        chain = ray.data.from_arrow(chain_t)  # one execution per link
        written = os.path.join(out, f"ds={d}")
        if not os.path.isdir(written):
            continue
        served = serve_with_events(
            read_parquet(os.path.join(ck, f"ds={d}")), _events(env, d, d),
            scan_table(left, TQuery(start_partition=d, end_partition=d,
                                    time_column="ts")),
            CONF, end, num_partitions=4, full_hops=True).to_pandas()
        pd.testing.assert_frame_equal(
            _canon(served.drop(columns=["ds"])),
            _canon(pq.read_table(written).to_pandas()),
            check_dtype=False)


def _check_oracle(env, left, out, days):
    from chronon_ray.pipelines.temporal import temporal_join

    got = _read_days(out, days)
    exp = temporal_join(
        scan_table(left, TQuery(start_partition=days[0],
                                end_partition=days[-1])),
        scan_table(env["events"], TQuery()), CONF,
        num_partitions=4).to_pandas().drop(columns=["ds"])
    pd.testing.assert_frame_equal(_canon(got), _canon(exp),
                                  check_dtype=False, rtol=1e-9)


STATES = ("fresh", "cached_first", "rolled_first", "split", "no_left_mid",
          "zero_row_bootstrap")


@pytest.mark.parametrize("state", STATES)
def test_run_checkpoints_match_upload_roll_chain(env, tmp_path, state):
    out, ck = str(tmp_path / "out"), str(tmp_path / "ck")
    left = env["queries"]
    days = env["ev_days"][-3:]
    if state == "zero_row_bootstrap":
        days = env["ev_days"][:3]  # nothing before the first event day
    d0, d1, d2 = days
    if state == "no_left_mid":
        left = str(tmp_path / "left")
        shutil.copytree(env["queries"], left)
        shutil.rmtree(os.path.join(left, f"ds={d1}"))
    if state == "rolled_first":  # only ck@first−1 present
        s = _run(env, left, out, ck, shift_ds(d0, -1), shift_ds(d0, -1))
        assert s["checkpoints"] == {shift_ds(d0, -1): "bootstrapped"}
    if state in ("cached_first", "split"):
        _run(env, left, out, ck, d0, d2)
        for d in days:
            if state == "cached_first" or d != d1:
                shutil.rmtree(os.path.join(out, f"ds={d}"))
        for d in (days[1:] if state == "cached_first" else [d2]):
            shutil.rmtree(os.path.join(ck, f"ds={d}"))

    s = _run(env, left, out, ck, d0, d2)

    want = {"fresh": {d0: "bootstrapped", d1: "rolled", d2: "rolled"},
            "cached_first": {d0: "cached", d1: "rolled", d2: "rolled"},
            "rolled_first": {d0: "rolled", d1: "rolled", d2: "rolled"},
            "split": {d0: "cached", d2: "rolled"},
            "no_left_mid": {d0: "bootstrapped", d1: "rolled", d2: "rolled"},
            "zero_row_bootstrap": {d0: "bootstrapped", d1: "rolled",
                                   d2: "rolled"}}[state]
    assert s["checkpoints"] == want
    if state == "no_left_mid":
        assert s["no_left"] == [d1]
        assert not os.path.exists(os.path.join(out, f"ds={d1}"))
        assert sorted(s["partitions_written"]) == [d0, d2]
    elif state == "split":
        assert s["skipped"] == [d1]
        assert sorted(s["partitions_written"]) == [d0, d2]
    else:
        assert sorted(s["partitions_written"]) == days
    if state == "zero_row_bootstrap":
        assert pq.read_table(os.path.join(ck, f"ds={d0}")).num_rows == 0
    for d in days:
        m = pd.read_json(os.path.join(ck, f"ds={d}", "_MANIFEST.json"),
                         typ="series")
        assert m["batch_end_ts"] == _end_ms(d)

    first = shift_ds(d0, -1) if state == "rolled_first" else d0
    _check_interchange(env, left, out, ck,
                       PartitionRange(first, d2).partitions())
    _check_oracle(env, left, out, [d for d in days
                                   if state != "no_left_mid" or d != d1])
    # resume computes nothing
    again = _run(env, left, out, ck, d0, d2)
    assert again["partitions_written"] == []
    assert all(how == "cached" for how in again["checkpoints"].values())


# ------------------------------------------------------------- null keys


@pytest.fixture(scope="module")
def null_env(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("incremental_null_keys")
    rng = np.random.default_rng(5)
    ev = gen_events(3000, n_keys=60, seed=31, span_days=10)
    q = gen_queries(600, ev, n_keys=60, seed=32, span_days=10)

    def null_keys(t):
        mask = pa.array(rng.random(len(t)) < 0.1)
        return t.set_column(t.column_names.index("doc_id"), "doc_id",
                            pc.if_else(mask, pa.nulls(len(t), pa.string()),
                                       t["doc_id"]))

    wp(null_keys(ev), str(base / "events"))
    wp(null_keys(q), str(base / "queries"))
    return {"base": base, "events": str(base / "events"),
            "queries": str(base / "queries"),
            "ev_days": list_partitions(str(base / "events"))}


def test_null_key_events_upload_and_incremental(null_env, tmp_path):
    from chronon_ray.pipelines.upload import groupby_upload

    days = null_env["ev_days"][-3:]
    ck = _table(groupby_upload(_events(null_env, None, shift_ds(days[0], -1)),
                               CONF, _end_ms(days[0]), num_partitions=4,
                               full_hops=True))
    assert ck.num_rows and ck["doc_id"].null_count == 0

    left = scan_table(null_env["queries"],
                      TQuery(start_partition=days[0], end_partition=days[-1]))
    assert _table(left)["doc_id"].null_count  # the check below sees them
    out = str(tmp_path / "out")
    _run(null_env, null_env["queries"], out, str(tmp_path / "ck"), days[0],
         days[-1])
    assert _read_days(out, days)["doc_id"].isna().any()
    _check_oracle(null_env, null_env["queries"], out, days)
