"""Multi-part join assembly, snapshot unrolling, derivations, skew filter —
vs DuckDB oracles in the reference JoinTest style."""

import numpy as np
import pyarrow.compute as pc
import pytest

from chronon_ray.api import (
    Accuracy,
    EventSource,
    GroupByConf,
    JoinConf,
    JoinPart,
    TQuery,
    UNBOUNDED,
    agg,
    window,
)
from chronon_ray.pipelines.joins import (
    apply_derivations,
    compute_join,
    distinct_rows,
    skew_filter,
    snapshot_events_unrolled,
)
from chronon_ray.sources import scan_table
from chronon_ray.windowing.resolution import tail_hop_millis


HOP7 = tail_hop_millis(window(7, "d"))
MS7 = 7 * 86_400_000


def test_compute_join_two_parts(ray_session, duck, sf_dir):
    events_src = EventSource(table=f"{sf_dir}/events.parquet", query=TQuery())
    left_src = EventSource(
        table=f"{sf_dir}/events.parquet",
        query=TQuery.of(selects={"user_id": "user_id", "ts": "ts",
                                 "event_id": "event_id"},
                        wheres=[lambda t: pc.equal(t["event_type"], "purchase")]))
    gb_sum = GroupByConf(name="gb_sum", sources=(events_src,),
                         key_columns=("user_id",),
                         aggregations=(agg("value", "sum", [window(7, "d")]),))
    gb_cnt = GroupByConf(name="gb_cnt", sources=(events_src,),
                         key_columns=("user_id",),
                         aggregations=(agg("value", "count", [UNBOUNDED]),))
    jc = JoinConf(name="j", left=left_src,
                  parts=(JoinPart(group_by=gb_sum), JoinPart(group_by=gb_cnt,
                                                             prefix="p2")))
    out = compute_join(jc, num_partitions=8).to_pandas()
    out = out.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    exp = duck.sql(f"""
        with q as (select user_id, epoch_ms(ts) as ts, event_id from events
                   where event_type = 'purchase'),
             e as (select user_id, epoch_ms(ts) as ts, value from events)
        select q.user_id, q.ts, q.event_id,
            sum(case when e.ts < q.ts
                 and e.ts >= ((q.ts - {MS7}) // {HOP7}) * {HOP7}
                 then e.value end) as s7,
            count(case when e.ts < q.ts then e.value end) as cnt
        from q left join e on q.user_id = e.user_id
        group by q.user_id, q.ts, q.event_id
        order by q.user_id, q.ts, q.event_id
    """).df()
    assert len(out) == len(exp)
    g = out["gb_sum_value_sum_7d"].astype(float).to_numpy()
    w = exp["s7"].astype(float).to_numpy()
    nan = np.isnan(g) & np.isnan(w)
    assert (np.isnan(g) == np.isnan(w)).all()
    np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-9)
    got_cnt = out["p2_gb_cnt_value_count"].fillna(0).astype(int).to_numpy()
    np.testing.assert_array_equal(got_cnt, exp["cnt"].astype(int))


def test_compute_join_one_column_per_output_name(ray_session, tmp_path):
    """Identical parts under one output name collapse into one column;
    two different parts under one name (``output_name`` leaves the
    percentiles out) raise at plan time."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day = 86_400_000
    pq.write_table(pa.table({"g": ["a", "a", "b"],
                             "ts": pa.array([day, 2 * day, day], pa.int64()),
                             "v": [1.0, 2.0, 4.0]}), tmp_path / "ev.parquet")
    pq.write_table(pa.table({"g": ["a", "b", "c"],
                             "ts": pa.array([3 * day] * 3, pa.int64())}),
                   tmp_path / "q.parquet")

    def conf(*aggs):
        gb = GroupByConf(name="p", key_columns=("g",), aggregations=aggs,
                         sources=(EventSource(
                             table=str(tmp_path / "ev.parquet")),))
        return JoinConf(name="dup", parts=(JoinPart(group_by=gb),),
                        left=EventSource(table=str(tmp_path / "q.parquet")))

    out = compute_join(conf(agg("v", "sum", [UNBOUNDED, UNBOUNDED])),
                       num_partitions=2).to_pandas().sort_values("g")
    assert list(out.columns) == ["g", "ts", "p_v_sum"]
    assert out["p_v_sum"].tolist()[:2] == [3.0, 4.0]
    assert out["p_v_sum"].isna().tolist() == [False, False, True]
    with pytest.raises(ValueError, match="v_approx_percentile"):
        compute_join(conf(agg("v", "approx_percentile", [UNBOUNDED],
                              percentiles="0.5"),
                          agg("v", "approx_percentile", [UNBOUNDED],
                              percentiles="0.9")), num_partitions=2)


def test_snapshot_unrolled_vs_duckdb(ray_session, duck, sf_dir):
    """EOD-accurate multi-day groupby: value per (user, ds) for 3 days."""
    ev = scan_table(f"{sf_dir}/events.parquet", TQuery(time_column="ts"))
    conf = GroupByConf(name="snap", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum", [window(7, "d")]),
                                     agg("value", "count", [window(2, "d")])))
    days = ["2024-01-10", "2024-01-11", "2024-01-12"]
    out = snapshot_events_unrolled(ev, conf, days, num_partitions=8).to_pandas()
    out = out.sort_values(["user_id", "ds"]).reset_index(drop=True)
    exp = duck.sql("""
        with days as (select unnest(['2024-01-10','2024-01-11','2024-01-12']) as ds),
             keys as (select distinct user_id from events),
             grid as (select user_id, ds,
                      epoch_ms(cast(ds as date) + interval 1 day) as eod
                      from keys cross join days),
             e as (select user_id, epoch_ms(ts) as ts, value from events)
        select g.user_id, g.ds,
            sum(case when e.ts < g.eod and e.ts >= g.eod - 7*86400000
                 then e.value end) as s7,
            count(case when e.ts < g.eod and e.ts >= g.eod - 2*86400000
                 then e.value end) as c2
        from grid g left join e on g.user_id = e.user_id
        group by g.user_id, g.ds order by g.user_id, g.ds
    """).df()
    assert len(out) == len(exp)
    g = out["value_sum_7d"].astype(float).to_numpy()
    w = exp["s7"].astype(float).to_numpy()
    nan = np.isnan(g) & np.isnan(w)
    assert (np.isnan(g) == np.isnan(w)).all()
    np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-9)
    np.testing.assert_array_equal(out["value_count_2d"].fillna(0).astype(int),
                                  exp["c2"].astype(int))


def test_derivations_and_skew_filter(ray_session, sf_dir):
    ev = scan_table(f"{sf_dir}/events.parquet", TQuery(time_column="ts"))
    filtered = skew_filter(ev, [("event_type", ("error",))]).to_pandas()
    assert "error" not in set(filtered["event_type"])
    derived = apply_derivations(
        ev, [("*", "*"), ("value_x2", lambda t: pc.multiply(t["value"], 2)),
             ("etype", "event_type")]).to_pandas()
    np.testing.assert_allclose(derived["value_x2"], derived["value"] * 2)
    assert (derived["etype"] == derived["event_type"]).all()


def test_distinct_rows(ray_session, sf_dir, duck):
    ev = scan_table(f"{sf_dir}/events.parquet", TQuery(time_column="ts"))
    out = distinct_rows(ev, ["user_id", "event_type"], num_partitions=8).to_pandas()
    exp = duck.sql("select count(*) c from (select distinct user_id, event_type "
                   "from events)").fetchone()[0]
    assert len(out) == exp
    assert not out.duplicated().any()


def test_label_join_vs_duckdb(ray_session, duck, sf_dir):
    """Forward window: labels strictly after ts within hop-padded 1d."""
    from chronon_ray.api import GroupByConf, agg, window as W
    from chronon_ray.pipelines.joins import label_join
    from chronon_ray.sources import scan_table
    from chronon_ray.api import TQuery

    feats = scan_table(f"{sf_dir}/events.parquet",
                       TQuery.of(selects={"user_id": "user_id", "ts": "ts",
                                          "event_id": "event_id"},
                                 wheres=[lambda t: pc.equal(t["event_type"],
                                                            "purchase")]))
    labels = scan_table(f"{sf_dir}/events.parquet", TQuery(time_column="ts"))
    conf = GroupByConf(name="lbl", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum", [W(1, "d")]),
                                     agg("value", "count", [W(1, "d")])))
    out = label_join(feats, labels, conf, num_partitions=8).to_pandas()
    out = out.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    hop = tail_hop_millis(W(1, "d"))
    ms1d = 86_400_000
    # negated-time tail round(-ts - W, hop) == -ceil-style bound in real time:
    # e.ts <= -((-q.ts - W) // hop) * hop  and e.ts > q.ts
    exp = duck.sql(f"""
        with q as (select user_id, epoch_ms(ts) as ts, event_id from events
                   where event_type = 'purchase'),
             e as (select user_id, epoch_ms(ts) as ts, value from events)
        select q.user_id, q.ts, q.event_id,
            sum(case when e.ts > q.ts
                 and -e.ts >= cast(floor((-q.ts - {ms1d}) / {hop}.0) as bigint) * {hop}
                 then e.value end) as value_sum_1d,
            count(case when e.ts > q.ts
                 and -e.ts >= cast(floor((-q.ts - {ms1d}) / {hop}.0) as bigint) * {hop}
                 then e.value end) as value_count_1d
        from q left join e on q.user_id = e.user_id
        group by q.user_id, q.ts, q.event_id
        order by q.user_id, q.ts, q.event_id
    """).df()
    assert len(out) == len(exp)
    g = out["value_sum_1d"].astype(float).to_numpy()
    w = exp["value_sum_1d"].astype(float).to_numpy()
    nan = np.isnan(g) & np.isnan(w)
    assert (np.isnan(g) == np.isnan(w)).all()
    np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-9)
    np.testing.assert_array_equal(out["value_count_1d"].fillna(0).astype(int),
                                  exp["value_count_1d"].astype(int))


def test_join_source_chaining(ray_session, duck, sf_dir):
    """A Join's output as the left of another GroupBy (reference
    api.thrift:125-128 JoinSource): features-of-features."""
    from chronon_ray.api import JoinSource
    from chronon_ray.pipelines.joins import compute_join
    from chronon_ray.pipelines.groupby import aggregate_snapshot
    from chronon_ray.sources import scan_source
    import numpy as np

    events_src = EventSource(table=f"{sf_dir}/events.parquet", query=TQuery())
    left_src = EventSource(
        table=f"{sf_dir}/events.parquet",
        query=TQuery.of(selects={"user_id": "user_id", "ts": "ts"},
                        wheres=[lambda t: pc.equal(t["event_type"],
                                                   "purchase")]))
    gb = GroupByConf(name="gb1", sources=(events_src,),
                     key_columns=("user_id",),
                     aggregations=(agg("value", "count", [UNBOUNDED]),))
    jc = JoinConf(name="inner_join", left=left_src,
                  parts=(JoinPart(group_by=gb),))
    # downstream GroupBy over the join's output: avg feature value per user
    chained = GroupByConf(
        name="chained", sources=(JoinSource(join=jc),),
        key_columns=("user_id",),
        aggregations=(agg("gb1_value_count", "max"),))
    src = scan_source(chained.sources[0])
    out = aggregate_snapshot(src, chained, num_partitions=4).to_pandas()
    exp = duck.sql("""
        with q as (select user_id, epoch_ms(ts) as ts from events
                   where event_type = 'purchase'),
             e as (select user_id, epoch_ms(ts) as ts, value from events)
        select q.user_id,
               max(cnt) as mx
        from (select q.user_id, q.ts,
                     count(case when e.ts < q.ts then e.value end) as cnt
              from q left join e on q.user_id = e.user_id
              group by q.user_id, q.ts) q
        group by q.user_id
    """).df()
    m = out.merge(exp, on="user_id")
    assert len(m) == len(out) == len(exp)
    np.testing.assert_array_equal(
        m["gb1_value_count_max"].to_numpy(dtype=np.int64),
        m["mx"].to_numpy(dtype=np.int64))


def test_label_lifecycle_versions_and_latest(ray_session, sf_dir):
    """label_ds-versioned label tables + the latest-label view."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from chronon_ray.pipelines.joins import (label_join_versioned,
                                             latest_label_view)

    D0 = 1_704_067_200_000  # 2024-01-01
    feats = rd.from_arrow(pa.table({
        "user_id": [1, 2], "ts": [D0 + 1000, D0 + 2000]}))
    labels = rd.from_arrow(pa.table({
        "user_id": [1, 1, 2],
        "ts": [D0 + 3600_000, D0 + 86_400_000 + 3600_000, D0 + 7200_000],
        "value": [1.0, 10.0, 5.0]}))
    conf = GroupByConf(name="lbl", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum", [window(2, "d")]),))
    v1 = label_join_versioned(feats, labels, conf, "2024-01-01",
                              num_partitions=2)
    v2 = label_join_versioned(feats, labels, conf, "2024-01-02",
                              num_partitions=2)
    p1 = v1.to_pandas().sort_values("user_id").reset_index(drop=True)
    p2 = v2.to_pandas().sort_values("user_id").reset_index(drop=True)
    # day-1 version only sees the first label of user 1; day-2 sees both
    assert p1.loc[0, "value_sum_2d"] == 1.0
    assert p2.loc[0, "value_sum_2d"] == 11.0
    assert (p1["label_ds"] == "2024-01-01").all()
    latest = latest_label_view([v1, v2], keys=["user_id"],
                               num_partitions=2).to_pandas()
    latest = latest.sort_values("user_id").reset_index(drop=True)
    assert len(latest) == 2
    assert (latest["label_ds"] == "2024-01-02").all()
    assert latest.loc[0, "value_sum_2d"] == 11.0


def test_range_join_overlapping_intervals(ray_session):
    """A row inside two overlapping intervals matches BOTH; rows outside
    all intervals and keys with no intervals emit nothing."""
    import pandas as pd
    import ray.data

    from chronon_ray.pipelines.extras import range_join

    left = pd.DataFrame({"k": [1, 1, 1, 2, 3], "ts": [5, 15, 40, 10, 10],
                         "row": [100, 101, 102, 103, 104]})
    iv = pd.DataFrame({"k": [1, 1, 2], "start_ts": [0, 10, 0],
                       "end_ts": [20, 30, 5], "iv_id": [7, 8, 9]})
    out = range_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(iv),
                     keys=["k"], ts_col="ts",
                     left_cols=["k", "ts", "row"],
                     num_partitions=4).to_pandas()
    got = sorted(zip(out["row"], out["iv_id"]))
    # ts=5 in [0,20) only; ts=15 in [0,20) AND [10,30); ts=40 in none;
    # k=2 ts=10 outside [0,5); k=3 has no intervals
    assert got == [(100, 7), (101, 7), (101, 8)]


def test_range_join_malformed_interval(ray_session):
    """end < start intervals match nothing (SQL semantics) instead of
    crashing; out-of-range intervals stay inside their own key's band."""
    import pandas as pd
    import ray.data

    from chronon_ray.pipelines.extras import range_join

    left = pd.DataFrame({"k": [1, 2], "ts": [5, 5], "row": [1, 2]})
    iv = pd.DataFrame({"k": [1, 1, 2], "start_ts": [10, 0, 100],
                       "end_ts": [0, 10, 200], "iv_id": [1, 2, 3]})
    out = range_join(ray.data.from_pandas(left), ray.data.from_pandas(iv),
                     keys=["k"], ts_col="ts", left_cols=["k", "ts", "row"],
                     num_partitions=2).to_pandas()
    assert sorted(zip(out["row"], out["iv_id"])) == [(1, 2)]


def test_range_join_keeps_types_and_rejects_shared_names(ray_session):
    """Each output column keeps its side's type (int ts/start/end stay
    int, a string interval column stays string), declared at plan time;
    a name in both left_cols and right_cols raises before any execution
    instead of one side's value silently replacing the other's."""
    import pyarrow as pa
    import pytest
    import ray.data

    from chronon_ray.pipelines.extras import range_join
    from chronon_ray.util import known_schema

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1], pa.int64()), "ts": pa.array([5, 15], pa.int64()),
        "value": pa.array([1.0, 2.0])}))
    iv = pa.table({"k": pa.array([1], pa.int32()),
                   "start_ts": pa.array([0], pa.int64()),
                   "end_ts": pa.array([20], pa.int64()),
                   "label": pa.array(["x"])})
    out = range_join(left, ray.data.from_arrow(iv), keys=["k"],
                     num_partitions=2)
    want = [("k", pa.int64()), ("ts", pa.int64()), ("value", pa.float64()),
            ("label", pa.string()), ("start_ts", pa.int64()),
            ("end_ts", pa.int64())]
    assert [(f.name, f.type) for f in known_schema(out)] == want
    rows = sorted(out.take_all(), key=lambda r: r["ts"])
    assert [(r["ts"], r["value"], r["label"]) for r in rows] == \
        [(5, 1.0, "x"), (15, 2.0, "x")]
    for value in (pa.array([9.0]), pa.array(["y"])):
        clash = ray.data.from_arrow(iv.append_column("value", value))
        with pytest.raises(ValueError, match="value"):
            range_join(left, clash, keys=["k"])
