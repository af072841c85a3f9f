"""Regression tests for the round-1 ADVICE findings: AVERAGE/VARIANCE
empty-state finalize, float hashing in sketches, SNAPSHOT-accuracy day
quantization in compute_join, and label_join FIRST/LAST mirroring."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from chronon_ray.api import (
    Accuracy,
    EventSource,
    GroupByConf,
    JoinConf,
    JoinPart,
    Operation,
    TQuery,
    agg,
    window,
)
from chronon_ray.aggregators.ops import OPS

MS_1D = 86_400_000


def test_average_variance_finalize_empty_state():
    """Deletes driving the count to 0 must yield NULL, not ZeroDivision."""
    for op_enum in (Operation.AVERAGE, Operation.VARIANCE):
        op = OPS[op_enum]
        part = agg("x", op_enum.value).unpack()[0]
        ir = op.py_update(None, 5.0, 1000, part)
        ir = op.py_delete(ir, 5.0, 2000, part)
        if ir is not None:  # VARIANCE delete returns None at n<=0 already
            assert op.py_finalize(ir, part) is None


def test_hll_float_hash_bit_pattern():
    """Floats sharing an integer part must not collide (ADVICE: astype
    truncation made 0.0–99.9 in tenths estimate as ~100)."""
    from chronon_ray.aggregators.sketches import HLL, _hash64

    vals = np.arange(0, 100, 0.1)  # 1000 distinct floats
    h = _hash64(vals)
    assert len(np.unique(h)) == len(vals)
    # negatives are defined too
    h2 = _hash64(np.array([-1.5, 1.5, -0.25]))
    assert len(np.unique(h2)) == 3

    state = HLL.update_many(HLL.empty(11), vals)
    est = HLL.estimate(state)
    assert abs(est - 1000) / 1000 < 0.1


def test_compute_join_snapshot_accuracy_day_quantized(ray_session, duck, sf_dir):
    """SNAPSHOT parts: features as of the row's day boundary (end of ds-1) —
    constant within a day, same-day events excluded."""
    events_src = EventSource(table=f"{sf_dir}/events.parquet", query=TQuery())
    left_src = EventSource(
        table=f"{sf_dir}/events.parquet",
        query=TQuery.of(
            selects={"user_id": "user_id", "ts": "ts", "event_id": "event_id"},
            wheres=[lambda t: pc.equal(t["event_type"], "purchase")]))
    gb = GroupByConf(
        name="snap_gb", sources=(events_src,), key_columns=("user_id",),
        aggregations=(agg("value", "sum"), agg("value", "count")),
        accuracy=Accuracy.SNAPSHOT)
    jc = JoinConf(name="j_snap", left=left_src, parts=(JoinPart(group_by=gb),))
    out = compute_join_sorted(jc)
    exp = duck.sql(f"""
        with q as (select user_id, epoch_ms(ts) as ts, event_id from events
                   where event_type = 'purchase'),
             e as (select user_id, epoch_ms(ts) as ts, value from events)
        select q.user_id, q.ts, q.event_id,
            sum(case when e.ts < (q.ts // {MS_1D}) * {MS_1D}
                then e.value end) as snap_gb_value_sum,
            count(case when e.ts < (q.ts // {MS_1D}) * {MS_1D}
                then e.value end) as snap_gb_value_count
        from q left join e on q.user_id = e.user_id
        group by q.user_id, q.ts, q.event_id
        order by q.user_id, q.ts, q.event_id
    """).df()
    assert len(out) == len(exp)
    np.testing.assert_allclose(
        out["snap_gb_value_sum"].to_numpy(dtype=float),
        exp["snap_gb_value_sum"].to_numpy(dtype=float), rtol=1e-9)
    np.testing.assert_array_equal(
        out["snap_gb_value_count"].fillna(0).to_numpy(dtype=np.int64),
        exp["snap_gb_value_count"].fillna(0).to_numpy(dtype=np.int64))
    assert "_ts_d" not in out.columns


def compute_join_sorted(jc):
    from chronon_ray.pipelines.joins import compute_join

    out = compute_join(jc, num_partitions=8).to_pandas()
    return out.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)


def test_label_join_first_last_mirrored(ray_session):
    """LAST over a forward label window must return the LATEST label event
    in real time (the negated engine would silently return the earliest)."""
    from chronon_ray.pipelines.joins import label_join

    feats = rd.from_arrow(pa.table({
        "user_id": [1, 1, 2],
        "ts": [1000, 50_000_000, 1000],
    }))
    labels = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2, 2],
        "ts": [2000, 3000, 90_000_000, 1500, 2500],
        "value": [10.0, 20.0, 30.0, 5.0, 7.0],
    }))
    conf = GroupByConf(
        name="lbl", sources=(), key_columns=("user_id",),
        aggregations=(agg("value", "last", [window(1, "d")]),
                      agg("value", "first", [window(1, "d")]),
                      agg("value", "last_k", [window(1, "d")], k=2)),
    )
    out = label_join(feats, labels, conf, num_partitions=4).to_pandas()
    out = out.sort_values(["user_id", "ts"]).reset_index(drop=True)
    assert list(out.columns[-3:]) == ["value_last_1d", "value_first_1d",
                                      "value_last2_1d"]
    r = out[(out.user_id == 1) & (out.ts == 1000)].iloc[0]
    # hop-padded label window for ts=1000 is (1000, 90_000_000]: the 1d tail
    # rounds to 1h hops, so 2000→10, 3000→20 AND 90_000_000→30 are inside
    assert r["value_first_1d"] == 10.0
    assert r["value_last_1d"] == 30.0
    assert list(r["value_last2_1d"]) == [30.0, 20.0]  # latest first
    r2 = out[(out.user_id == 2) & (out.ts == 1000)].iloc[0]
    assert r2["value_first_1d"] == 5.0
    assert r2["value_last_1d"] == 7.0


def test_sql_expr_selects_wheres_derivations(ray_session, sf_dir, duck):
    """SQL-string expressions evaluated per batch via DuckDB plug into
    selects, wheres and derivations (reference users write SQL strings)."""
    from chronon_ray import sql_expr, sql_where
    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.joins import apply_derivations
    from chronon_ray.sources import scan_table

    ds = scan_table(
        f"{sf_dir}/events.parquet",
        TQuery.of(selects={"user_id": "user_id", "ts": "ts",
                           "v2": sql_expr("value * 2 + 1"),
                           "et_upper": sql_expr("upper(event_type)")},
                  wheres=[sql_where("value > 0.5 and event_type <> 'view'")]))
    out = apply_derivations(ds, (("user_id", "user_id"),
                                 ("v4", sql_expr("v2 * 2")),
                                 ("tag", sql_expr(
                                     "case when v2 > 100 then 'hi' "
                                     "else 'lo' end")))).to_pandas()
    exp = duck.sql("""
        select user_id, (value * 2 + 1) * 2 as v4,
               case when value * 2 + 1 > 100 then 'hi' else 'lo' end as tag
        from events
        where value > 0.5 and event_type <> 'view'
    """).df()
    g = out.sort_values(["user_id", "v4"]).reset_index(drop=True)
    x = exp.sort_values(["user_id", "v4"]).reset_index(drop=True)
    assert len(g) == len(x) > 0
    np.testing.assert_allclose(g["v4"], x["v4"], rtol=1e-12)
    assert (g["tag"] == x["tag"]).all()


def test_temporal_cross_dtype_keys(ray_session):
    """Left keys as float64 (nullable-int degradation) still co-partition
    with int64 event keys: partition hashing runs on the UNION-cast key
    columns, not each side's raw dtype."""
    import pandas as pd
    import ray.data

    from chronon_ray.api import GroupByConf, agg
    from chronon_ray.pipelines.temporal import temporal_join

    left = pd.DataFrame({"user_id": pd.array([5, None, 7], dtype="float64"),
                         "ts": np.array([1000] * 3, dtype=np.int64)})
    right = pd.DataFrame({"user_id": np.array([5, 7], dtype=np.int64),
                          "ts": np.array([10, 10], dtype=np.int64),
                          "value": [2.0, 3.0]})
    conf = GroupByConf(name="x", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum"),))
    out = temporal_join(ray.data.from_pandas(left),
                        ray.data.from_pandas(right), conf,
                        num_partitions=4).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert out["value_sum"].iloc[0] == 2.0
    assert out["value_sum"].iloc[1] == 3.0
    assert np.isnan(out["value_sum"].iloc[2])  # null key: left-outer null
