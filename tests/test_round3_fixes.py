"""Regression tests for the round-3 fixes: dtype restoration after pandas
merge paths, canonical key hashing in the upload/mutation exchanges, null
groups in budget_sample, and schema preservation in incremental dedup."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from chronon_ray.api import GroupByConf, UNBOUNDED, agg, window

DAY = 86_400_000
BASE = pd.Timestamp("2024-03-01").value // 10**6


def _mk_events(n=3000, keys=23, days=20, seed=5, key_dtype=np.int64):
    rng = np.random.default_rng(seed)
    ts = BASE + rng.integers(0, days * DAY, size=n)
    return pd.DataFrame({
        "user_id": rng.integers(0, keys, size=n).astype(key_dtype),
        "ts": np.sort(ts).astype(np.int64),
        "value": np.round(rng.normal(10, 3, size=n), 3),
    })


def test_serve_output_left_dtypes(ray_session):
    """serve_with_events must emit left columns (ts, keys) with the query
    schema's dtypes, not the float64 the null-padded union promotes to."""
    from chronon_ray.pipelines.upload import groupby_upload, serve_with_events

    conf = GroupByConf(
        name="d", sources=(), key_columns=("user_id",),
        aggregations=(agg("value", "sum", [window(7, "d")]),
                      agg("value", "count", [window(1, "d")])),
    )
    ev = _mk_events()
    batch_end = BASE + 15 * DAY
    head = ev[ev.ts >= batch_end]
    rng = np.random.default_rng(11)
    q = pd.DataFrame({
        "user_id": rng.integers(0, 23, size=200).astype(np.int64),
        "ts": (batch_end + rng.integers(0, DAY, size=200)).astype(np.int64),
    })
    ir = groupby_upload(rd.from_pandas(ev), conf, batch_end,
                        num_partitions=4)
    out = serve_with_events(ir, rd.from_pandas(head), rd.from_pandas(q),
                            conf, batch_end, num_partitions=4)
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    assert t.schema.field("ts").type == pa.int64()
    assert t.schema.field("user_id").type == pa.int64()
    # COUNT output stays integer
    assert pa.types.is_integer(t.schema.field("value_count_1d").type)


SERVE_FAMILY = ["serve_with_events", "serve_with_tiles",
                "temporal_entities_join"]


def _serve_family(name, q, key_dtype=np.int64):
    """Features of the queries ``q`` (``user_id``, ``ts`` on day 15)
    through ``name``, over the events of ``_mk_events`` with keys of
    ``key_dtype``: a checkpoint of the events before day 15 plus the head
    events, or those events as the day-14 snapshot of an entity table plus
    the head events as inserts."""
    from chronon_ray.pipelines.mutations import temporal_entities_join
    from chronon_ray.pipelines.streaming import make_tiles, serve_with_tiles
    from chronon_ray.pipelines.upload import groupby_upload, serve_with_events

    conf = GroupByConf(
        name="d", sources=(), key_columns=("user_id",),
        aggregations=(agg("value", "sum", [UNBOUNDED]),
                      agg("value", "count", [UNBOUNDED])),
    )
    ev = _mk_events(key_dtype=key_dtype)
    batch_end = BASE + 15 * DAY
    head = ev[ev.ts >= batch_end]
    if name == "temporal_entities_join":
        snaps = ev[ev.ts < batch_end][["user_id", "value"]].assign(
            ds=pd.Timestamp(batch_end - DAY, unit="ms").strftime("%Y-%m-%d"))
        muts = head.rename(columns={"ts": "mutation_ts"}).assign(
            is_before=False)
        out = temporal_entities_join(rd.from_pandas(q), rd.from_pandas(snaps),
                                     rd.from_pandas(muts), conf,
                                     num_partitions=7)
    else:
        ir = groupby_upload(rd.from_pandas(ev), conf, batch_end,
                            num_partitions=7)
        if name == "serve_with_events":
            out = serve_with_events(ir, rd.from_pandas(head),
                                    rd.from_pandas(q), conf, batch_end,
                                    num_partitions=7)
        else:
            tiles = make_tiles(rd.from_pandas(head), conf, batch_end,
                               num_partitions=7)
            out = serve_with_tiles(ir, tiles, rd.from_pandas(head),
                                   rd.from_pandas(q), conf, batch_end,
                                   num_partitions=7)
    return out.to_pandas().sort_values("user_id", ignore_index=True)


def _day15_queries():
    return pd.DataFrame({
        "user_id": np.arange(23, dtype=np.int64),
        "ts": np.full(23, BASE + 15 * DAY + DAY // 2, dtype=np.int64),
    })


@pytest.mark.parametrize("name", SERVE_FAMILY)
def test_serve_cross_dtype_keys(ray_session, name):
    """int32 event/IR/tile/snapshot/mutation keys vs int64 query keys must
    co-partition (canonical key hashing) — mismatched hashing silently
    yields all-null features."""
    out = _serve_family(name, _day15_queries(), key_dtype=np.int32)
    assert len(out) == 23
    assert out["value_sum"].notna().all()


@pytest.mark.parametrize("name", SERVE_FAMILY)
def test_query_column_named_like_an_input(ray_session, name):
    """A query column named like an event input column (``value``, a
    float64) comes back unchanged, whatever its type, and the features
    equal those of the same call without it: each side crosses the
    exchange under its own names, not as one padded union typed by the
    input column."""
    q = _day15_queries()
    plain = _serve_family(name, q)
    feats = ["value_sum", "value_count"]
    for col in ([f"s{i}" for i in range(23)],
                [2**53 + 1 + i for i in range(23)]):
        out = _serve_family(name, q.assign(value=col))
        assert out["value"].tolist() == col
        pd.testing.assert_frame_equal(out[feats], plain[feats])


def test_serve_null_key_query_rows_preserved(ray_session):
    """Null-key query rows must still be emitted (left-outer contract),
    with null features."""
    from chronon_ray.pipelines.upload import groupby_upload, serve_with_events

    conf = GroupByConf(
        name="d", sources=(), key_columns=("user_id",),
        aggregations=(agg("value", "sum", [UNBOUNDED]),),
    )
    ev = _mk_events()
    batch_end = BASE + 15 * DAY
    head = ev[ev.ts >= batch_end]
    q = pd.DataFrame({
        "user_id": pd.array([1, None, 2, None], dtype="Int64"),
        "ts": np.full(4, batch_end + DAY // 2, dtype=np.int64),
    })
    ir = groupby_upload(rd.from_pandas(ev), conf, batch_end,
                        num_partitions=3)
    out = serve_with_events(ir, rd.from_pandas(head), rd.from_pandas(q),
                            conf, batch_end, num_partitions=3).to_pandas()
    assert len(out) == 4
    nulls = out[out["user_id"].isna()]
    assert len(nulls) == 2
    assert nulls["value_sum"].isna().all()


def test_temporal_entities_left_dtypes(ray_session):
    """temporal_entities_join must restore the query schema's dtypes on
    left columns after the pandas replay merge."""
    from chronon_ray.pipelines.mutations import temporal_entities_join

    rng = np.random.default_rng(3)
    snaps = pd.DataFrame({
        "entity_id": np.tile(np.arange(10, dtype=np.int64), 3),
        "ds": np.repeat(["2024-03-01", "2024-03-02", "2024-03-03"], 10),
        "amount": np.round(rng.normal(100, 10, size=30), 2),
    })
    q = pd.DataFrame({
        "entity_id": rng.integers(0, 10, size=50).astype(np.int64),
        "ts": (BASE + 2 * DAY
               + rng.integers(0, 2 * DAY, size=50)).astype(np.int64),
    })
    muts = pd.DataFrame({
        "entity_id": rng.integers(0, 10, size=20).astype(np.int64),
        "mutation_ts": (BASE + 2 * DAY
                        + rng.integers(0, 2 * DAY, size=20)).astype(np.int64),
        "is_before": np.zeros(20, dtype=bool),
        "amount": np.round(rng.normal(100, 10, size=20), 2),
    })
    conf = GroupByConf(
        name="te", sources=(), key_columns=("entity_id",),
        aggregations=(agg("amount", "sum", [UNBOUNDED]),
                      agg("amount", "count", [UNBOUNDED])),
    )
    out = temporal_entities_join(rd.from_pandas(q), rd.from_pandas(snaps),
                                 rd.from_pandas(muts), conf,
                                 num_partitions=4)
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    assert t.schema.field("ts").type == pa.int64()
    assert t.schema.field("entity_id").type == pa.int64()
    assert pa.types.is_integer(t.schema.field("amount_count").type)


def test_budget_sample_null_group_gets_default_budget(ray_session):
    """Rows with a null group form their own stratum with default_budget
    (SQL `partition by g` treats nulls as one partition)."""
    from chronon_ray.functions.sampling import budget_sample

    df = pd.DataFrame({
        "doc_id": np.arange(100, dtype=np.int64),
        "source": ["a"] * 50 + [None] * 50,
        "w": np.ones(100, dtype=np.int64),
    })
    out = budget_sample(rd.from_pandas(df), "doc_id", "source", "w",
                        budgets={"a": 10}, default_budget=7).to_pandas()
    a = out[out["source"] == "a"]
    nul = out[out["source"].isna()]
    assert len(a) == 10
    assert len(nul) == 7


def test_incremental_dedup_preserves_schema(ray_session, tmp_path):
    """All integer doc columns (not just id) must come back with their
    input dtypes after the history-null union."""
    from chronon_ray.functions.dedup import incremental_exact_dedup

    d1 = pd.DataFrame({
        "doc_id": np.arange(20, dtype=np.int64),
        "text": [f"doc {i % 10}" for i in range(20)],
        "n_tok": np.arange(20, dtype=np.int32),
    })
    state = str(tmp_path / "state")
    out1 = incremental_exact_dedup(rd.from_pandas(d1), state, "2024-01-01",
                                   ["text"], "doc_id",
                                   num_partitions=3).to_pandas()
    assert len(out1) == 10
    d2 = pd.DataFrame({
        "doc_id": np.arange(100, 120, dtype=np.int64),
        "text": [f"doc {i % 15}" for i in range(20)],
        "n_tok": np.arange(20, dtype=np.int32),
    })
    out2 = incremental_exact_dedup(rd.from_pandas(d2), state, "2024-01-02",
                                   ["text"], "doc_id", num_partitions=3)
    t = pa.Table.from_pandas(out2.to_pandas(), preserve_index=False)
    assert t.schema.field("doc_id").type == pa.int64()
    assert t.schema.field("n_tok").type == pa.int32()
    # only the 5 genuinely-new contents survive day 2
    assert len(t) == 5


def test_band_bucket_star_cutoff():
    """A duplicate cluster larger than star_cutoff emits linear star edges
    to the bucket canonical instead of O(m^2) pairs; small buckets still
    emit the full pair set."""
    from chronon_ray.functions.dedup import _BandBucketCandidates

    m = 500
    pdf = pd.DataFrame({
        "doc_id": np.arange(m, dtype=np.int64),
        "band": np.zeros(m, dtype=np.int64),
        "band_hash": np.zeros(m, dtype=np.int64),
    })
    starred = _BandBucketCandidates("doc_id", star_cutoff=100)(pdf)
    assert len(starred) == m - 1  # linear, not m*(m-1)/2
    assert (starred["a"] == 0).all()
    assert set(starred["b"]) == set(range(1, m))
    full = _BandBucketCandidates("doc_id", star_cutoff=1024)(pdf)
    assert len(full) == m * (m - 1) // 2


def test_snapshot_tie_break_across_ir_shuffle(ray_session):
    """conf.tie_break_column must be honored ACROSS block-level IR merges:
    equal-ts rows land in different input blocks and the cross-block merge
    must pick the winner by (ts, tb), not by block arrival order."""
    from chronon_ray.pipelines.groupby import aggregate_snapshot

    n_keys = 40
    # two equal-ts rows per key with opposing tb order vs block order:
    # block 0 holds the HIGH-tb row, block 1 the LOW-tb row
    hi = pd.DataFrame({
        "user_id": np.arange(n_keys, dtype=np.int64),
        "ts": np.full(n_keys, 1000, dtype=np.int64),
        "tb": np.full(n_keys, 9, dtype=np.int64),
        "value": np.full(n_keys, 111.0),
    })
    lo = hi.copy()
    lo["tb"] = 1
    lo["value"] = 222.0
    ds = rd.from_pandas([hi, lo])  # one block each — IRs merge in shuffle
    conf = GroupByConf(
        name="tbx", sources=(), key_columns=("user_id",),
        aggregations=(agg("value", "last"), agg("value", "first")),
        tie_break_column="tb",
    )
    out = aggregate_snapshot(ds, conf, num_partitions=4).to_pandas()
    assert len(out) == n_keys
    # LAST at equal ts = max tb (111.0); FIRST = min tb (222.0)
    assert (out["value_last"] == 111.0).all()
    assert (out["value_first"] == 222.0).all()


def test_query_setups_macro(ray_session):
    """Query.setups DDL (reference api.thrift:46-48): a CREATE MACRO runs
    once per worker before the SqlExpr select that uses it."""
    from chronon_ray.api import TQuery
    from chronon_ray.expr import sql_expr
    from chronon_ray.sources import scan_table
    import tempfile, os
    import pyarrow.parquet as pq

    df = pd.DataFrame({"user_id": np.arange(10, dtype=np.int64),
                       "ts": np.arange(10, dtype=np.int64),
                       "value": np.arange(10, dtype=np.float64)})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(pa.Table.from_pandas(df), path)
        q = TQuery.of(
            selects={"user_id": "user_id", "ts": "ts",
                     "doubled": sql_expr(
                         "dbl(value)",
                         setups=("create or replace macro dbl(x) as x * 2",))},
            time_column="ts")
        out = scan_table(path, q).to_pandas()
    assert (out["doubled"].to_numpy() == df["value"].to_numpy() * 2).all()


def test_tquery_setups_field(ray_session):
    """TQuery.setups runs DDL before plain sql_where predicates too."""
    from chronon_ray.api import TQuery
    from chronon_ray.expr import sql_where
    from chronon_ray.sources import scan_table
    import tempfile, os
    import pyarrow.parquet as pq

    df = pd.DataFrame({"user_id": np.arange(10, dtype=np.int64),
                       "ts": np.arange(10, dtype=np.int64)})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.parquet")
        pq.write_table(pa.Table.from_pandas(df), path)
        q = TQuery.of(selects={"user_id": "user_id", "ts": "ts"},
                      wheres=[sql_where("is_even(user_id)")],
                      setups=("create or replace macro is_even(x) "
                              "as x % 2 = 0",),
                      time_column="ts")
        out = scan_table(path, q).to_pandas()
    assert (out["user_id"].to_numpy() % 2 == 0).all() and len(out) == 5


def test_serve_histogram_no_double_count_and_key_unification(ray_session):
    """Two queries per key in serve_with_events with a HISTOGRAM over an
    int column: (a) head-event replay must not mutate the shared base IR
    (second query would double-count), (b) checkpointed (string-keyed) IRs
    and raw-valued head updates must agree on the key space ('5' vs 5.0
    split counts before the str-canonical fix)."""
    from chronon_ray.api import UNBOUNDED
    from chronon_ray.pipelines.upload import groupby_upload, serve_with_events

    batch_end = BASE + 10 * DAY
    ev = pd.DataFrame({
        "user_id": np.array([1, 1, 1, 1, 1, 1], dtype=np.int64),
        "ts": np.array([BASE + 1 * DAY, BASE + 2 * DAY, BASE + 3 * DAY,
                        batch_end + 100, batch_end + 200, batch_end + 300],
                       dtype=np.int64),
        "item": np.array([5, 5, 7, 5, 7, 5], dtype=np.int64),
    })
    head = ev[ev.ts >= batch_end]
    q = pd.DataFrame({
        "user_id": np.array([1, 1], dtype=np.int64),
        "ts": np.array([batch_end + 400, batch_end + 500], dtype=np.int64),
    })
    conf = GroupByConf(
        name="h", sources=(), key_columns=("user_id",),
        aggregations=(agg("item", "histogram", [UNBOUNDED]),),
    )
    ir = groupby_upload(rd.from_pandas(ev), conf, batch_end,
                        num_partitions=2)
    out = serve_with_events(ir, rd.from_pandas(head), rd.from_pandas(q),
                            conf, batch_end, num_partitions=2).to_pandas()
    assert len(out) == 2
    for m in out["item_histogram"]:
        assert dict(m) == {"5": 4, "7": 2}


def test_snapshot_all_null_group_keeps_key(ray_session):
    """A key whose aggregation inputs are ALL null still yields an output
    row with null features (SQL GROUP BY / Spark aggregateByKey keep the
    key; dropping it would diverge from any GROUP BY oracle)."""
    from chronon_ray.pipelines.groupby import aggregate_snapshot

    df = pd.DataFrame({
        "user_id": np.array([1, 1, 2], dtype=np.int64),
        "ts": np.array([1, 2, 3], dtype=np.int64),
        "value": np.array([1.5, 2.5, np.nan]),
    })
    conf = GroupByConf(name="n", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum"),
                                     agg("value", "count")))
    out = aggregate_snapshot(rd.from_pandas(df), conf, num_partitions=2) \
        .to_pandas().set_index("user_id").sort_index()
    assert list(out.index) == [1, 2]
    assert out.loc[1, "value_sum"] == 4.0
    assert pd.isna(out.loc[2, "value_sum"])
