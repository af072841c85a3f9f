"""Round-5 regression pins for the ADVICE findings.

1. drift_metrics on disjoint bucket ranges: strict mode raises (was a
   silent zero-row 'no drift'), align='merge' collapses each side's IRs
   so cross-period drift is computable.
2. summary_stats drops null-time rows (NaT -> INT64_MIN garbage bucket).
3. edit-distance sketches include one-side-null rows (null == empty,
   EditDistance.scala:55-62) so percentiles match the reference.
4. clip_ds_range handles timestamp-typed ts columns (ns vs ms).
5. compare_join merges on Arrow-canonical keys: distinct int64 keys
   above 2^53 no longer collide via pandas float promotion.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

HOUR = 3600_000


def _summary_ir(df: pd.DataFrame):
    from chronon_ray.pipelines.stats import summary_stats
    return summary_stats(rd.from_pandas(df), finalize=False)


def test_drift_disjoint_buckets_strict_raises(ray_session):
    from chronon_ray.pipelines.stats import drift_metrics

    rng = np.random.default_rng(7)
    a = pd.DataFrame({"ts": rng.integers(0, 2 * HOUR, 500).astype(np.int64),
                      "v": rng.normal(0, 1, 500)})
    b = pd.DataFrame({"ts": rng.integers(10 * HOUR, 12 * HOUR, 500)
                      .astype(np.int64),
                      "v": rng.normal(5, 1, 500)})
    with pytest.raises(ValueError, match="align='merge'"):
        drift_metrics(_summary_ir(a), _summary_ir(b))


def test_drift_merge_mode_cross_period(ray_session):
    from chronon_ray.pipelines.stats import drift_metrics

    rng = np.random.default_rng(11)
    w = rng.normal(3, 1, 2000)
    a = pd.DataFrame({"ts": rng.integers(0, 4 * HOUR, 2000).astype(np.int64),
                      "v": rng.normal(0, 1, 2000),
                      "w": w})
    b = pd.DataFrame({"ts": rng.integers(24 * HOUR, 28 * HOUR, 2000)
                      .astype(np.int64),
                      "v": rng.normal(5, 1, 2000),      # shifted
                      "w": w})                          # unchanged
    out = drift_metrics(_summary_ir(a), _summary_ir(b), align="merge")
    assert len(out) > 0 and set(out["bucket_ts"]) == {-1}
    psi = out.set_index("column")["psi"]
    assert psi["v"] > 0.25          # real shift flagged
    assert psi["w"] < 0.10          # stable column stays quiet
    # merged null rates remain defined
    assert out["null_rate_delta"].notna().all()


def test_summary_null_ts_rows_dropped(ray_session):
    from chronon_ray.pipelines.stats import summary_stats

    t = pa.table({
        "ts": pa.array([0, HOUR // 2, None, HOUR + 5, None],
                       type=pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    })
    out = summary_stats(rd.from_arrow(t), time_bucket_minutes=60).to_pandas()
    assert sorted(out["bucket_ts"]) == [0, HOUR]
    assert int(out["total_count"].sum()) == 3  # null-ts rows dropped


def test_edit_distance_sketches_include_null_sides(ray_session):
    from chronon_ray.pipelines.stats import (COMPARE_PERCENTILES,
                                             compare_tables)

    n = 12
    ids = np.arange(n, dtype=np.int64)
    ts = np.zeros(n, dtype=np.int64)
    lt = pa.list_(pa.int64())
    left_vals = [[1, 2, 3]] * 4 + [None] * 4 + [[7]] * 4
    right_vals = [[1, 2, 3]] * 4 + [[5, 6]] * 4 + [None] * 4

    def tbl(vals):
        return pa.table({"id": pa.array(ids),
                         "ts": pa.array(ts),
                         "v": pa.array(vals, type=lt)})

    _, met = compare_tables(rd.from_arrow(tbl(left_vals)),
                            rd.from_arrow(tbl(right_vals)),
                            keys=["id", "ts"])
    row = met.to_pandas().iloc[0]
    # reference semantics: null == empty; every row feeds the sketch
    # inserts (into right, to make it like left): match rows 0; left-null
    # rows 0; right-null rows len(left)=1
    ins = np.array([0.0] * 4 + [0.0] * 4 + [1.0] * 4)
    # deletes: match rows 0; left-null rows len(right)=2; right-null 0
    dele = np.array([0.0] * 4 + [2.0] * 4 + [0.0] * 4)

    def exact_grid(vals):
        sv = np.sort(vals)
        m = len(sv)
        cw = np.arange(1, m + 1)
        return [sv[min(int(np.searchsorted(cw, q * m, side="left")), m - 1)]
                for q in COMPARE_PERCENTILES]

    np.testing.assert_allclose(np.array(row["v_edit_distance_insert"]),
                               exact_grid(ins))
    np.testing.assert_allclose(np.array(row["v_edit_distance_delete"]),
                               exact_grid(dele))


def test_clip_ds_range_timestamp_typed_ts(ray_session):
    from chronon_ray.sources import clip_ds_range

    days = pd.to_datetime(["2024-01-09 23:59:59", "2024-01-10 00:00:00",
                           "2024-01-11 12:00:00", "2024-01-13 00:00:00"])
    t = pa.table({"ts": pa.array(days, type=pa.timestamp("ns")),
                  "v": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = clip_ds_range(rd.from_arrow(t), "2024-01-10", "2024-01-12") \
        .to_pandas()
    assert sorted(out["v"]) == [2, 3]
    # sub-millisecond parts truncate to the millisecond instead of
    # raising ArrowInvalid on the ms cast
    us = pd.to_datetime(["2024-01-09 23:59:59.999999",
                         "2024-01-10 00:00:00.000001",
                         "2024-01-12 23:59:59.999999",
                         "2024-01-13 00:00:00.000001"])
    t = pa.table({"ts": pa.array(us, type=pa.timestamp("us")),
                  "v": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = clip_ds_range(rd.from_arrow(t), "2024-01-10", "2024-01-12") \
        .to_pandas()
    assert sorted(out["v"]) == [2, 3]


def test_summary_stats_sub_ms_timestamps(ray_session):
    from chronon_ray.pipelines.stats import summary_stats

    us = pd.to_datetime(["1970-01-01 00:00:00.000001",
                         "1970-01-01 00:59:59.999999",
                         "1970-01-01 01:00:00.000500"])
    t = pa.table({"ts": pa.array(us, type=pa.timestamp("us")),
                  "v": pa.array([1.0, 2.0, 3.0])})
    out = summary_stats(rd.from_arrow(t), time_bucket_minutes=60).to_pandas()
    assert sorted(out["bucket_ts"]) == [0, HOUR]
    assert sorted(out["total_count"]) == [1, 2]


def test_compare_join_no_false_join_above_2_53(ray_session):
    from chronon_ray.pipelines.stats import compare_join

    big_a = 2 ** 53          # collides with big_b in float64
    big_b = 2 ** 53 + 1
    lt = pa.table({
        "k": pa.array([big_a, 42, None], type=pa.int64()),
        "ts": pa.array([0, 0, 0], type=pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0]),
    })
    rt = pa.table({
        "k": pa.array([big_b, 42, None], type=pa.int64()),
        "ts": pa.array([0, 0, 0], type=pa.int64()),
        "v": pa.array([10.0, 2.0, 30.0]),
    })
    ds, _ = compare_join(rd.from_arrow(lt), rd.from_arrow(rt),
                         keys=["k", "ts"], num_partitions=4)
    # read back as ARROW — a to_pandas() here would itself float-promote
    # the nullable int64 key column and re-collide the two big keys
    import ray as _ray
    blocks = [_ray.get(r) for r in ds.to_arrow_refs()]
    tbl = pa.concat_tables([b for b in blocks if len(b)]).combine_chunks()
    assert tbl["k"].type == pa.int64()
    out = pd.DataFrame({
        # dtype=object keeps the big ints exact — a default int+None
        # column would float-promote right here in the test
        "k": pd.Series(tbl["k"].to_pylist(), dtype=object),
        "v_left": pd.Series(tbl["v_left"].to_pylist(), dtype=float),
        "v_right": pd.Series(tbl["v_right"].to_pylist(), dtype=float),
    })
    assert len(out) == 5  # A-left-only, B-right-only, 42 matched, 2 nulls
    a_row = out[out["k"] == big_a]
    b_row = out[out["k"] == big_b]
    assert len(a_row) == 1 and len(b_row) == 1   # exact keys round-trip
    assert a_row["v_left"].iloc[0] == 1.0
    assert pd.isna(a_row["v_right"].iloc[0])     # no false join
    assert b_row["v_right"].iloc[0] == 10.0
    assert pd.isna(b_row["v_left"].iloc[0])
    m = out[out["k"] == 42]
    assert m["v_left"].iloc[0] == 2.0 and m["v_right"].iloc[0] == 2.0
    nulls = out[out["k"].isna()]
    assert len(nulls) == 2                       # null keys never match


# ---- adversarial-review findings (round-5 pass 1)


def test_backfill_selected_parts_requires_parts_phase(ray_session,
                                                      tmp_path):
    """selected_parts with phase='all' would assemble final output
    MISSING the unselected parts' feature columns and mark those
    partitions complete forever — now a loud error for every phase but
    'parts'."""
    from chronon_ray.api import (EventSource, GroupByConf, JoinConf,
                                 JoinPart, TQuery, agg, window)
    from chronon_ray.pipelines.backfill import backfill_join
    from chronon_ray.testing.tokengen import ensure_fixture

    paths = ensure_fixture("t1")
    ev = EventSource(table=paths["events_dir"], query=TQuery())
    gb = GroupByConf(name="g", sources=(ev,), key_columns=("doc_id",),
                     aggregations=(agg("n_tok", "sum", [window(7, "d")]),))
    jc = JoinConf(name="sel", left=ev, parts=(JoinPart(group_by=gb),))
    for phase in ("all", "left", "final"):
        with pytest.raises(ValueError, match="selected_parts"):
            backfill_join(jc, str(tmp_path / "o"), "2024-01-02",
                          "2024-01-03", phase=phase,
                          selected_parts=["g"])


def test_drift_empty_side_raises(ray_session):
    from chronon_ray.pipelines.stats import drift_metrics

    rng = np.random.default_rng(3)
    a = pd.DataFrame({"ts": rng.integers(0, HOUR, 300).astype(np.int64),
                      "v": rng.normal(0, 1, 300)})
    # a ZERO-ROW summary that still has the right columns (e.g. every
    # input row had a null time) must not read as "no drift"
    def empty_side():
        # NOTE: Ray's to_pandas drops the COLUMNS of any zero-row
        # dataset regardless of construction path — the EMPTY guard
        # fires on row count BEFORE any schema check, which is exactly
        # why it must come first in drift_metrics
        df = _summary_ir(a).to_pandas().iloc[:0]
        return rd.from_arrow(pa.Table.from_pandas(df))

    with pytest.raises(ValueError, match="EMPTY"):
        drift_metrics(_summary_ir(a), empty_side())
    with pytest.raises(ValueError, match="EMPTY"):
        drift_metrics(empty_side(), _summary_ir(a), align="merge")
    # BOTH sides empty (one upstream bug hitting both periods) is also
    # the EMPTY diagnosis, not a misleading 'no bucket_ts column'
    with pytest.raises(ValueError, match="EMPTY"):
        drift_metrics(empty_side(), empty_side())


def test_cli_drift_align_flag(ray_session, tmp_path, capsys):
    """The CLI can reach cross-period drift via --align merge (strict
    raises with guidance)."""
    import json as _json

    from chronon_ray.cli import main
    from chronon_ray.pipelines.stats import summary_stats

    rng = np.random.default_rng(5)
    for name, lo in (("ref", 0), ("cmp", 48)):
        df = pd.DataFrame({
            "ts": rng.integers(lo * HOUR, (lo + 4) * HOUR, 800)
            .astype(np.int64),
            "v": rng.normal(5 if name == "cmp" else 0, 1, 800)})
        summary_stats(rd.from_pandas(df), finalize=False).to_pandas() \
            .to_parquet(str(tmp_path / f"{name}.parquet"), index=False)
    argv = ["drift", "--reference-table", str(tmp_path / "ref.parquet"),
            "--comparison-table", str(tmp_path / "cmp.parquet")]
    with pytest.raises(ValueError, match="align='merge'"):
        main(argv)
    capsys.readouterr()
    assert main(argv + ["--align", "merge"]) == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] > 0
    assert any(f["column"] == "v" for f in out["flagged"])


def test_auto_fallback_warning_names_the_real_problem(monkeypatch):
    """decoder='auto' that FELL BACK must not advise 'pass auto'."""
    from chronon_ray.functions import native_decode
    from chronon_ray.functions.multimodal import (DecodeImageStage,
                                                  synth_media_table)

    monkeypatch.setattr(native_decode, "available", lambda: False)
    t = synth_media_table(6, formats=("png",), side=32)
    stage = DecodeImageStage(out_h=8, out_w=8, decoder="auto",
                             py_tier_warn_bytes=64)
    with pytest.warns(RuntimeWarning, match="fell back"):
        stage(t)


@pytest.mark.parametrize("seed", [41, 42])
def test_collapse_summary_matches_single_bucket_summary(ray_session, seed):
    """Property: merging a summary's per-bucket IRs across buckets
    (align='merge' machinery) equals summarizing the same rows in ONE
    bucket — exact for null rates and totals, quantile-close for KLL."""
    from chronon_ray.aggregators.sketches import KLL
    from chronon_ray.pipelines.stats import _collapse_summary, summary_stats

    rng = np.random.default_rng(seed)
    n = 4000
    df = pd.DataFrame({
        "ts": rng.integers(0, 6 * HOUR, n).astype(np.int64),
        "v": np.where(rng.random(n) < 0.2, np.nan, rng.normal(10, 3, n)),
    })
    bucketed = summary_stats(rd.from_pandas(df), finalize=False) \
        .to_pandas().set_index("bucket_ts")
    collapsed = _collapse_summary(bucketed).iloc[0]
    one = pd.DataFrame({"ts": np.zeros(n, dtype=np.int64), "v": df["v"]})
    single = summary_stats(rd.from_pandas(one), finalize=False) \
        .to_pandas().iloc[0]
    assert int(collapsed["total_count"]) == int(single["total_count"]) == n
    np.testing.assert_allclose(collapsed["v__null_rate"],
                               single["v__null_rate"], rtol=1e-12)
    qa = KLL.quantiles(KLL.deserialize(collapsed["v__kll"]),
                       [0.1, 0.5, 0.9])
    qb = KLL.quantiles(KLL.deserialize(single["v__kll"]),
                       [0.1, 0.5, 0.9])
    np.testing.assert_allclose(qa, qb, rtol=0.1, atol=0.5)


# ---- wave-5 fresh-seed find: empty bootstrap window (backfill predates
# the first event day)


def test_scan_table_empty_range_keeps_schema(ray_session, tmp_path):
    """A hive-pruned scan matching NO partitions returns a zero-row
    dataset with the table's REAL schema (was: Unknown schema, crashing
    every downstream dataset_schema/union)."""
    import pyarrow.parquet as pq

    from chronon_ray.api import TQuery
    from chronon_ray.sources import scan_table
    from chronon_ray.util import dataset_schema

    d = tmp_path / "tbl" / "ds=2024-02-01"
    d.mkdir(parents=True)
    pq.write_table(pa.table({"doc_id": pa.array(["a"], pa.string()),
                             "ts": pa.array([0], pa.int64()),
                             "v": pa.array([1.5], pa.float64())}),
                   str(d / "part-0.parquet"))
    ds = scan_table(str(tmp_path / "tbl"),
                    TQuery(start_partition="2024-01-01",
                           end_partition="2024-01-05", time_column="ts"))
    sch = dataset_schema(ds)
    assert {"doc_id", "ts", "v"} <= set(sch.names)
    assert ds.count() == 0


def test_incremental_backfill_before_first_event_day(ray_session,
                                                     tmp_path):
    """Bootstrap window with ZERO events: the checkpoint chain must write
    a typed empty checkpoint, roll through empty days, and serve the
    first real day — end to end (found by the round-5 fresh-seed chaos
    sweep; three distinct crash layers fixed)."""
    import pyarrow.compute as pc

    from chronon_ray.api import GroupByConf, UNBOUNDED, agg, window
    from chronon_ray.pipelines.backfill import backfill_incremental
    from chronon_ray.sources import list_partitions
    from chronon_ray.state.partitions import shift_ds
    from chronon_ray.testing.tokengen import (gen_events, gen_queries,
                                              write_partitioned as wp)

    ev = gen_events(2000, n_keys=40)
    q = gen_queries(400, ev, n_keys=40)
    sh = 10 * 86_400_000

    def shift(t):
        t = t.set_column(t.column_names.index("ts"), "ts",
                         pc.add(t["ts"], sh))
        dsv = pd.to_datetime(t["ts"].to_numpy(zero_copy_only=False),
                             unit="ms").strftime("%Y-%m-%d")
        if "ds" in t.column_names:
            t = t.set_column(t.column_names.index("ds"), "ds",
                             pa.array(dsv))
        return t

    left = str(tmp_path / "l")
    right = str(tmp_path / "r")
    wp(shift(q), left)
    wp(shift(ev), right)
    lp = list_partitions(right)
    conf = GroupByConf(name="eb", sources=(), key_columns=("doc_id",),
                       aggregations=(agg("n_tok", "sum", [window(3, "d")]),
                                     agg("n_tok", "average", [UNBOUNDED])))
    start = shift_ds(lp[0], -3)  # predates the first event day
    s = backfill_incremental(left, right, conf, str(tmp_path / "out"),
                             str(tmp_path / "ck"), start, lp[1],
                             num_partitions=4)
    assert s["checkpoints"][start] == "bootstrapped"
    assert all(how == "rolled" for d, how in s["checkpoints"].items()
               if d != start)
    assert lp[0] in s["partitions_written"] \
        or lp[1] in s["partitions_written"]
    # resume: second run is a no-op
    s2 = backfill_incremental(left, right, conf, str(tmp_path / "out"),
                              str(tmp_path / "ck"), start, lp[1],
                              num_partitions=4)
    assert s2["partitions_written"] == []
