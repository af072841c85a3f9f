"""Multi-part Join backfill driver: per-part cached intermediate tables
with independent unfilled ranges (kill-and-rerun recomputes only what is
missing), assembled output matching a direct compute_join."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from chronon_ray.api import (
    EventSource,
    GroupByConf,
    JoinConf,
    JoinPart,
    TQuery,
    UNBOUNDED,
    agg,
    window,
)
from chronon_ray.pipelines.backfill import backfill_join, backfill_snapshot_groupby
from chronon_ray.testing.tokengen import ensure_fixture, write_partitioned as wp


@pytest.fixture(scope="module")
def token_dirs(ray_session, tmp_path_factory):
    paths = ensure_fixture("t1")
    base = tmp_path_factory.mktemp("bfj")
    left_dir = str(base / "queries_part")
    import pyarrow.parquet as pq

    q = pq.read_table(paths["queries_file"])
    wp(q, left_dir)
    return {"events_dir": paths["events_dir"], "left_dir": left_dir}


def _join_conf(dirs):
    ev_src = EventSource(table=dirs["events_dir"], query=TQuery())
    left_src = EventSource(table=dirs["left_dir"], query=TQuery())
    gb_sum = GroupByConf(name="gb_sum", sources=(ev_src,),
                         key_columns=("doc_id",),
                         aggregations=(agg("n_tok", "sum", [window(7, "d")]),))
    gb_cnt = GroupByConf(name="gb_cnt", sources=(ev_src,),
                         key_columns=("doc_id",),
                         aggregations=(agg("n_tok", "count", [UNBOUNDED]),))
    return JoinConf(name="bfj", left=left_src,
                    parts=(JoinPart(group_by=gb_sum),
                           JoinPart(group_by=gb_cnt, prefix="p2")))


def test_backfill_join_and_resume(ray_session, token_dirs, tmp_path):
    jc = _join_conf(token_dirs)
    out_dir = str(tmp_path / "out")
    from chronon_ray.sources import list_partitions

    left_parts = list_partitions(token_dirs["left_dir"])
    start, end = left_parts[2], left_parts[4]  # 3 days
    s1 = backfill_join(jc, out_dir, start, end, num_partitions=8)
    days = [start, left_parts[3], end]
    assert sorted(s1["partitions_written"]) == days
    for part_name in ("gb_sum", "p2_gb_cnt"):
        for d in days:
            assert os.path.isdir(
                os.path.join(out_dir, "parts", part_name, f"ds={d}")), \
                (part_name, d)
    assert s1["part_steps_computed"] > 0

    # full rerun: everything cached, nothing recomputed
    s2 = backfill_join(jc, out_dir, start, end, num_partitions=8)
    assert s2["part_steps_computed"] == 0
    assert s2["partitions_written"] == []
    assert sorted(s2["skipped_output"]) == days

    # kill one OUTPUT partition: only the assembly for that day reruns,
    # no part recompute
    shutil.rmtree(os.path.join(out_dir, f"ds={days[1]}"))
    s3 = backfill_join(jc, out_dir, start, end, num_partitions=8)
    assert s3["part_steps_computed"] == 0
    assert s3["partitions_written"] == [days[1]]

    # kill one PART cache partition: only that part's range recomputes
    shutil.rmtree(os.path.join(out_dir, "parts", "gb_sum", f"ds={days[0]}"))
    s4 = backfill_join(jc, out_dir, start, end, num_partitions=8)
    assert s4["part_steps_computed"] == 1
    assert s4["parts"]["p2_gb_cnt"]["steps"] == 0

    # assembled output equals a direct compute_join on the same left range
    import ray.data as rd

    from chronon_ray.pipelines.joins import compute_join
    from dataclasses import replace

    files = [os.path.join(out_dir, f"ds={d}", f) for d in days
             for f in sorted(os.listdir(os.path.join(out_dir, f"ds={d}")))
             if f.endswith(".parquet")]
    got = rd.read_parquet(files).to_pandas()
    q = replace(jc.left.query, start_partition=start, end_partition=end)
    jc_ranged = replace(jc, left=replace(jc.left, query=q))
    exp = compute_join(jc_ranged, num_partitions=8).to_pandas()
    key = ["doc_id", "ts"]
    feat = ["gb_sum_n_tok_sum_7d", "p2_gb_cnt_n_tok_count"]
    g = got.sort_values(key).reset_index(drop=True)
    x = exp.sort_values(key).reset_index(drop=True)
    assert len(g) == len(x)
    for c in feat:
        a = g[c].to_numpy(dtype=float)
        b = x[c].to_numpy(dtype=float)
        an, bn = np.isnan(a), np.isnan(b)
        assert (an == bn).all(), c
        np.testing.assert_allclose(a[~an], b[~bn], rtol=1e-9, err_msg=c)


def test_backfill_snapshot_groupby_single_pass(ray_session, token_dirs,
                                               tmp_path, duck):
    conf = GroupByConf(name="snapbf", sources=(), key_columns=("doc_id",),
                       aggregations=(agg("n_tok", "sum", [window(3, "d")]),))
    out_dir = str(tmp_path / "snap_out")
    from chronon_ray.sources import list_partitions

    parts = list_partitions(token_dirs["events_dir"])
    start, end = parts[-3], parts[-1]
    s = backfill_snapshot_groupby(token_dirs["events_dir"], conf, out_dir,
                                  start, end, num_partitions=8)
    assert sorted(s["partitions_written"]) == [parts[-3], parts[-2], parts[-1]]
    # resume: nothing rewritten
    s2 = backfill_snapshot_groupby(token_dirs["events_dir"], conf, out_dir,
                                   start, end, num_partitions=8)
    assert s2["partitions_written"] == []
    # spot-check one day against DuckDB (EOD accuracy, daily hops)
    import duckdb
    import ray.data as rd

    d = parts[-2]
    dfiles = [os.path.join(out_dir, f"ds={d}", f)
              for f in sorted(os.listdir(os.path.join(out_dir, f"ds={d}")))
              if f.endswith(".parquet")]
    got = rd.read_parquet(dfiles).to_pandas()
    con = duckdb.connect()
    exp = con.sql(f"""
        select doc_id, sum(n_tok) as n_tok_sum_3d
        from read_parquet('{token_dirs["events_dir"]}/*/*.parquet',
                          hive_partitioning=0)
        where ts < epoch_ms(cast('{d}' as date) + interval 1 day)
          and ts >= epoch_ms(cast('{d}' as date) + interval 1 day) - 3*86400000
        group by doc_id
    """).df()
    m = got.merge(exp, on="doc_id", suffixes=("", "_exp"))
    assert len(m) == len(got) == len(exp)
    np.testing.assert_allclose(m["n_tok_sum_3d"].astype(float),
                               m["n_tok_sum_3d_exp"].astype(float), rtol=1e-9)


def test_backfill_join_split_phases_equal_one_shot(ray_session, token_dirs,
                                                   tmp_path):
    """left -> parts (per-part, separately) -> final as four independent
    invocations (the reference join_backfill.py DAG-node schedule) produce
    byte-identical output to one phase='all' run; a final-only run with a
    missing part cache fails loudly; resume stays intact across phases."""
    import ray.data as rd

    jc = _join_conf(token_dirs)
    from chronon_ray.sources import list_partitions

    left_parts = list_partitions(token_dirs["left_dir"])
    start, end = left_parts[2], left_parts[4]
    days = [start, left_parts[3], end]

    one_dir = str(tmp_path / "oneshot")
    s_all = backfill_join(jc, one_dir, start, end, num_partitions=8)
    assert sorted(s_all["partitions_written"]) == days
    # phase='all' now also materializes the shared left cache
    for d in days:
        assert os.path.isdir(os.path.join(one_dir, "left", f"ds={d}"))

    split_dir = str(tmp_path / "split")
    # final with no caches: loud, names the missing part
    with pytest.raises(RuntimeError, match="gb_sum"):
        backfill_join(jc, split_dir, start, end, num_partitions=8,
                      phase="final")

    s_left = backfill_join(jc, split_dir, start, end, num_partitions=8,
                           phase="left")
    assert sorted(s_left["left_partitions_written"]) == days
    assert s_left["partitions_written"] == []
    assert not os.path.isdir(os.path.join(split_dir, "parts"))

    # per-part scheduling: each part as its own invocation
    s_p1 = backfill_join(jc, split_dir, start, end, num_partitions=8,
                         phase="parts", selected_parts=["gb_sum"])
    assert s_p1["parts"]["p2_gb_cnt"] == {"steps": 0, "skipped": [],
                                          "selected": False}
    assert s_p1["part_steps_computed"] == 1
    with pytest.raises(RuntimeError, match="p2_gb_cnt"):
        backfill_join(jc, split_dir, start, end, num_partitions=8,
                      phase="final")
    s_p2 = backfill_join(jc, split_dir, start, end, num_partitions=8,
                         phase="parts", selected_parts=["p2_gb_cnt"])
    assert s_p2["part_steps_computed"] == 1
    # unknown part name is loud
    with pytest.raises(ValueError, match="unknown join parts"):
        backfill_join(jc, split_dir, start, end, num_partitions=8,
                      phase="parts", selected_parts=["nope"])

    s_fin = backfill_join(jc, split_dir, start, end, num_partitions=8,
                          phase="final")
    assert sorted(s_fin["partitions_written"]) == days
    assert s_fin["part_steps_computed"] == 0

    def read_all(base):
        files = [os.path.join(base, f"ds={d}", f) for d in days
                 for f in sorted(os.listdir(os.path.join(base, f"ds={d}")))
                 if f.endswith(".parquet")]
        return rd.read_parquet(files).to_pandas() \
            .sort_values(["doc_id", "ts"]).reset_index(drop=True)

    g, x = read_all(split_dir), read_all(one_dir)
    assert list(g.columns) == list(x.columns)
    assert len(g) == len(x)
    for c in g.columns:
        a, b = g[c].to_numpy(), x[c].to_numpy()
        if a.dtype.kind == "f":
            an, bn = np.isnan(a.astype(float)), np.isnan(b.astype(float))
            assert (an == bn).all(), c
            np.testing.assert_allclose(a[~an].astype(float),
                                       b[~bn].astype(float), err_msg=c)
        else:
            assert (a == b).all(), c

    # resume across phases: a re-run of every phase is a full no-op
    for ph in ("left", "parts", "final"):
        s = backfill_join(jc, split_dir, start, end, num_partitions=8,
                          phase=ph)
        assert s["part_steps_computed"] == 0
        assert s["partitions_written"] == []
        assert s["left_partitions_written"] == []


# ------------------------------------------- one co-partitioned plan per step


@pytest.fixture(scope="module")
def small_dirs(ray_session, tmp_path_factory):
    """Events and a left table with null keys and duplicate (key, ts)
    rows, each left row numbered so duplicates stay apart."""
    import pyarrow.compute as pc

    from chronon_ray.testing.tokengen import gen_events, gen_queries

    base = tmp_path_factory.mktemp("bfj_small")
    ev = gen_events(3000, n_keys=40, seed=31, span_days=8)
    q = gen_queries(500, ev, n_keys=40, seed=32)
    n = len(q)
    null_key = pa.array(np.arange(n) % 7 == 0)
    q = q.set_column(0, "doc_id",
                     pc.if_else(null_key, pa.scalar(None, pa.string()),
                                q["doc_id"]))
    q = pa.concat_tables([q, q.slice(0, n // 3)])  # duplicate (key, ts)
    q = q.append_column("row", pa.array(np.arange(len(q)), pa.int64()))
    wp(ev, str(base / "events"))
    wp(q, str(base / "queries"))
    return {"events_dir": str(base / "events"),
            "left_dir": str(base / "queries")}


def _small_conf(dirs):
    ev = EventSource(table=dirs["events_dir"])
    parts = [GroupByConf(name=n, sources=(ev,), key_columns=("doc_id",),
                         aggregations=(a,))
             for n, a in (("sum7d", agg("n_tok", "sum", [window(7, "d")])),
                          ("cnt1d", agg("n_tok", "count", [window(1, "d")])),
                          ("src7d", agg("source", "last",
                                        [window(7, "d")])))]
    return JoinConf(name="bfj_small", left=EventSource(table=dirs["left_dir"]),
                    parts=tuple(JoinPart(group_by=g) for g in parts))


def _read_out(base, days):
    import ray.data as rd

    files = [os.path.join(base, f"ds={d}", f) for d in days
             for f in sorted(os.listdir(os.path.join(base, f"ds={d}")))
             if f.endswith(".parquet")]
    out = rd.read_parquet(files).to_pandas() \
        .drop(columns=["ds"], errors="ignore")
    return out.sort_values("row" if "row" in out else ["doc_id", "ts"]) \
        .reset_index(drop=True)


def test_backfill_join_null_and_duplicate_left_rows_match_compute_join(
        small_dirs, tmp_path):
    from dataclasses import replace

    from chronon_ray.pipelines.joins import compute_join
    from chronon_ray.sources import list_partitions

    jc = _small_conf(small_dirs)
    days = list_partitions(small_dirs["left_dir"])[-4:]
    out = str(tmp_path / "out")
    s = backfill_join(jc, out, days[0], days[-1], step_days=3,
                      num_partitions=4)
    assert sorted(s["partitions_written"]) == days
    got = _read_out(out, days)
    q = replace(jc.left.query or TQuery(), start_partition=days[0],
                end_partition=days[-1])
    exp = compute_join(replace(jc, left=replace(jc.left, query=q)),
                       num_partitions=4).to_pandas() \
        .drop(columns=["ds"], errors="ignore") \
        .sort_values("row").reset_index(drop=True)
    assert got["doc_id"].isna().any()
    assert got.duplicated(["doc_id", "ts"]).any()
    # each part cache holds one row per distinct (key, ts), null key included
    n_distinct = len(got.drop_duplicates(["doc_id", "ts"]))
    for part in jc.parts:
        cache = _read_out(os.path.join(out, "parts", part.full_prefix), days)
        assert len(cache) == n_distinct, part.full_prefix
        assert not cache.duplicated(["doc_id", "ts"]).any()
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        a, b = got[c], exp[c]
        assert (a.isna() == b.isna()).all(), c
        keep = ~a.isna()
        if a.dtype.kind in "fiu":
            np.testing.assert_allclose(a[keep].astype(float),
                                       b[keep].astype(float), err_msg=c)
        else:
            assert (a[keep] == b[keep]).all(), c


def test_backfill_join_writes_only_missing_targets(small_dirs, tmp_path):
    """One output day and another day of one part cache are missing: one
    step computes that part, attaches the other parts from their caches,
    and writes exactly those two days."""
    from chronon_ray.sources import list_partitions

    jc = _small_conf(small_dirs)
    days = list_partitions(small_dirs["left_dir"])[-3:]
    out = str(tmp_path / "out")
    backfill_join(jc, out, days[0], days[-1], num_partitions=4)
    before = _read_out(out, days)

    def manifests():
        found = {}
        for root, _, files in os.walk(out):
            if "_MANIFEST.json" in files:
                f = os.path.join(root, "_MANIFEST.json")
                found[os.path.relpath(root, out)] = os.stat(f).st_mtime_ns
        return found

    shutil.rmtree(os.path.join(out, f"ds={days[1]}"))
    shutil.rmtree(os.path.join(out, "parts", "cnt1d", f"ds={days[2]}"))
    kept = manifests()
    s = backfill_join(jc, out, days[0], days[-1], num_partitions=4)
    assert s["partitions_written"] == [days[1]]
    assert s["left_partitions_written"] == []
    assert s["part_steps_computed"] == 1
    assert {p: v["steps"] for p, v in s["parts"].items()} == {
        "sum7d": 0, "cnt1d": 1, "src7d": 0}
    now = manifests()
    assert sorted(set(now) - set(kept)) == sorted(
        [f"ds={days[1]}", os.path.join("parts", "cnt1d", f"ds={days[2]}")])
    assert all(now[k] == v for k, v in kept.items())
    after = _read_out(out, days)
    pd.testing.assert_frame_equal(after, before)
    again = backfill_join(jc, out, days[0], days[-1], num_partitions=4)
    assert again["part_steps_computed"] == 0
    assert again["partitions_written"] == []


@pytest.mark.parametrize("typed", [True, False], ids=["columns", "callable"])
def test_backfill_join_derivations_match_compute_join(small_dirs, tmp_path,
                                                      typed):
    """The output target applies the join's derivations in the step's
    write tasks: declared (column-only) and value-typed (a callable)
    derivations alike give compute_join's output."""
    from dataclasses import replace

    from chronon_ray.expr import sql_expr
    from chronon_ray.pipelines.joins import compute_join
    from chronon_ray.sources import list_partitions

    derivations = (("*", "*"), ("sum_again", "sum7d_n_tok_sum_7d"))
    if not typed:
        derivations += (("twice", sql_expr("sum7d_n_tok_sum_7d * 2")),)
    jc = replace(_small_conf(small_dirs), derivations=derivations)
    days = list_partitions(small_dirs["left_dir"])[-2:]
    out = str(tmp_path / "out")
    s = backfill_join(jc, out, days[0], days[-1], num_partitions=4)
    assert sorted(s["partitions_written"]) == days
    got = _read_out(out, days)
    q = replace(jc.left.query or TQuery(), start_partition=days[0],
                end_partition=days[-1])
    exp = compute_join(replace(jc, left=replace(jc.left, query=q)),
                       num_partitions=4).to_pandas() \
        .drop(columns=["ds"], errors="ignore") \
        .sort_values("row").reset_index(drop=True)
    assert "sum_again" in got and ("twice" in got) == (not typed)
    assert sorted(got.columns) == sorted(exp.columns)
    pd.testing.assert_frame_equal(got, exp[list(got.columns)],
                                  check_dtype=False)


def test_backfill_join_mixed_accuracy_matches_compute_join(small_dirs,
                                                           tmp_path):
    """A TEMPORAL and a SNAPSHOT part run through the same step plan: one
    phase="all" run and left → parts → final runs both give compute_join's
    output on the same left range, and a re-run computes nothing."""
    from dataclasses import replace

    from chronon_ray.api import Accuracy
    from chronon_ray.pipelines.joins import compute_join
    from chronon_ray.sources import list_partitions

    base = _small_conf(small_dirs)
    snap = replace(base.parts[2].group_by, name="src7d_snap",
                   accuracy=Accuracy.SNAPSHOT)
    jc = replace(base, parts=(base.parts[0], JoinPart(group_by=snap)))
    days = list_partitions(small_dirs["left_dir"])[-3:]
    q = replace(jc.left.query or TQuery(), start_partition=days[0],
                end_partition=days[-1])
    exp = compute_join(replace(jc, left=replace(jc.left, query=q)),
                       num_partitions=4).to_pandas() \
        .drop(columns=["ds"], errors="ignore") \
        .sort_values("row").reset_index(drop=True)
    # the SNAPSHOT part answers one question per (key, day)
    day = exp["ts"] // 86_400_000
    per_day = exp.groupby([exp["doc_id"].fillna("<null>"), day],
                          dropna=False)["src7d_snap_source_last_7d"]
    assert (per_day.nunique(dropna=False) == 1).all()
    for phases in (["all"], ["left", "parts", "final"]):
        out = str(tmp_path / "-".join(phases))
        for ph in phases:
            backfill_join(jc, out, days[0], days[-1], step_days=2,
                          num_partitions=4, phase=ph)
        got = _read_out(out, days)
        assert list(got.columns) == list(exp.columns)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        again = backfill_join(jc, out, days[0], days[-1], step_days=2,
                              num_partitions=4)
        assert again["part_steps_computed"] == 0
        assert again["partitions_written"] == []
