"""Backfill driver: partition-range arithmetic, lineage manifests, and
kill-and-rerun resumability (fills only missing partitions)."""

import os
import shutil

import numpy as np
import pytest

from chronon_ray.api import GroupByConf, agg, window
from chronon_ray.state.lineage import completed_partitions, read_manifest
from chronon_ray.state.partitions import (
    PartitionRange,
    collapse_to_ranges,
    unfilled_ranges,
)
from chronon_ray.testing.tokengen import ensure_fixture, gen_queries, gen_events, write_partitioned as write_part_fixture


def test_partition_range_arithmetic():
    r = PartitionRange("2024-01-01", "2024-01-10")
    assert len(r.partitions()) == 10
    steps = r.steps(4)
    assert [(s.start, s.end) for s in steps] == [
        ("2024-01-01", "2024-01-04"), ("2024-01-05", "2024-01-08"),
        ("2024-01-09", "2024-01-10")]
    assert collapse_to_ranges(["2024-01-01", "2024-01-02", "2024-01-05"]) == [
        PartitionRange("2024-01-01", "2024-01-02"),
        PartitionRange("2024-01-05", "2024-01-05")]
    got = unfilled_ranges(r, ["2024-01-03", "2024-01-04"], skip_first_hole=False)
    assert got == [PartitionRange("2024-01-01", "2024-01-02"),
                   PartitionRange("2024-01-05", "2024-01-10")]
    # skip_first_hole: holes before the newest filled partition stay skipped
    got2 = unfilled_ranges(r, ["2024-01-03", "2024-01-04"], skip_first_hole=True)
    assert got2 == [PartitionRange("2024-01-05", "2024-01-10")]


@pytest.fixture(scope="module")
def backfill_env(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("backfill")
    paths = ensure_fixture("t1")
    ev = gen_events(6_000, n_keys=300)
    q = gen_queries(1_000, ev, n_keys=300)
    left_dir = str(base / "left")
    write_part_fixture(q, left_dir)
    return {"left": left_dir, "right": paths["events_dir"], "base": str(base)}


def _conf():
    return GroupByConf(
        name="bf", sources=(), key_columns=("doc_id",),
        aggregations=(agg("n_tok", "sum", [window(7, "d")]),
                      agg("n_tok", "count", [window(7, "d")])),
    )


def test_backfill_resume(backfill_env):
    from chronon_ray.pipelines.backfill import backfill_temporal_join
    from chronon_ray.sources import list_partitions

    out_dir = os.path.join(backfill_env["base"], "out")
    left_parts = list_partitions(backfill_env["left"])
    start, end = left_parts[2], left_parts[6]
    s1 = backfill_temporal_join(backfill_env["left"], backfill_env["right"],
                                _conf(), out_dir, start, end, step_days=2,
                                num_partitions=4)
    written = s1["partitions_written"]
    assert sorted(written) == PartitionRange(start, end).partitions()
    man = read_manifest(out_dir, written[0])
    assert man["rows"] > 0 and man["config_hash"] == _conf().semantic_hash()
    assert man["input_range"] is not None

    # re-run: nothing recomputed
    s2 = backfill_temporal_join(backfill_env["left"], backfill_env["right"],
                                _conf(), out_dir, start, end, step_days=2,
                                num_partitions=4)
    assert s2["partitions_written"] == []
    assert sorted(s2["skipped"]) == sorted(written)

    # kill one partition → only it is refilled
    victim = written[2]
    shutil.rmtree(os.path.join(out_dir, f"ds={victim}"))
    s3 = backfill_temporal_join(backfill_env["left"], backfill_env["right"],
                                _conf(), out_dir, start, end, step_days=2,
                                num_partitions=4)
    assert s3["partitions_written"] == [victim]

    # config change → archive + full recompute
    conf2 = GroupByConf(
        name="bf", sources=(), key_columns=("doc_id",),
        aggregations=(agg("n_tok", "sum", [window(1, "d")]),),
    )
    s4 = backfill_temporal_join(backfill_env["left"], backfill_env["right"],
                                conf2, out_dir, start, end, step_days=2,
                                num_partitions=4)
    assert sorted(s4["partitions_written"]) == PartitionRange(start, end).partitions()
    assert len(s4["archived"]) == len(written)


def test_archived_partitions_leave_the_ds_namespace(backfill_env):
    """Two config changes archive each real day once, and scans and
    listings see only the live partitions; a table whose every partition
    is archived reads as zero rows."""
    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.backfill import backfill_temporal_join
    from chronon_ray.sources import list_partitions, partition_paths, scan_table
    from chronon_ray.state.lineage import archive_mismatched

    out_dir = os.path.join(backfill_env["base"], "out_archive")
    start, end = list_partitions(backfill_env["left"])[2:4]
    days = [start, end]
    summaries = []
    for i, w in enumerate((7, 1, 3)):  # hashes old, new, newer
        conf = GroupByConf(name="arch", sources=(), key_columns=("doc_id",),
                           aggregations=(agg("n_tok", "sum",
                                             [window(w, "d")]),))
        summaries.append(backfill_temporal_join(
            backfill_env["left"], backfill_env["right"], conf, out_dir,
            start, end, num_partitions=4))
        assert sorted(summaries[-1]["partitions_written"]) == days
        assert sorted(summaries[-1]["archived"]) == (days if i else [])
        assert list_partitions(out_dir) == days
        assert completed_partitions(out_dir) == days
        live = sum(read_manifest(out_dir, d)["rows"] for d in days)
        scanned = scan_table(out_dir, TQuery(start_partition="2000-01-01",
                                             end_partition="2099-12-31"))
        assert scanned.count() == live > 0
    assert "n_tok_sum_3d" in scanned.columns()

    assert sorted(archive_mismatched(out_dir, "gone")) == days
    assert list_partitions(out_dir) == completed_partitions(out_dir) == []
    assert partition_paths(out_dir) == []
    for q in (TQuery(), TQuery(start_partition=start, end_partition=end)):
        assert scan_table(out_dir, q).count() == 0


def test_backfill_matches_direct(backfill_env):
    """Backfilled output == one-shot temporal_join on the same left rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.backfill import backfill_temporal_join
    from chronon_ray.pipelines.temporal import temporal_join
    from chronon_ray.sources import list_partitions, scan_table

    out_dir = os.path.join(backfill_env["base"], "out_direct")
    left_parts = list_partitions(backfill_env["left"])
    start, end = left_parts[3], left_parts[5]
    backfill_temporal_join(backfill_env["left"], backfill_env["right"], _conf(),
                           out_dir, start, end, step_days=1, num_partitions=4)
    got = rd.read_parquet(out_dir).to_pandas()
    got = got.sort_values(["doc_id", "ts"], kind="stable").reset_index(drop=True)

    left = scan_table(backfill_env["left"],
                      TQuery(start_partition=start, end_partition=end))
    right = scan_table(backfill_env["right"], TQuery())
    exp = temporal_join(left, right, _conf(), num_partitions=4).to_pandas()
    exp = exp.sort_values(["doc_id", "ts"], kind="stable").reset_index(drop=True)
    assert len(got) == len(exp)
    for col in ["n_tok_sum_7d", "n_tok_count_7d"]:
        g = got[col].astype(float).to_numpy()
        w = exp[col].astype(float).to_numpy()
        nan = np.isnan(g) & np.isnan(w)
        np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-9, err_msg=col)


def test_backfill_incremental_rolls_and_resumes(backfill_env):
    """Incremental driver: day D = roll(checkpoint) + serve(day events);
    output equals the one-shot temporal join, resume reuses checkpoints."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.backfill import backfill_incremental
    from chronon_ray.pipelines.temporal import temporal_join
    from chronon_ray.sources import list_partitions, scan_table

    out_dir = os.path.join(backfill_env["base"], "out_inc")
    ck_dir = os.path.join(backfill_env["base"], "ck_inc")
    left_parts = list_partitions(backfill_env["left"])
    start, end = left_parts[8], left_parts[11]
    s1 = backfill_incremental(backfill_env["left"], backfill_env["right"],
                              _conf(), out_dir, ck_dir, start, end,
                              num_partitions=4)
    days = PartitionRange(start, end).partitions()
    assert sorted(s1["partitions_written"]) == days
    # first day bootstraps one max-window scan; every later day only rolls
    assert s1["checkpoints"][days[0]] == "bootstrapped"
    assert all(s1["checkpoints"][d] == "rolled" for d in days[1:])

    got = rd.read_parquet(out_dir).to_pandas() \
        .sort_values(["doc_id", "ts"], kind="stable").reset_index(drop=True)
    left = scan_table(backfill_env["left"],
                      TQuery(start_partition=start, end_partition=end))
    right = scan_table(backfill_env["right"], TQuery())
    exp = temporal_join(left, right, _conf(), num_partitions=4).to_pandas() \
        .drop(columns=["ds"]) \
        .sort_values(["doc_id", "ts"], kind="stable").reset_index(drop=True)
    assert len(got) == len(exp)
    for c in ("n_tok_sum_7d", "n_tok_count_7d"):
        a = got[c].astype(float)
        b = exp[c].astype(float)
        assert (a.isna() == b.isna()).all(), c
        np.testing.assert_allclose(a.dropna(), b.dropna(), rtol=1e-9,
                                   err_msg=c)

    # kill one output day -> only it refills, from the CACHED checkpoint
    victim = days[2]
    shutil.rmtree(os.path.join(out_dir, f"ds={victim}"))
    s2 = backfill_incremental(backfill_env["left"], backfill_env["right"],
                              _conf(), out_dir, ck_dir, start, end,
                              num_partitions=4)
    assert s2["partitions_written"] == [victim]
    assert s2["checkpoints"][victim] == "cached"
    assert sorted(s2["skipped"]) == sorted(set(days) - {victim})
