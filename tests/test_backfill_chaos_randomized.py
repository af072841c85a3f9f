"""Randomized chaos differential for the backfill drivers: random confs,
ranges and step sizes, then randomized partial failures (deleted
partitions, torn writes without manifests, config changes) between runs —
the resumed final state must equal a one-shot compute over the same range
(reference resume semantics: JoinBase.scala:59-68 unfilledRanges +
semantic-hash archiving)."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
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
from chronon_ray.pipelines.backfill import backfill_join, backfill_temporal_join
from chronon_ray.sources import ARCHIVE_DIR, list_partitions, scan_table
from chronon_ray.state.partitions import PartitionRange
from chronon_ray.testing.tokengen import (
    gen_events,
    gen_queries,
    write_partitioned as wp,
)


@pytest.fixture(scope="module")
def chaos_env(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("bf_chaos")
    ev = gen_events(6_000, n_keys=250, seed=101)
    q = gen_queries(1_200, ev, n_keys=250, seed=102)
    left_dir, right_dir = str(base / "left"), str(base / "right")
    wp(q, left_dir)
    wp(ev, right_dir)
    return {"base": str(base), "left": left_dir, "right": right_dir,
            "left_parts": list_partitions(left_dir)}


_POOL = [
    lambda: agg("n_tok", "sum", [window(3, "d"), UNBOUNDED]),
    lambda: agg("n_tok", "count", [window(1, "d"), window(7, "d")]),
    lambda: agg("n_tok", "average", [window(7, "d")]),
    lambda: agg("n_tok", "min", [window(3, "d")]),
    lambda: agg("n_tok", "max", [UNBOUNDED]),
    lambda: agg("source", "unique_count", [window(7, "d")]),
    lambda: agg("tokens", "last", [window(3, "d")]),
]


def _rand_conf(rng: np.random.Generator, name: str) -> GroupByConf:
    idx = rng.choice(len(_POOL), size=int(rng.integers(2, 5)), replace=False)
    return GroupByConf(name=name, sources=(), key_columns=("doc_id",),
                       aggregations=tuple(_POOL[i]() for i in sorted(idx)))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: tuple(v) if isinstance(v, (list, np.ndarray))
                else v)
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _read_output(out_dir: str) -> pd.DataFrame:
    frames = []
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith("ds="):
            continue
        pdir = os.path.join(out_dir, d)
        tbls = [pq.read_table(os.path.join(pdir, f))
                for f in os.listdir(pdir) if f.endswith(".parquet")]
        for t in tbls:
            f = t.to_pandas()
            f["ds"] = d.split("=", 1)[1]
            frames.append(f)
    return pd.concat(frames, ignore_index=True)


def _chaos(rng: np.random.Generator, out_dir: str, days: list[str]) -> None:
    """Delete some partitions outright, tear others (manifest removed)."""
    k = int(rng.integers(1, max(2, len(days) // 2 + 1)))
    victims = rng.choice(days, size=min(k, len(days)), replace=False)
    for ds in victims:
        pdir = os.path.join(out_dir, f"ds={ds}")
        if rng.random() < 0.5:
            shutil.rmtree(pdir)
        else:  # torn write: data present, manifest gone → must recompute
            os.remove(os.path.join(pdir, "_MANIFEST.json"))


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_temporal_backfill_chaos(chaos_env, tmp_path, seed):
    rng = np.random.default_rng(seed)
    parts = chaos_env["left_parts"]
    lo = int(rng.integers(0, len(parts) - 5))
    n_days = int(rng.integers(3, 6))
    start, end = parts[lo], parts[min(lo + n_days - 1, len(parts) - 1)]
    conf = _rand_conf(rng, f"chaos{seed}")
    step_days = int(rng.integers(1, 4))
    out = str(tmp_path / "out")

    backfill_temporal_join(chaos_env["left"], chaos_env["right"], conf, out,
                           start, end, step_days=step_days, num_partitions=4)
    days = PartitionRange(start, end).partitions()
    days = [d for d in days if os.path.isdir(os.path.join(out, f"ds={d}"))]
    _chaos(rng, out, days)
    s2 = backfill_temporal_join(chaos_env["left"], chaos_env["right"], conf,
                                out, start, end, step_days=step_days,
                                num_partitions=4)
    assert s2["partitions_written"], "chaos should force recompute"

    # one-shot oracle over the same left range (full right history)
    from chronon_ray.pipelines.temporal import temporal_join

    left = scan_table(chaos_env["left"],
                      TQuery(start_partition=start, end_partition=end))
    right = scan_table(chaos_env["right"], TQuery())
    oracle = temporal_join(left, right, conf, num_partitions=4).to_pandas()
    got = _read_output(out)
    assert sorted(got.columns) == sorted(oracle.columns)
    pd.testing.assert_frame_equal(_canon(got), _canon(oracle),
                                  check_dtype=False, rtol=1e-9, atol=1e-12)


def test_config_change_archives_and_recomputes(chaos_env, tmp_path):
    rng = np.random.default_rng(11)
    parts = chaos_env["left_parts"]
    start, end = parts[2], parts[4]
    out = str(tmp_path / "out")
    conf_a = _rand_conf(rng, "cfg")
    s1 = backfill_temporal_join(chaos_env["left"], chaos_env["right"],
                                conf_a, out, start, end, step_days=2,
                                num_partitions=4)
    written1 = sorted(s1["partitions_written"])  # left days with queries
    conf_b = GroupByConf(
        name="cfg", sources=(), key_columns=("doc_id",),
        aggregations=conf_a.aggregations
        + (agg("n_tok", "sum", [window(1, "d")]),))
    assert conf_b.semantic_hash() != conf_a.semantic_hash()
    s2 = backfill_temporal_join(chaos_env["left"], chaos_env["right"],
                                conf_b, out, start, end, step_days=2,
                                num_partitions=4)
    assert sorted(s2["archived"]) == written1
    assert sorted(s2["partitions_written"]) == written1
    # archived dirs still on disk; live manifests carry the new hash
    archived = glob.glob(os.path.join(out, ARCHIVE_DIR, "*", "ds=*"))
    assert len(archived) == len(written1)
    from chronon_ray.state.lineage import read_manifest

    for d in written1:
        assert read_manifest(out, d)["config_hash"] == conf_b.semantic_hash()

    from chronon_ray.pipelines.temporal import temporal_join

    left = scan_table(chaos_env["left"],
                      TQuery(start_partition=start, end_partition=end))
    right = scan_table(chaos_env["right"], TQuery())
    oracle = temporal_join(left, right, conf_b, num_partitions=4).to_pandas()
    pd.testing.assert_frame_equal(_canon(_read_output(out)), _canon(oracle),
                                  check_dtype=False, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [21, 22])
def test_join_backfill_chaos(chaos_env, tmp_path, seed):
    """Multi-part join driver: chaos on BOTH the part caches and the output;
    the resumed run must equal a pristine one-shot backfill."""
    rng = np.random.default_rng(seed)
    ev_src = EventSource(table=chaos_env["right"], query=TQuery())
    gb1 = _rand_conf(rng, "jp1")
    gb1 = GroupByConf(name="jp1", sources=(ev_src,),
                      key_columns=("doc_id",),
                      aggregations=gb1.aggregations)
    gb2 = GroupByConf(name="jp2", sources=(ev_src,),
                      key_columns=("doc_id",),
                      aggregations=(agg("n_tok", "count", [UNBOUNDED]),))
    jc = JoinConf(name=f"jchaos{seed}",
                  left=EventSource(table=chaos_env["left"], query=TQuery()),
                  parts=(JoinPart(group_by=gb1),
                         JoinPart(group_by=gb2, prefix="p2")))
    parts = chaos_env["left_parts"]
    lo = int(rng.integers(0, len(parts) - 4))
    start, end = parts[lo], parts[lo + 2]

    out = str(tmp_path / "out")
    s1 = backfill_join(jc, out, start, end, num_partitions=4)
    days = sorted(s1["partitions_written"])
    _chaos(rng, out, days)
    # also kill one random part's cache for one day
    pnames = os.listdir(os.path.join(out, "parts"))
    victim = str(rng.choice(pnames))
    vday = str(rng.choice(days))
    vdir = os.path.join(out, "parts", victim, f"ds={vday}")
    if os.path.isdir(vdir):
        shutil.rmtree(vdir)
    backfill_join(jc, out, start, end, num_partitions=4)

    pristine = str(tmp_path / "pristine")
    backfill_join(jc, pristine, start, end, num_partitions=4)
    pd.testing.assert_frame_equal(_canon(_read_output(out)),
                                  _canon(_read_output(pristine)),
                                  check_dtype=False, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [31, 32])
def test_incremental_backfill_chaos(chaos_env, tmp_path, seed):
    """Rolling-checkpoint driver under chaos: delete mid-chain checkpoints
    and random output days, tear a checkpoint manifest — the resumed chain
    (cached / re-rolled / re-bootstrapped as needed) must still equal the
    one-shot temporal join over the whole range."""
    from chronon_ray.pipelines.backfill import backfill_incremental
    from chronon_ray.pipelines.temporal import temporal_join

    rng = np.random.default_rng(seed)
    idx = [agg("n_tok", "sum", [window(3, "d")]),
           agg("n_tok", "count", [window(7, "d")]),
           agg("n_tok", "average", [UNBOUNDED]),
           agg("source", "unique_count", [window(7, "d")])]
    take = rng.choice(len(idx), size=int(rng.integers(2, 4)), replace=False)
    conf = GroupByConf(name=f"inc{seed}", sources=(),
                       key_columns=("doc_id",),
                       aggregations=tuple(idx[i] for i in sorted(take)))
    parts = chaos_env["left_parts"]
    lo = int(rng.integers(0, len(parts) - 6))
    start, end = parts[lo], parts[lo + 4]
    out = str(tmp_path / "out")
    ck = str(tmp_path / "ck")

    s1 = backfill_incremental(chaos_env["left"], chaos_env["right"], conf,
                              out, ck, start, end, num_partitions=4)
    days = sorted(s1["partitions_written"])
    assert s1["checkpoints"][days[0]] == "bootstrapped"

    # chaos: output days + mid-chain checkpoints
    _chaos(rng, out, days)
    ck_days = sorted(d.split("=", 1)[1] for d in os.listdir(ck)
                     if d.startswith("ds="))
    victims = rng.choice(ck_days, size=int(rng.integers(1, 3)),
                         replace=False)
    for d in victims:
        cdir = os.path.join(ck, f"ds={d}")
        if rng.random() < 0.5:
            shutil.rmtree(cdir)
        else:  # torn checkpoint: manifest gone → unusable, must rebuild
            os.remove(os.path.join(cdir, "_MANIFEST.json"))

    s2 = backfill_incremental(chaos_env["left"], chaos_env["right"], conf,
                              out, ck, start, end, num_partitions=4)
    assert sorted(s2["partitions_written"] + s2["skipped"]) == days

    left = scan_table(chaos_env["left"],
                      TQuery(start_partition=start, end_partition=end))
    right = scan_table(chaos_env["right"], TQuery())
    oracle = temporal_join(left, right, conf, num_partitions=4).to_pandas()
    pd.testing.assert_frame_equal(_canon(_read_output(out)), _canon(oracle),
                                  check_dtype=False, rtol=1e-9, atol=1e-12)
