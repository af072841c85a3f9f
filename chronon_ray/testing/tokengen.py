"""Deterministic synthetic pre-tokenized-sequence tables (FIXTURES.md F1/F2).

Shape per BASELINE.json input_hint: (doc_id:string, tokens:array<int32>,
n_tok:int32, source:string) + reserved ts (epoch millis) and ds columns.
Generation style mirrors the reference's seeded CStream/DataFrameGen
(reference: aggregator/test/DataGen.scala:145-177 — Column(name, type,
cardinality) specs, ~1% nulls, timestamps uniform over a trailing window)
with zipf-ish key skew plus deliberately hot keys (per-partition kernel
skew).

Everything is a pure function of (seed, n_rows) — no wall clock, no
external data. `NOW_MS` is pinned.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

NOW_MS = 1_706_745_600_000  # 2024-02-01T00:00:00Z, pinned for determinism
DAY_MS = 86_400_000
SOURCES = np.array(["web", "code", "books", "wiki"])
VOCAB = 50_257
MIN_LEN, MAX_LEN = 8, 128


def _ds_strings(ts_ms: np.ndarray) -> np.ndarray:
    days = (ts_ms // DAY_MS).astype("datetime64[D]")
    return np.datetime_as_string(days, unit="D")


def gen_events(n_rows: int, n_keys: int = 1000, seed: int = 42,
               span_days: int = 30, hot_frac: float = 0.10, n_hot: int = 3) -> pa.Table:
    """F1: token event table. ~hot_frac of rows land on each of n_hot hot keys."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # zipf-ish key draw over n_keys, then hot-key override
    ranks = np.arange(1, n_keys + 1)
    probs = 1.0 / ranks
    probs /= probs.sum()
    key_idx = rng.choice(n_keys, size=n_rows, p=probs)
    hot_mask = rng.random(n_rows) < hot_frac * n_hot
    key_idx[hot_mask] = rng.integers(0, n_hot, size=int(hot_mask.sum()))
    doc_id = np.char.add("doc_", np.char.zfill(key_idx.astype(str), 8))

    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=n_rows).astype(np.int32)
    total = int(lengths.sum())
    flat = rng.integers(0, VOCAB, size=total, dtype=np.int32)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    tokens = pa.LargeListArray.from_arrays(pa.array(offsets, type=pa.int64()),
                                           pa.array(flat, type=pa.int32()))

    source = SOURCES[rng.integers(0, len(SOURCES), size=n_rows)]
    ts = NOW_MS - rng.integers(0, span_days * DAY_MS, size=n_rows)
    ds = _ds_strings(ts)
    return pa.table({
        "doc_id": pa.array(doc_id, type=pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(lengths, type=pa.int32()),
        "source": pa.array(source, type=pa.string()),
        "ts": pa.array(ts, type=pa.int64()),
        "ds": pa.array(ds, type=pa.string()),
    })


def gen_queries(n_rows: int, events: pa.Table, n_keys: int = 1000, seed: int = 43,
                span_days: int = 14, unseen_frac: float = 0.02,
                tie_frac: float = 0.05, dup_frac: float = 0.05) -> pa.Table:
    """F2: left (doc_id, ts) pairs — includes unseen keys (null features),
    exact-tie timestamps (strict `<` check) and duplicated rows, mirroring
    JoinTest's deliberately-duplicated item_queries (reference:
    spark/test/JoinTest.scala:553-558)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    key_idx = rng.integers(0, n_keys, size=n_rows)
    unseen = rng.random(n_rows) < unseen_frac
    doc_id = np.char.add("doc_", np.char.zfill(key_idx.astype(str), 8))
    doc_id[unseen] = np.char.add("unseen_", np.char.zfill(
        rng.integers(0, 1000, size=int(unseen.sum())).astype(str), 8))
    ts = NOW_MS - rng.integers(0, span_days * DAY_MS, size=n_rows)
    # exact ties: copy (key, ts) from random event rows
    n_tie = int(n_rows * tie_frac)
    if n_tie:
        ev_sel = rng.integers(0, len(events), size=n_tie)
        tie_pos = rng.integers(0, n_rows, size=n_tie)
        ev_ids = events["doc_id"].take(pa.array(ev_sel)).to_numpy(zero_copy_only=False)
        ev_ts = events["ts"].take(pa.array(ev_sel)).to_numpy(zero_copy_only=False)
        doc_id = doc_id.astype(object)
        doc_id[tie_pos] = ev_ids
        ts[tie_pos] = ev_ts
    # duplicates
    n_dup = int(n_rows * dup_frac)
    if n_dup:
        src = rng.integers(0, n_rows, size=n_dup)
        doc_id = np.concatenate([doc_id, doc_id[src]])
        ts = np.concatenate([ts, ts[src]])
    ds = _ds_strings(ts)
    return pa.table({
        "doc_id": pa.array(doc_id, type=pa.string()),
        "ts": pa.array(ts, type=pa.int64()),
        "ds": pa.array(ds, type=pa.string()),
    })


def write_partitioned(tbl: pa.Table, out_dir: str, partition_col: str = "ds") -> None:
    """One parquet file per ds= subdir (the layout scan_table prunes)."""
    os.makedirs(out_dir, exist_ok=True)
    ds_vals = tbl[partition_col].to_numpy(zero_copy_only=False)
    for v in np.unique(ds_vals):
        sub = tbl.filter(pa.array(ds_vals == v))
        pdir = os.path.join(out_dir, f"{partition_col}={v}")
        os.makedirs(pdir, exist_ok=True)
        pq.write_table(sub.drop_columns([partition_col]), os.path.join(pdir, "part-0.parquet"))


def write_shards(tbl: pa.Table, out_dir: str, n_shards: int) -> None:
    """Round-robin-contiguous shard files so ray.data.read_parquet gets one
    read TASK per file (a single big file reads serially — at bench scale
    that serial read is ~25% of headline wall)."""
    os.makedirs(out_dir, exist_ok=True)
    n = tbl.num_rows
    step = -(-n // n_shards)
    for i in range(n_shards):
        sub = tbl.slice(i * step, step)
        if sub.num_rows == 0:
            break
        pq.write_table(sub, os.path.join(out_dir, f"part-{i:03d}.parquet"))


def _n_shards(n_rows: int) -> int:
    return int(min(64, max(8, n_rows // 100_000)))


_SCALES = {
    # name: (event_rows, query_rows, n_keys)
    "t1": (6_000, 1_000, 300),
    "t2": (60_000, 10_000, 1_000),
    "bench": (600_000, 100_000, 5_000),
    # scaling runs need enough work per core for 32-way parallelism to matter
    "bench_lg": (6_000_000, 600_000, 20_000),
    # fixed per-job costs (driver planning, actor spin-up, shuffle round
    # coordination) are ~constant; at bench_lg/32cpu they eat ~20% of wall
    # and cap measured efficiency — the scaling criterion targets big-job
    # throughput, so evidence it on a fixture big enough to amortize them
    "bench_xl": (24_000_000, 1_200_000, 40_000),
}


def ensure_fixture(scale: str, root: str = "/tmp/chronon_ray_fixtures") -> dict:
    """Generate-and-cache the F1/F2 tables for a named scale. Returns paths."""
    n_ev, n_q, n_keys = _SCALES[scale]
    base = os.path.join(root, scale)
    done = os.path.join(base, "_DONE")
    paths = {
        "events_dir": os.path.join(base, "token_events"),
        "events_file": os.path.join(base, "token_events.parquet"),
        "queries_file": os.path.join(base, "token_queries.parquet"),
        "events_shards": os.path.join(base, "token_events_shards"),
        "queries_shards": os.path.join(base, "token_queries_shards"),
    }
    if os.path.exists(done):
        # upgrade older caches in place: derive shards from the single files
        if not os.path.isdir(paths["events_shards"]):
            write_shards(pq.read_table(paths["events_file"]),
                         paths["events_shards"], _n_shards(n_ev))
            write_shards(pq.read_table(paths["queries_file"]),
                         paths["queries_shards"], _n_shards(n_q))
        return paths
    os.makedirs(base, exist_ok=True)
    events = gen_events(n_ev, n_keys=n_keys)
    queries = gen_queries(n_q, events, n_keys=n_keys)
    pq.write_table(events, paths["events_file"])
    pq.write_table(queries, paths["queries_file"])
    write_partitioned(events, paths["events_dir"])
    write_shards(events, paths["events_shards"], _n_shards(n_ev))
    write_shards(queries, paths["queries_shards"], _n_shards(n_q))
    with open(done, "w") as f:
        f.write("ok")
    return paths
