"""Randomized differential for the snapshot GroupBy (no time dimension).

Seeded random tables (null keys, null values, list / map / bucketed
inputs) with rotating op bundles, checked against a first-principles
pandas oracle with SQL GROUP BY conventions: null keys form their own
group, all-null-input keys are kept with null features (reference parity
pinned in round 3), nulls are skipped per op. The all-null HISTOGRAM
group crash (fixed this round) was exactly the kind of convention hole
these scenarios sweep for."""

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from chronon_ray.api import GroupByConf, agg
from chronon_ray.pipelines.groupby import aggregate_snapshot

_NULLKEY = "\x00<null>"


def _gen(rng, n):
    key = np.array([f"k{i}" for i in rng.integers(0, 12, size=n)],
                   dtype=object)
    key[rng.random(n) < 0.06] = None
    ts = np.sort(rng.integers(1_700_000_000_000, 1_700_900_000_000,
                              size=n)).astype(np.int64)
    # unique ts (first/last tie conventions are covered elsewhere)
    ts = ts + np.arange(n)
    val = np.round(rng.normal(50, 20, size=n), 3)
    val[rng.random(n) < 0.1] = np.nan
    item = rng.integers(0, 9, size=n).astype(float)
    item[rng.random(n) < 0.1] = np.nan
    store = np.array(["s1", "s2", "s3"])[rng.integers(0, 3, size=n)]
    tokens = [rng.integers(0, 15, size=rng.integers(0, 4)).tolist()
              for _ in range(n)]
    metrics = [None if rng.random() < 0.15 else
               {str(m): float(rng.integers(1, 30))
                for m in rng.choice(["x", "y"],
                                    size=int(rng.integers(1, 3)),
                                    replace=False)}
               for _ in range(n)]
    return pd.DataFrame({"user_id": key, "ts": ts, "value": val,
                         "item": item, "store": store,
                         "tokens": tokens, "metrics": metrics})


def _to_ds(df):
    t = pa.table({
        "user_id": pa.array(df["user_id"].tolist(), type=pa.string()),
        "ts": pa.array(df["ts"].to_numpy()),
        "value": pa.array(df["value"].to_numpy(), from_pandas=True),
        "item": pa.array(df["item"].to_numpy(), from_pandas=True,
                         type=pa.int64()),
        "store": pa.array(df["store"].tolist()),
        "tokens": pa.array(df["tokens"].tolist(),
                           type=pa.list_(pa.int64())),
        "metrics": pa.array(df["metrics"].tolist(),
                            type=pa.map_(pa.string(), pa.float64())),
    })
    return rd.from_arrow(t)


def _moments(x):
    n = len(x)
    if n == 0:
        return {"variance": None, "skew": None, "kurtosis": None}
    m = x.mean()
    m2 = float(((x - m) ** 2).sum())
    m3 = float(((x - m) ** 3).sum())
    m4 = float(((x - m) ** 4).sum())
    return {"variance": m2 / n,
            "skew": (None if n < 3 or m2 == 0
                     else math.sqrt(n) * m3 / m2 ** 1.5),
            "kurtosis": (None if n < 4 or m2 == 0
                         else n * m4 / (m2 * m2) - 3.0)}


def _oracle(sub, op, col):
    if col == "tokens":
        vals = [t for lst in sub["tokens"] for t in lst]
        tss = None
    else:
        s = sub[col]
        keep = s.notna()
        vals = s[keep].tolist()
        tss = sub["ts"][keep].tolist()
    if op == "sum":
        return float(np.sum(vals)) if vals else None
    if op == "count":
        return len(vals) if vals else None
    if op == "average":
        return float(np.mean(vals)) if vals else None
    if op in ("variance", "skew", "kurtosis"):
        return _moments(np.asarray(vals, dtype=np.float64))[op]
    if op == "min":
        return min(vals) if vals else None
    if op == "max":
        return max(vals) if vals else None
    if op == "first":
        return vals[int(np.argmin(tss))] if vals else None
    if op == "last":
        return vals[int(np.argmax(tss))] if vals else None
    if op == "unique_count":
        return len(set(vals)) if vals else None
    if op == "histogram":
        return dict(Counter(str(int(v)) for v in vals)) if vals else None
    raise AssertionError(op)


_OPS = ["sum", "count", "average", "variance", "skew", "kurtosis",
        "min", "max", "first", "last"]


def _norm(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, dict):
        return {str(k): _norm(x) for k, x in v.items()}
    if isinstance(v, (list, np.ndarray)):
        lst = list(v)
        if lst and isinstance(lst[0], tuple) and len(lst[0]) == 2:
            return {str(k): _norm(x) for k, x in lst}
        return [_norm(x) for x in lst]
    if isinstance(v, (np.floating, float)):
        return round(float(v), 8)
    if isinstance(v, np.integer):
        return int(v)
    return v


def test_snapshot_null_key_contract(ray_session):
    """Reference GroupBy.scala:510-512: rows where ALL conf keys are null
    are dropped; partially-null multi-key rows are KEPT (null key slot),
    and a null conf key is not rescued by a non-null bucket column.
    (Regression: the bucketed pipeline crashed on null string keys, and
    partially-null keys crashed the key serialization — factorize renders
    None as float NaN.)"""
    t = pa.table({
        "a": pa.array(["x", "x", None, None, "y"], type=pa.string()),
        "b": pa.array(["p", None, "q", None, "p"], type=pa.string()),
        "store": pa.array(["s1", "s1", "s2", "s2", "s1"]),
        "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0]),
    })
    conf = GroupByConf(name="nk", sources=(), key_columns=("a", "b"),
                       aggregations=(agg("value", "sum"),
                                     agg("value", "sum",
                                         buckets=("store",))))
    out = aggregate_snapshot(rd.from_arrow(t), conf,
                             num_partitions=3).to_pandas()
    # (None, None) dropped even though its bucket is non-null
    rows = {(r["a"], r["b"]): r for _, r in out.iterrows()}
    key = {(a if pd.notna(a) else None, b if pd.notna(b) else None): v
           for (a, b), v in rows.items()}
    assert set(key) == {("x", "p"), ("x", None), (None, "q"), ("y", "p")}
    assert key[("x", None)]["value_sum"] == 2.0
    assert key[(None, "q")]["value_sum"] == 4.0
    assert _norm(key[(None, "q")]["value_sum_by_store"]) == {"s2": 4.0}


def test_snapshot_int_key_null_block_partition_stability(ray_session):
    """Regression: to_pandas float-promotes an int key column whenever a
    block contains any null key, and hash(5.0) != hash(5) split one key's
    partials across partitions — aggregate_snapshot emitted duplicate rows
    per key with partial sums. The partition hash must come from the
    canonicalized Arrow keys."""
    t1 = pa.table({"user_id": pa.array([5, 5, 7], type=pa.int64()),
                   "value": pa.array([1.0, 2.0, 3.0])})
    t2 = pa.table({"user_id": pa.array([5, None, 7], type=pa.int64()),
                   "value": pa.array([10.0, 99.0, 30.0])})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    conf = GroupByConf(name="pk", sources=(), key_columns=("user_id",),
                       aggregations=(agg("value", "sum"),))
    out = aggregate_snapshot(ds, conf, num_partitions=200).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert len(out) == 2, out
    assert out.loc[0, "user_id"] == 5 and out.loc[0, "value_sum"] == 13.0
    assert out.loc[1, "user_id"] == 7 and out.loc[1, "value_sum"] == 33.0


def test_distinct_rows_null_block_partition_stability(ray_session):
    """Regression: distinct_rows hashed the pandas frame, so a block with
    a null int value float-promoted the column and the same value hashed
    into a different partition than null-free blocks — duplicates
    survived the global dedup."""
    from chronon_ray.pipelines.joins import distinct_rows

    t1 = pa.table({"k": pa.array([5, 7, 5], type=pa.int64())})
    t2 = pa.table({"k": pa.array([5, None, 7], type=pa.int64())})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    out = distinct_rows(ds, ["k"], num_partitions=64).to_pandas()
    assert len(out) == 3, out  # 5, 7, and the null row — no dup survives
    nonnull = sorted(int(v) for v in out["k"] if pd.notna(v))
    assert nonnull == [5, 7] and out["k"].isna().sum() == 1, out


def test_exact_dedup_null_content_is_distinct(ray_session):
    """Content-equality hashes must be block-stable AND null-distinct: a
    sentinel fill would make (x, NULL) collide with (x, sentinel) and
    silently drop a distinct document; pandas promotion would split one
    value across partitions. Rows differing only in int-null vs value
    must BOTH survive."""
    from chronon_ray.functions.dedup import exact_dedup

    t1 = pa.table({"text": ["x", "x", "y"],
                   "cat": pa.array([1, None, 1], type=pa.int64()),
                   "doc_id": pa.array([1, 2, 3], type=pa.int64())})
    t2 = pa.table({"text": ["x", "x"],
                   "cat": pa.array([1, None], type=pa.int64()),
                   "doc_id": pa.array([4, 5], type=pa.int64())})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    out = exact_dedup(ds, on=("text", "cat"), id_col="doc_id",
                      num_partitions=64).to_pandas()
    got = sorted(out["doc_id"].tolist())
    # ('x',1)→min id 1; ('x',NULL)→min id 2; ('y',1)→3
    assert got == [1, 2, 3], out.to_string()


def test_distinct_rows_bool_null_block_stability(ray_session):
    """Bool-with-null blocks promote to object dtype in pandas and
    hash(True as object) != hash(True as bool) — True must not split
    across partitions."""
    from chronon_ray.pipelines.joins import distinct_rows

    t1 = pa.table({"flag": pa.array([True, False, True])})
    t2 = pa.table({"flag": pa.array([True, None, False])})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    out = distinct_rows(ds, ["flag"], num_partitions=64).to_pandas()
    assert len(out) == 3, out  # True, False, null — no dup survives


@pytest.mark.parametrize("seed", [3, 13, 23, 33, 43])
def test_snapshot_randomized_vs_bruteforce(ray_session, seed):
    rng = np.random.default_rng(seed)
    df = _gen(rng, n=int(rng.integers(400, 900)))
    picks = [str(x) for x in rng.choice(_OPS, size=5, replace=False)]
    parts = []  # (out_name, op, col, bucketed)
    aggs = []
    for op in picks:
        aggs.append(agg("value", op))
        parts.append((f"value_{op}", op, "value", None))
    aggs.append(agg("item", "unique_count"))
    parts.append(("item_unique_count", "unique_count", "item", None))
    aggs.append(agg("item", "histogram"))
    parts.append(("item_histogram", "histogram", "item", None))
    aggs.append(agg("tokens", "unique_count"))
    parts.append(("tokens_unique_count", "unique_count", "tokens", None))
    aggs.append(agg("metrics", "sum"))
    parts.append(("metrics_sum", "sum", "metrics", None))
    aggs.append(agg("value", "sum", buckets=("store",)))
    parts.append(("value_sum_by_store", "sum", "value", "store"))
    conf = GroupByConf(name=f"sn{seed}", sources=(),
                       key_columns=("user_id",), aggregations=tuple(aggs))
    out = aggregate_snapshot(_to_ds(df), conf,
                             num_partitions=4).to_pandas()
    # reference contract (GroupBy.scala:510-512): rows where ALL conf keys
    # are null are dropped — with a single key, null-key rows vanish
    df = df[df["user_id"].notna()].reset_index(drop=True)
    groups = dict(tuple(df.groupby("user_id", sort=False)))
    assert len(out) == len(groups), (seed, len(out), len(groups))
    for _, row in out.iterrows():
        k_ = row["user_id"]
        sub = groups[k_]
        for (name, op, col, bucket) in parts:
            got = _norm(row[name])
            if col == "metrics":
                exp = {}
                for m in sub["metrics"]:
                    if m is not None:
                        for mk, mv in m.items():
                            exp[mk] = exp.get(mk, 0.0) + mv
                exp = _norm(exp) if exp else None
            elif bucket is not None:
                exp = {}
                for b, bs in sub.groupby(bucket, sort=False):
                    v = _oracle(bs, op, col)
                    if v is not None:
                        exp[b] = v
                exp = _norm(exp) if exp else None
            else:
                exp = _norm(_oracle(sub, op, col))
            if isinstance(exp, float) and isinstance(got, float):
                loose = op in ("variance", "skew", "kurtosis")
                assert math.isclose(got, exp,
                                    rel_tol=1e-4 if loose else 1e-6,
                                    abs_tol=1e-6 if loose else 1e-8), \
                    (seed, name, k_, got, exp)
            else:
                assert got == exp, (seed, name, k_, got, exp)
