"""Randomized differential of temporal_join's event routing against the
brute-force per-query oracle of test_temporal_randomized: a key-
representation mismatch in the null-key filter or the partition hash
silently drops or misroutes matching events (the r4 null-promotion
campaign found exactly that class at other sites). Random op bundles,
null keys on both sides, dtype-divergent key columns."""

import math

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from chronon_ray.api import GroupByConf, Operation, UNBOUNDED
from chronon_ray.pipelines.temporal import temporal_join
from tests.test_temporal_randomized import _members, _norm, _oracle
from tests.test_upload_randomized import _OP_POOL, _WINDOW_POOL, _events

DAY = 86_400_000
BASE = pd.Timestamp("2024-03-01").value // 10**6

# the oracle recomputes every op but the sketch
_POOL = [mk for mk in _OP_POOL
         if mk([UNBOUNDED]).operation != Operation.APPROX_UNIQUE_COUNT]


def _check_vs_oracle(out, ev, conf, ctx):
    """Every output row against the oracle over its key's events; a
    null-key query gets null features, and null-key events match
    nothing. Returns the number of non-null features seen."""
    by_key = dict(tuple(ev.groupby("user_id", sort=False)))
    empty = ev.iloc[0:0]
    seen = 0
    for _, row in out.iterrows():
        k_, t_ = row["user_id"], int(row["ts"])
        for p in conf.parts():
            got = _norm(row[p.output_name])
            if pd.isna(k_):
                assert got is None, (ctx, p.output_name, t_, got)
                continue
            sub = _members(by_key.get(k_, empty), t_, p.window)
            exp = _norm(_oracle(sub, p.operation.value, p.input_column,
                                bucket=p.bucket))
            seen += exp is not None
            if isinstance(exp, float) and isinstance(got, float):
                loose = p.operation in (Operation.VARIANCE, Operation.SKEW,
                                        Operation.KURTOSIS)
                assert math.isclose(got, exp,
                                    rel_tol=1e-4 if loose else 1e-6,
                                    abs_tol=1e-6 if loose else 1e-8), \
                    (ctx, p.output_name, k_, t_, got, exp)
            else:
                assert got == exp, (ctx, p.output_name, k_, t_, got, exp)
    return seen


@pytest.mark.parametrize("seed", [501, 502, 503, 504])
def test_filter_tiers_bit_identical_randomized(ray_session, seed):
    rng = np.random.default_rng(seed)
    ev = _events(rng, n=int(rng.integers(1200, 2500)),
                 keys=int(rng.integers(8, 25)), days=20)
    picks = rng.choice(len(_POOL), size=4, replace=False)
    aggs = []
    for i in picks:
        w = _WINDOW_POOL[int(rng.integers(0, len(_WINDOW_POOL)))]()
        aggs.append(_POOL[i](w))
    conf = GroupByConf(name=f"tier{seed}", sources=(),
                       key_columns=("user_id",), aggregations=tuple(aggs))
    nq = 200
    # queries over a SUBSET of keys and some keys that never appear in
    # events; a few null-keyed query rows
    kmax = int(ev["user_id"].max())
    qk = rng.integers(0, max(2, kmax // 2), size=nq).astype(np.int64)
    q = pd.DataFrame({
        "user_id": pd.array(qk, dtype="Int64"),
        "ts": (BASE + rng.integers(DAY, 20 * DAY, size=nq)).astype(np.int64),
    })
    q.loc[q.index[:3], "user_id"] = pd.NA
    # null event keys too: removeNulls drops them before the exchange
    ev = ev.copy()
    ev["user_id"] = ev["user_id"].astype("Int64")
    ev.loc[ev.index[::97], "user_id"] = pd.NA

    out = temporal_join(rd.from_pandas(q), _to_ds_nullable(ev), conf,
                        num_partitions=4).to_pandas()
    assert len(out) == nq
    assert _check_vs_oracle(out, ev, conf, seed) > 0, "fixture matched nothing"


def _to_ds_nullable(df):
    import pyarrow as pa

    mtype = pa.map_(pa.string(), pa.float64())
    t = pa.table({
        "user_id": pa.array(df["user_id"], type=pa.int64(),
                            from_pandas=True),
        "ts": pa.array(df["ts"].to_numpy()),
        "value": pa.array(df["value"].to_numpy(), from_pandas=True),
        "item": pa.array(df["item"].to_numpy()),
        "store": pa.array(df["store"].tolist()),
        "tokens": pa.array(df["tokens"].tolist(),
                           type=pa.list_(pa.int64())),
        "metrics": pa.array(df["metrics"].tolist(), type=mtype),
    })
    return rd.from_arrow(t)


@pytest.mark.parametrize("seed", [601, 602])
def test_filter_tiers_dtype_divergent_keys(ray_session, seed):
    """int32 left keys vs int64 event keys: the partition hash must
    canonicalize, or the join silently drops every match."""
    import pyarrow as pa

    from chronon_ray.api import agg as _agg
    from chronon_ray.api import window as _window

    rng = np.random.default_rng(seed)
    n = 1500
    ev = pd.DataFrame({
        "user_id": rng.integers(0, 12, size=n).astype(np.int64),
        "ts": (BASE + rng.integers(0, 10 * DAY, size=n)).astype(np.int64),
        "value": np.round(rng.normal(5, 2, size=n), 3),
    })
    conf = GroupByConf(name=f"dt{seed}", sources=(),
                       key_columns=("user_id",),
                       aggregations=(_agg("value", "sum",
                                          [_window(7, "d")]),))
    nq = 150
    q = pa.table({
        "user_id": pa.array(rng.integers(0, 12, size=nq),
                            type=pa.int32()),  # narrower than events
        "ts": pa.array((BASE + rng.integers(DAY, 10 * DAY,
                                            size=nq)).astype(np.int64)),
    })
    out = temporal_join(rd.from_arrow(q), rd.from_pandas(ev), conf,
                        num_partitions=4).to_pandas()
    assert len(out) == nq
    assert out["value_sum_7d"].notna().sum() > 0, "fixture matched nothing"
    assert _check_vs_oracle(out, ev, conf, f"{seed}:dtype") > 0
