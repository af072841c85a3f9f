"""Randomized differential of temporal_join's event routing: the plain
single-exchange plan and the hot-key salted plan must be BIT-identical on
any input — a key-representation mismatch in the hot-key probe or the
partition hash silently drops or misroutes matching events (the r4
null-promotion campaign found exactly that class at other sites). Random
op bundles, null keys on both sides, dtype-divergent key columns."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from chronon_ray.api import GroupByConf
from chronon_ray.pipelines.temporal import temporal_join
from tests.test_upload_randomized import (_OP_POOL, _WINDOW_POOL, _events,
                                          _norm, _to_ds)

DAY = 86_400_000
BASE = pd.Timestamp("2024-03-01").value // 10**6


def _cmp(a, b, ctx):
    sort = ["user_id", "ts"]
    a = a.sort_values(sort).reset_index(drop=True)
    b = b.sort_values(sort).reset_index(drop=True)
    assert len(a) == len(b), (ctx, len(a), len(b))
    assert sorted(a.columns) == sorted(b.columns), ctx
    for c in b.columns:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av, bv = av.astype(float), bv.astype(float)
            na, nb = av.isna(), bv.isna()
            assert (na == nb).all(), (ctx, c)
            # skew/kurtosis: higher-moment merges amplify order rounding
            # between both-correct paths (~5e-9 rel on fresh seeds)
            rt = 1e-7 if ("skew" in c or "kurtosis" in c) else 1e-9
            np.testing.assert_allclose(av[~na], bv[~nb], rtol=rt,
                                       atol=1e-9, err_msg=f"{ctx}:{c}")
        elif av.dtype == object or bv.dtype == object:
            for i, (x, y) in enumerate(zip(av, bv)):
                assert _norm(x) == _norm(y), (ctx, c, i, x, y)
        else:
            assert (av.fillna(-1) == bv.fillna(-1)).all(), (ctx, c)


@pytest.mark.parametrize("seed", [501, 502, 503, 504])
def test_filter_tiers_bit_identical_randomized(ray_session, seed):
    rng = np.random.default_rng(seed)
    ev = _events(rng, n=int(rng.integers(1200, 2500)),
                 keys=int(rng.integers(8, 25)), days=20)
    picks = rng.choice(len(_OP_POOL), size=4, replace=False)
    aggs = []
    for i in picks:
        w = _WINDOW_POOL[int(rng.integers(0, len(_WINDOW_POOL)))]()
        aggs.append(_OP_POOL[i](w))
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
    # null event keys too: removeNulls must behave identically in both plans
    ev = ev.copy()
    ev["user_id"] = ev["user_id"].astype("Int64")
    ev.loc[ev.index[::97], "user_id"] = pd.NA

    evds, qds = _to_ds_nullable(ev), rd.from_pandas(q)
    base = temporal_join(qds, evds, conf, num_partitions=4).to_pandas()
    hot = [int(ev["user_id"].mode().iloc[0])]
    salted = temporal_join(qds, evds, conf, num_partitions=4,
                           hot_keys=hot, salt_shards=4).to_pandas()
    _cmp(base, salted, f"{seed}:salt")


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
    """int32 left keys vs int64 event keys: the hot-key probe and the
    partition hash must canonicalize, or the salted plan silently drops
    every match."""
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
    evds, qds = rd.from_pandas(ev), rd.from_arrow(q)
    base = temporal_join(qds, evds, conf, num_partitions=4).to_pandas()
    hot = [int(ev["user_id"].mode().iloc[0])]
    salted = temporal_join(qds, evds, conf, num_partitions=4,
                           hot_keys=hot, salt_shards=4).to_pandas()
    assert base["value_sum_7d"].notna().sum() > 0, "fixture matched nothing"
    _cmp(base, salted, f"{seed}:dtype-salt")
