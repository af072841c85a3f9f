"""Randomized differential for the flagship temporal (as-of) join.

Seeded random event/query sets are checked against an INDEPENDENT brute-
force per-query oracle that selects window members directly from the raw
events using only the engine's tiny pure helpers (round_ts /
tail_hop_millis — unit-tested separately) and recomputes every op from
first principles. Window membership per the reference semantics
(Resolution.scala / NaiveAggregator.scala):

    round(q - W, hop) <= event.ts < q     (strict head, hopped tail)
    unbounded:              event.ts < q

This is independent of the hop-tiling / two-stack / exact-head cumulate
machinery under test, and of the exchange layout (queries at hop
boundaries, exactly at event ts, and with null inputs included).
"""

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chronon_ray.api import GroupByConf, UNBOUNDED, agg, window
from chronon_ray.pipelines.temporal import temporal_join
from chronon_ray.windowing.resolution import round_ts, tail_hop_millis

DAY = 86_400_000
BASE = pd.Timestamp("2024-03-01").value // 10**6


def _events(rng, n, keys, days):
    ts = BASE + rng.integers(0, days * DAY, size=n).astype(np.int64)
    key = rng.integers(0, keys, size=n).astype(np.int64)
    df = pd.DataFrame({"user_id": key, "ts": ts})
    df = df.drop_duplicates(["user_id", "ts"]).reset_index(drop=True)
    n = len(df)
    val = np.round(rng.normal(10, 3, size=n), 3)
    val[rng.random(n) < 0.08] = np.nan
    df["value"] = val
    df["item"] = rng.integers(0, 25, size=n).astype(np.int64)
    df["store"] = np.array(["s1", "s2", "s3"])[rng.integers(0, 3, size=n)]
    df["tokens"] = [rng.integers(0, 20,
                                 size=rng.integers(0, 5)).tolist()
                    for _ in range(n)]
    return df.sort_values(["user_id", "ts"]).reset_index(drop=True)


def _to_ds(df):
    t = pa.table({
        "user_id": pa.array(df["user_id"].to_numpy()),
        "ts": pa.array(df["ts"].to_numpy()),
        "value": pa.array(df["value"].to_numpy(), from_pandas=True),
        "item": pa.array(df["item"].to_numpy()),
        "store": pa.array(df["store"].tolist()),
        "tokens": pa.array(df["tokens"].tolist(),
                           type=pa.list_(pa.int64())),
    })
    return rd.from_arrow(t)


def _members(ev_k, qts, win):
    """Raw-event window membership for one (key, query)."""
    ts = ev_k["ts"].to_numpy()
    if win.unbounded:
        m = ts < qts
    else:
        hop = tail_hop_millis(win)
        m = (ts >= round_ts(qts - win.millis, hop)) & (ts < qts)
    return ev_k[m]


def _moments(x):
    n = len(x)
    if n == 0:
        return {"variance": None, "skew": None, "kurtosis": None}
    m = x.mean()
    m2 = float(((x - m) ** 2).sum())
    m3 = float(((x - m) ** 3).sum())
    m4 = float(((x - m) ** 4).sum())
    return {
        "variance": m2 / n,
        "skew": (None if n < 3 or m2 == 0
                 else math.sqrt(n) * m3 / m2 ** 1.5),
        "kurtosis": (None if n < 4 or m2 == 0
                     else n * m4 / (m2 * m2) - 3.0),
    }


def _oracle(sub, op, col, k=3, bucket=None):
    """Recompute one op over the member rows (nulls skipped, reference
    ColumnAggregator null guard). A bucketed part, and a part over the
    ``metrics`` map column, give one inner aggregate per bucket label or
    map key that has a non-null value."""
    if bucket is not None:
        out = {str(b): _oracle(g, op, col, k)
               for b, g in sub[sub[bucket].notna()].groupby(bucket)}
        out = {b: v for b, v in out.items() if v is not None}
        return out or None
    if col == "metrics":
        entries = [(t, str(mk), mv) for t, m in zip(sub["ts"], sub[col])
                   if m is not None for mk, mv in m.items()]
        per_key = pd.DataFrame(entries, columns=["ts", "mk", "v"])
        out = {mk: _oracle(g, op, "v", k)
               for mk, g in per_key.groupby("mk")}
        out = {mk: v for mk, v in out.items() if v is not None}
        return out or None
    if col == "tokens":
        vals = [t for lst in sub["tokens"] for t in lst]
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
    if op == "first_k":  # ascending ts
        order = np.argsort(tss, kind="stable")[:k]
        return [vals[i] for i in order] if vals else None
    if op == "last_k":  # descending ts (most recent first)
        order = np.argsort(tss, kind="stable")[::-1][:k]
        return [vals[i] for i in order] if vals else None
    if op == "top_k":  # descending value
        return sorted(vals, reverse=True)[:k] if vals else None
    if op == "bottom_k":
        return sorted(vals)[:k] if vals else None
    if op == "unique_count":
        return len(set(vals)) if vals else None
    if op == "histogram":
        return dict(Counter(str(v) for v in vals)) if vals else None
    raise AssertionError(op)


_OPS = ["sum", "count", "average", "variance", "skew", "kurtosis", "min",
        "max", "first", "last", "first_k", "last_k", "top_k", "bottom_k"]


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


@pytest.mark.parametrize("seed", [8, 18, 28])
def test_temporal_join_exact_windows_randomized(ray_session, seed):
    """exact_windows=True drops the sawtooth hop rounding: membership is
    the per-event exact [q.ts - W, q.ts). Same brute-force oracle, exact
    tail."""
    rng = np.random.default_rng(seed)
    ev = _events(rng, n=int(rng.integers(1000, 2000)),
                 keys=int(rng.integers(5, 15)), days=20)
    windows = {"7d": window(7, "d"), "1d": window(1, "d"),
               "12h": window(12, "h")}
    picks = [str(x) for x in rng.choice(_OPS, size=5, replace=False)]
    parts, aggs = [], []
    for op in picks:
        wn = str(rng.choice(list(windows)))
        win = windows[wn]
        kw = {"k": 3} if op.endswith("_k") else {}
        aggs.append(agg("value", op, [win], **kw))
        opname = f"{op[:-2]}3" if op.endswith("_k") else op
        parts.append((f"value_{opname}_{wn}", op, "value", win))
    wn = str(rng.choice(list(windows)))
    aggs.append(agg("item", "histogram", [windows[wn]]))
    parts.append((f"item_histogram_{wn}", "histogram", "item",
                  windows[wn]))
    conf = GroupByConf(name=f"tjx{seed}", sources=(),
                       key_columns=("user_id",), aggregations=tuple(aggs))
    nq = 150
    q = pd.DataFrame({
        "user_id": rng.choice(ev["user_id"].unique(),
                              size=nq).astype(np.int64),
        "ts": (BASE + rng.integers(DAY, 20 * DAY,
                                   size=nq)).astype(np.int64)})
    out = temporal_join(rd.from_pandas(q), _to_ds(ev), conf,
                        num_partitions=4, exact_windows=True).to_pandas()
    assert len(out) == nq
    by_key = dict(tuple(ev.groupby("user_id", sort=False)))
    empty = ev.iloc[0:0]
    for _, row in out.iterrows():
        k_, t_ = row["user_id"], int(row["ts"])
        ev_k = by_key.get(k_, empty)
        for (name, op, col, win) in parts:
            ts = ev_k["ts"].to_numpy()
            sub = ev_k[(ts >= t_ - win.millis) & (ts < t_)]  # exact tail
            exp = _norm(_oracle(sub, op, col))
            got = _norm(row[name])
            if isinstance(exp, float) and isinstance(got, float):
                loose = op in ("variance", "skew", "kurtosis")
                assert math.isclose(got, exp,
                                    rel_tol=1e-4 if loose else 1e-6,
                                    abs_tol=1e-6 if loose else 1e-8), \
                    (seed, name, k_, t_, got, exp)
            else:
                assert got == exp, (seed, name, k_, t_, got, exp)


@pytest.mark.parametrize("seed", [7, 17, 27, 37, 47, 57])
def test_temporal_join_randomized_vs_bruteforce(ray_session, seed):
    rng = np.random.default_rng(seed)
    ev = _events(rng, n=int(rng.integers(1200, 2500)),
                 keys=int(rng.integers(6, 20)), days=30)
    windows = {"uf": UNBOUNDED, "7d": window(7, "d"), "1d": window(1, "d"),
               "12h": window(12, "h"), "30d": window(30, "d")}
    picks = [str(x) for x in
             rng.choice(_OPS, size=6, replace=False)]
    parts = []  # (out_name, op, col, window)
    aggs = []
    for op in picks:
        wn = str(rng.choice(list(windows)))
        win = windows[wn]
        kw = {"k": 3} if op.endswith("_k") else {}
        aggs.append(agg("value", op, [win], **kw))
        suffix = "" if win.unbounded else f"_{wn}"
        # k-ops name as <root><k>: last_k/k=3 → last3 (reference naming)
        opname = f"{op[:-2]}3" if op.endswith("_k") else op
        parts.append((f"value_{opname}{suffix}", op, "value", win))
    # always include the non-scalar families
    wn = str(rng.choice(["7d", "1d", "12h"]))
    aggs.append(agg("item", "unique_count", [windows[wn]]))
    parts.append((f"item_unique_count_{wn}", "unique_count", "item",
                  windows[wn]))
    aggs.append(agg("item", "histogram", [windows[wn]]))
    parts.append((f"item_histogram_{wn}", "histogram", "item",
                  windows[wn]))
    aggs.append(agg("tokens", "unique_count", [windows[wn]]))
    parts.append((f"tokens_unique_count_{wn}", "unique_count", "tokens",
                  windows[wn]))
    conf = GroupByConf(name=f"tj{seed}", sources=(),
                       key_columns=("user_id",), aggregations=tuple(aggs))
    nq = 200
    keys = ev["user_id"].unique()
    qk = rng.choice(keys, size=nq)
    qts = BASE + rng.integers(DAY, 30 * DAY, size=nq).astype(np.int64)
    # adversarial cut points: exactly at an event ts (strict <), at a hop
    # boundary, and at a day boundary
    qts[0] = int(ev.loc[ev["user_id"] == qk[0], "ts"].iloc[-1])
    qts[1] = round_ts(qts[1], 3_600_000)
    qts[2] = round_ts(qts[2], DAY)
    q = pd.DataFrame({"user_id": qk.astype(np.int64),
                      "ts": qts.astype(np.int64)})
    out = temporal_join(rd.from_pandas(q), _to_ds(ev), conf,
                        num_partitions=4).to_pandas()
    assert len(out) == nq
    by_key = dict(tuple(ev.groupby("user_id", sort=False)))
    empty = ev.iloc[0:0]
    for _, row in out.iterrows():
        k_, t_ = row["user_id"], int(row["ts"])
        for (name, op, col, win) in parts:
            sub = _members(by_key.get(k_, empty), t_, win)
            exp = _oracle(sub, op, col)
            got = _norm(row[name])
            expn = _norm(exp)
            if isinstance(expn, float) and isinstance(got, float):
                # central-moment hop-IR merges (skew/kurt especially) carry
                # more float cancellation than single-pass oracle math
                loose = op in ("variance", "skew", "kurtosis")
                assert math.isclose(got, expn,
                                    rel_tol=1e-4 if loose else 1e-6,
                                    abs_tol=1e-6 if loose else 1e-8), \
                    (seed, name, k_, t_, got, expn)
            else:
                assert got == expn, (seed, name, k_, t_, got, expn)


# ---------------------------------------------------------------------------
# distinct family: exact UNIQUE_COUNT as one sweep over the sorted partition

_DISTINCT_COLS = ("i", "s", "f", "li", "ls", "lf")


def _distinct_events(rng, n, keys, days):
    """Events over two key columns with every UNIQUE_COUNT input kind:
    scalar int / string / float (NaN, ±0.0), list<int> / list<string> /
    list<float> (empty, all-null and null lists, null elements, NaN
    elements, which are skipped); a tie-break column
    and repeated (key, ts) pairs; a few null-key events (dropped)."""
    k1 = rng.integers(0, keys, size=n).astype(np.int64)
    k2 = np.array(["a", "b"])[rng.integers(0, 2, size=n)]
    ts = BASE + rng.integers(0, days * DAY, size=n).astype(np.int64)
    ts[1::7] = ts[::7][:len(ts[1::7])]  # equal-ts events, tie-broken
    k1[1::7] = k1[::7][:len(k1[1::7])]
    k2[1::7] = k2[::7][:len(k2[1::7])]

    def maybe(v, p=0.1):
        return None if rng.random() < p else v

    def lst(pool):
        r = rng.random()
        if r < 0.06:
            return None
        if r < 0.12:
            return []
        if r < 0.16:
            return [None, None]
        return [maybe(pool(), 0.15) for _ in range(rng.integers(1, 6))]

    fpool = [np.nan, 0.0, -0.0, 1.5, -2.0, 3.25]
    t = pa.table({
        "k1": pa.array([maybe(int(x), 0.02) for x in k1], type=pa.int64()),
        "k2": pa.array(k2.tolist()),
        "ts": pa.array(ts),
        "tb": pa.array(rng.permutation(n).astype(np.int64)),
        "i": pa.array([maybe(int(x)) for x in rng.integers(0, 12, size=n)],
                      type=pa.int64()),
        "s": pa.array([maybe(f"s{x}") for x in rng.integers(0, 9, size=n)]),
        "f": pa.array([maybe(fpool[x]) for x in rng.integers(0, 6, size=n)],
                      type=pa.float64()),
        "li": pa.array([lst(lambda: int(rng.integers(0, 15)))
                        for _ in range(n)], type=pa.list_(pa.int64())),
        "ls": pa.array([lst(lambda: f"t{rng.integers(0, 15)}")
                        for _ in range(n)], type=pa.list_(pa.string())),
        "lf": pa.array([lst(lambda: fpool[rng.integers(0, 6)])
                        for _ in range(n)], type=pa.list_(pa.float64())),
    })
    return t


def _distinct_queries(rng, ev: pa.Table, nq, days, keys):
    ek1 = ev["k1"].to_pylist()
    ek2 = ev["k2"].to_pylist()
    ets = ev["ts"].to_pylist()
    k1 = [ek1[j] if ek1[j] is not None else 0
          for j in rng.integers(0, len(ev), size=nq)]
    k2 = [ek2[j] for j in rng.integers(0, len(ev), size=nq)]
    ts = (BASE + rng.integers(DAY, days * DAY, size=nq)).tolist()
    j = int(rng.integers(0, len(ev)))
    k1[0], k2[0], ts[0] = ek1[j] or 0, ek2[j], ets[j]  # query ts == event ts
    k1[1], k2[1], ts[1] = k1[0], k2[0], ts[0]  # duplicate query
    k1[2] = keys + 5  # a key no event has
    k1[3] = None  # null-key query: null features
    return pa.table({"k1": pa.array(k1, type=pa.int64()),
                     "k2": pa.array(k2), "ts": pa.array(ts)})


def _distinct_oracle(ev: pa.Table, q: pa.Table, col, member):
    """Brute-force distinct count per query: nulls (and NaN list elements)
    skipped, scalar NaN one value, −0.0 equal to 0.0; empty → None."""
    rows = ev.to_pylist()
    out = []
    for qr in q.to_pylist():
        seen = set()
        for r in rows:
            if (r["k1"] is None or r["k1"] != qr["k1"]
                    or r["k2"] != qr["k2"] or not member(r["ts"], qr["ts"])):
                continue
            v = r[col]
            vals = v if isinstance(v, list) else [v]
            for x in vals:
                if x is None:
                    continue
                if isinstance(x, float):
                    if x != x:
                        if isinstance(v, list):
                            continue
                        x = "NaN"
                    else:
                        x = x + 0.0
                seen.add(x)
        out.append(len(seen) or None)
    return out


def _distinct_member(win, exact):
    if win.unbounded:
        return lambda e, q: e < q
    if exact:
        return lambda e, q: q - win.millis <= e < q
    hop = tail_hop_millis(win)
    return lambda e, q: round_ts(q - win.millis, hop) <= e < q


@pytest.mark.parametrize("seed,exact,tie", [(71, False, True),
                                            (72, True, False),
                                            (73, False, False),
                                            (74, True, True)])
def test_distinct_sweep_randomized_vs_bruteforce(ray_session, seed, exact,
                                                 tie):
    """The distinct family against the brute-force oracle on every input
    kind, sawtooth and exact windows (unbounded included), two key columns,
    with and without a tie_break column."""
    rng = np.random.default_rng(seed)
    ev = _distinct_events(rng, n=int(rng.integers(500, 900)), keys=6,
                          days=20)
    q = _distinct_queries(rng, ev, nq=120, days=20, keys=6)
    windows = {"7d": window(7, "d"), "1d": window(1, "d"),
               "12h": window(12, "h"), "uf": UNBOUNDED}
    aggs, parts = [], []
    for c in _DISTINCT_COLS:
        wn = str(rng.choice(list(windows)))
        aggs.append(agg(c, "unique_count", [windows[wn], UNBOUNDED]))
        suffix = "" if wn == "uf" else f"_{wn}"
        parts.append((f"{c}_unique_count{suffix}", c, windows[wn]))
        if wn != "uf":
            parts.append((f"{c}_unique_count", c, UNBOUNDED))
    conf = GroupByConf(name=f"dc{seed}", sources=(), key_columns=("k1", "k2"),
                       aggregations=tuple(aggs),
                       tie_break_column="tb" if tie else None)
    ds = temporal_join(rd.from_arrow(q), rd.from_arrow(ev), conf,
                       num_partitions=3, exact_windows=exact)
    out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert len(out) == len(q)
    # equal sort keys are duplicate queries, so row order is then moot
    by = [("k1", "ascending"), ("k2", "ascending"), ("ts", "ascending")]
    out = out.sort_by(by, null_placement="at_end")
    qs = q.sort_by(by, null_placement="at_end")
    seen_values = 0
    for name, c, win in parts:
        exp = _distinct_oracle(ev, qs, c, _distinct_member(win, exact))
        got = [None if v is None or v != v else int(v)
               for v in out[name].to_pylist()]
        assert got == exp, (seed, name, [(j, g, e) for j, (g, e)
                                         in enumerate(zip(got, exp))
                                         if g != e][:5])
        seen_values += sum(1 for v in exp if v)
    assert seen_values > 0, "fixture matched nothing"


def test_distinct_sweep_snapshot_compute_join(ray_session, tmp_path):
    """SNAPSHOT (daily) accuracy through compute_join and through
    temporal_join with the same conf: features as of the query's day
    start, day-rounded tails."""
    import pyarrow.parquet as pq

    from chronon_ray.api import Accuracy, EventSource, JoinConf, JoinPart, TQuery
    from chronon_ray.pipelines.joins import compute_join

    rng = np.random.default_rng(75)
    ev = _distinct_events(rng, n=600, keys=5, days=20)
    q = _distinct_queries(rng, ev, nq=100, days=20, keys=5)
    q = q.append_column("qid", pa.array(np.arange(len(q), dtype=np.int64)))
    pq.write_table(ev, tmp_path / "ev.parquet")
    pq.write_table(q, tmp_path / "q.parquet")
    win = window(3, "d")
    gb = GroupByConf(
        name="snapdc", sources=(EventSource(table=str(tmp_path / "ev.parquet"),
                                            query=TQuery()),),
        key_columns=("k1", "k2"),
        aggregations=tuple(agg(c, "unique_count", [win, UNBOUNDED])
                           for c in _DISTINCT_COLS),
        accuracy=Accuracy.SNAPSHOT)
    jc = JoinConf(name="jdc", left=EventSource(
        table=str(tmp_path / "q.parquet"), query=TQuery()),
        parts=(JoinPart(group_by=gb),))
    outs = {"snapdc_": compute_join(jc, num_partitions=3),
            "": temporal_join(rd.from_arrow(q), rd.from_arrow(ev), gb,
                              num_partitions=3)}

    def day_member(w):
        if w.unbounded:
            return lambda e, t: e < t // DAY * DAY
        return lambda e, t: t // DAY * DAY - w.millis <= e < t // DAY * DAY

    for prefix, ds in outs.items():
        out = ds.to_pandas().sort_values("qid").reset_index(drop=True)
        assert out["qid"].tolist() == list(range(len(q)))
        seen_values = 0
        for c in _DISTINCT_COLS:
            for w, suffix in ((win, "_3d"), (UNBOUNDED, "")):
                exp = _distinct_oracle(ev, q, c, day_member(w))
                got = [None if pd.isna(v) else int(v)
                       for v in out[f"{prefix}{c}_unique_count{suffix}"]]
                assert got == exp, (prefix, c, suffix)
                seen_values += sum(1 for v in exp if v)
        assert seen_values > 0, "fixture matched nothing"


@pytest.mark.parametrize("exact", [False, True])
def test_distinct_float_nan_and_signed_zero_vs_duckdb(exact):
    """A finalized UNIQUE_COUNT over a float column counts NaN once and
    −0.0 as 0.0, as DuckDB count(distinct) does."""
    import duckdb

    from chronon_ray.pipelines.temporal import TemporalPartition

    nan = float("nan")
    ev = pa.table({
        "user_id": pa.array([1] * 6 + [2] * 3, type=pa.int64()),
        "ts": pa.array([0, DAY, 2 * DAY, 3 * DAY, 3 * DAY, 3 * DAY,
                        0, DAY, 2 * DAY], type=pa.int64()),
        "v": pa.array([nan, nan, 1.0, nan, None, None,
                       0.0, -0.0, nan], type=pa.float64()),
    })
    qts = 3 * DAY + 10
    q = pa.table({"user_id": pa.array([1, 2], type=pa.int64()),
                  "ts": pa.array([qts, qts], type=pa.int64())})
    conf = GroupByConf(name="nanp", sources=(), key_columns=("user_id",),
                       aggregations=(agg("v", "unique_count",
                                         [window(14, "d")]),))
    proc = TemporalPartition(["user_id"], conf.parts(), ev.schema,
                             ["user_id", "ts"], exact=exact)
    got = proc.join(q, ev)["v_unique_count_14d"].to_pylist()
    con = duckdb.connect()
    con.register("ev", ev)
    exp = [r[0] for r in con.sql(f"""
        select count(distinct v) from ev
        where ts < {qts} and ts >= {qts - 14 * DAY}
        group by user_id order by user_id""").fetchall()]
    assert exp == [2, 2]
    assert got == exp


@pytest.mark.parametrize("exact", [False, True])
def test_unique_count_nan_plain_bucketed_vs_duckdb(ray_session, exact):
    """UNIQUE_COUNT over a float column counts NaN once on every path: the
    plain distinct sweep and a bucketed part on the sawtooth engine, as
    DuckDB count(distinct) does."""
    import duckdb

    nan = float("nan")
    ev = pa.table({
        "user_id": pa.array([1] * 4, type=pa.int64()),
        "ts": pa.array([0, DAY, 2 * DAY, 3 * DAY], type=pa.int64()),
        "x": pa.array([nan, nan, 1.0, nan], type=pa.float64()),
        "b": pa.array(["u"] * 4),
    })
    qts = 3 * DAY + 10
    q = pa.table({"user_id": pa.array([1], type=pa.int64()),
                  "ts": pa.array([qts], type=pa.int64())})
    con = duckdb.connect()
    con.register("ev", ev)
    (exp,), = con.sql(f"""select count(distinct x) from ev
        where ts < {qts} and ts >= {qts - 14 * DAY}""").fetchall()
    assert exp == 2

    def run(buckets=None):
        conf = GroupByConf(name="nan", sources=(), key_columns=("user_id",),
                           aggregations=(agg("x", "unique_count",
                                             [window(14, "d")],
                                             buckets=buckets),))
        out = temporal_join(rd.from_arrow(q), rd.from_arrow(ev), conf,
                            num_partitions=2, exact_windows=exact)
        return out.to_pandas().iloc[0][conf.parts()[0].output_name]

    assert run() == exp
    assert [tuple(kv) for kv in run(buckets=["b"])] == [("u", exp)]


def test_distinct_routing_never_reaches_sawtooth(monkeypatch):
    """Finalized, un-bucketed UNIQUE_COUNT on scalar and list inputs runs
    the sweep and never the per-element sawtooth engine; map and bucketed
    UNIQUE_COUNT still do, so the fast path cannot fall back unnoticed."""
    from chronon_ray.pipelines import temporal as T

    def boom(*a, **k):
        raise RuntimeError("sawtooth reached")

    monkeypatch.setattr(T, "sawtooth_one_key", boom)
    monkeypatch.setattr(T.VectorPyOp, "py_update", boom)
    rng = np.random.default_rng(5)
    ev = _distinct_events(rng, n=200, keys=4, days=10)
    ev = ev.append_column("m", pa.array(
        [[("a", int(x))] for x in rng.integers(0, 3, size=len(ev))],
        type=pa.map_(pa.string(), pa.int64())))
    q = _distinct_queries(rng, ev, nq=30, days=10, keys=4)

    def run(aggs, **kw):
        conf = GroupByConf(name="rt", sources=(), key_columns=("k1", "k2"),
                           aggregations=tuple(aggs))
        proc = T.TemporalPartition(["k1", "k2"], conf.parts(), ev.schema,
                                   ["k1", "k2", "ts"], **kw)
        return proc.join(q, ev)

    for exact in (False, True):
        out = run([agg(c, "unique_count", [window(2, "d"), UNBOUNDED])
                   for c in _DISTINCT_COLS], exact=exact)
        assert out.column("li_unique_count_2d").null_count < len(q)
    for aggs, kw in (
            ([agg("m", "unique_count", [window(2, "d")])], {}),
            ([agg("i", "unique_count", [window(2, "d")], bucket="s")], {})):
        with pytest.raises(RuntimeError, match="sawtooth reached"):
            run(aggs, **kw)
