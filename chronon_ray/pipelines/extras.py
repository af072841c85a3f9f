"""Feature-engineering extras: lag/lead shifting and gap-based sessionization.

No direct reference analog (the reference delegates row-window functions to
Spark SQL; these are named first-class by the north rule). Same physical
pattern as the temporal engine: one hash shuffle on the entity key, then
whole-partition vectorized processing — sort by (key, order, tie_break) once,
compute shifts / session boundaries with numpy on the sorted arrays, masking
at key boundaries. No per-key python loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .copartition import Side, copartition, side
from .groupby import block_part_hash

DEFAULT_NUM_PARTITIONS = 200


class _AddPart:
    def __init__(self, keys: Sequence[str], num_partitions: int):
        self.keys = list(keys)
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        # canonical block hash: a null-bearing block must not split a key
        # across partitions (sessions/lag chains would compute per shard)
        part = block_part_hash(batch, self.keys, self.num_partitions)
        return batch.append_column("_part", pa.array(part))


def _sorted_partition(tbl: pa.Table, keys, order_col, tie_break):
    """Sort one partition by (key, order, tie) and return (tbl, key_codes)."""
    if len(keys) == 1:
        codes, _ = pd.factorize(tbl[keys[0]].to_pandas(), use_na_sentinel=False)
    else:
        codes, _ = pd.MultiIndex.from_frame(
            tbl.select(keys).to_pandas()).factorize(use_na_sentinel=False)
    codes = codes.astype(np.int64)
    order = tbl[order_col].to_numpy(zero_copy_only=False)
    if tie_break and tie_break in tbl.column_names:
        tb = tbl[tie_break].to_numpy(zero_copy_only=False)
        perm = np.lexsort((tb, order, codes))
    else:
        perm = np.lexsort((order, codes))
    return tbl.take(pa.array(perm)), codes[perm]


class _LagLead:
    def __init__(self, keys, order_col, value_cols, lags, leads, tie_break):
        self.__name__ = type(self).__name__
        self.keys, self.order_col, self.tie_break = list(keys), order_col, tie_break
        self.value_cols, self.lags, self.leads = list(value_cols), list(lags), list(leads)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["_part"])
        tbl, codes = _sorted_partition(tbl, self.keys, self.order_col, self.tie_break)
        n = len(tbl)
        same_prev = np.zeros(n, dtype=bool)
        if n:
            same_prev[1:] = codes[1:] == codes[:-1]
        out = tbl
        for col in self.value_cols:
            arr = out[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            for k in self.lags:
                idx = np.arange(n, dtype=np.int64) - k
                # valid only if the row k back belongs to the same key
                ok = _same_key_within(codes, k)
                taken = arr.take(pa.array(np.where(ok, idx, 0)))
                taken = pa.compute.if_else(pa.array(ok), taken, pa.nulls(n, arr.type))
                out = out.append_column(f"{col}_lag{k}", taken)
            for k in self.leads:
                idx = np.arange(n, dtype=np.int64) + k
                ok = _same_key_within(codes, -k)
                taken = arr.take(pa.array(np.where(ok, np.minimum(idx, n - 1), 0)))
                taken = pa.compute.if_else(pa.array(ok), taken, pa.nulls(n, arr.type))
                out = out.append_column(f"{col}_lead{k}", taken)
        return out


def _same_key_within(codes: np.ndarray, k: int) -> np.ndarray:
    """ok[i] = codes[i-k] exists and equals codes[i] (k may be negative)."""
    n = len(codes)
    ok = np.zeros(n, dtype=bool)
    if n == 0:
        return ok
    if k >= 0:
        if n > k:
            ok[k:] = codes[k:] == codes[:n - k]
    else:
        m = -k
        if n > m:
            ok[:n - m] = codes[:n - m] == codes[m:]
    return ok


def lag_lead(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    value_cols: Sequence[str],
    lags: Sequence[int] = (1,),
    leads: Sequence[int] = (1,),
    order_col: str = "ts",
    tie_break: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Adds {col}_lag{k} / {col}_lead{k} columns per key in order-col order."""
    tagged = ds.map_batches(_AddPart(keys, num_partitions), batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(
        _LagLead(keys, order_col, value_cols, lags, leads, tie_break),
        batch_format="pyarrow")


class _Sessionize:
    def __init__(self, keys, order_col, gap_ms, tie_break):
        self.__name__ = type(self).__name__
        self.keys, self.order_col = list(keys), order_col
        self.gap_ms, self.tie_break = gap_ms, tie_break

    def __call__(self, tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["_part"])
        tbl, codes = _sorted_partition(tbl, self.keys, self.order_col, self.tie_break)
        n = len(tbl)
        ts = tbl[self.order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        new_sess = np.ones(n, dtype=bool)
        if n > 1:
            same = codes[1:] == codes[:-1]
            gap_ok = (ts[1:] - ts[:-1]) <= self.gap_ms
            new_sess[1:] = ~(same & gap_ok)
        # session ordinal within key: cumsum of new_sess, minus value at key start
        sess_global = np.cumsum(new_sess)
        key_change = np.ones(n, dtype=bool)
        if n > 1:
            key_change[1:] = codes[1:] != codes[:-1]
        base = np.maximum.accumulate(np.where(key_change, sess_global, 0))
        session_id = sess_global - base  # 0-based ordinal within key
        out = tbl.append_column("session_id", pa.array(session_id.astype(np.int64)))
        return out


def sessionize(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    gap_ms: int,
    order_col: str = "ts",
    tie_break: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Adds a 0-based ``session_id`` per key: a new session starts when the
    gap to the previous event exceeds ``gap_ms``."""
    tagged = ds.map_batches(_AddPart(keys, num_partitions), batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(
        _Sessionize(keys, order_col, gap_ms, tie_break), batch_format="pyarrow")


class _SessionStats:
    def __init__(self, keys, order_col, gap_ms, tie_break):
        self.__name__ = type(self).__name__
        self.inner = _Sessionize(keys, order_col, gap_ms, tie_break)
        self.keys, self.order_col = list(keys), order_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        with_sess = self.inner(tbl.append_column("_part", pa.nulls(len(tbl), pa.int64()))) \
            if "_part" not in tbl.column_names else self.inner(tbl)
        pdf = with_sess.select([*self.keys, self.order_col, "session_id"]).to_pandas()
        # dropna=False: SQL GROUP BY convention — the null key forms its
        # own group (matches the snapshot GroupBy and the DuckDB oracles)
        gb = pdf.groupby([*self.keys, "session_id"], sort=True, dropna=False)
        out = gb[self.order_col].agg(["min", "max", "size"]).reset_index()
        out = out.rename(columns={"min": "session_start", "max": "session_end",
                                  "size": "n_events"})
        # emit key columns with the INPUT arrow types: an all-null-key
        # partition would otherwise infer pa.null() and fail the block
        # concat against string-keyed partitions
        arrays = {k: pa.array(out[k], type=tbl.schema.field(k).type,
                              from_pandas=True) for k in self.keys}
        arrays["session_id"] = pa.array(out["session_id"].to_numpy(np.int64))
        for c in ("session_start", "session_end"):
            arrays[c] = pa.array(out[c], type=tbl.schema.field(self.order_col).type,
                                 from_pandas=True)
        arrays["n_events"] = pa.array(out["n_events"].to_numpy(np.int64))
        return pa.table(arrays)


def session_stats(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    gap_ms: int,
    order_col: str = "ts",
    tie_break: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """One row per (key, session): start, end, event count."""
    tagged = ds.map_batches(_AddPart(keys, num_partitions), batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(
        _SessionStats(keys, order_col, gap_ms, tie_break), batch_format="pyarrow")


class _RunningAgg:
    def __init__(self, keys, order_col, value_col, tie_break):
        self.__name__ = type(self).__name__
        self.keys, self.order_col = list(keys), order_col
        self.value_col, self.tie_break = value_col, tie_break

    def __call__(self, tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["_part"])
        tbl, codes = _sorted_partition(tbl, self.keys, self.order_col,
                                       self.tie_break)
        n = len(tbl)
        if n == 0:
            return tbl
        v = tbl[self.value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        valid = ~np.isnan(v)
        key_change = np.ones(n, dtype=bool)
        if n > 1:
            key_change[1:] = codes[1:] != codes[:-1]
        # segmented cumulative sums/counts: global cumsum minus the value
        # at each segment start (vectorized running window, no python loop)
        vz = np.where(valid, v, 0.0)
        gsum = np.cumsum(vz)
        gcnt = np.cumsum(valid.astype(np.int64))
        starts = np.flatnonzero(key_change)
        bounds = np.append(starts, n)
        seg_lens = np.diff(bounds)
        # per-segment base = global cumulative just before the segment
        prev_sum = np.concatenate([[0.0], gsum[starts[1:] - 1]])
        prev_cnt = np.concatenate([[0], gcnt[starts[1:] - 1]])
        run_sum = gsum - np.repeat(prev_sum, seg_lens)
        run_cnt = gcnt - np.repeat(prev_cnt, seg_lens)
        # segmented cummin/cummax via per-segment resets
        vmin = np.where(valid, v, np.inf)
        vmax = np.where(valid, v, -np.inf)
        run_min = np.empty(n)
        run_max = np.empty(n)
        for i in range(len(starts)):
            a, b = bounds[i], bounds[i + 1]
            run_min[a:b] = np.minimum.accumulate(vmin[a:b])
            run_max[a:b] = np.maximum.accumulate(vmax[a:b])
        row_num = np.arange(n, dtype=np.int64) - np.repeat(starts, seg_lens)
        out = tbl
        out = out.append_column(
            "running_sum",
            pa.array(np.where(run_cnt > 0, run_sum, np.nan)))
        out = out.append_column("running_count",
                                pa.array(run_cnt.astype(np.int64)))
        out = out.append_column(
            "running_min", pa.array(np.where(np.isinf(run_min), np.nan,
                                             run_min)))
        out = out.append_column(
            "running_max", pa.array(np.where(np.isinf(run_max), np.nan,
                                             run_max)))
        out = out.append_column("row_number",
                                pa.array(row_num + 1))
        return out


def running_aggregate(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    value_col: str,
    order_col: str = "ts",
    tie_break: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Per-key CUMULATIVE window aggregates in order-col order — the SQL
    `sum(v) over (partition by k order by ts rows unbounded preceding)`
    family: running_sum / running_count / running_min / running_max /
    row_number. One hash exchange by key; inside each partition the scan
    is a segmented cumulative (vectorized, per-segment resets only for
    min/max). NULL values don't advance sum/count/min/max but still get a
    row_number — matching SQL window semantics."""
    tagged = ds.map_batches(_AddPart(keys, num_partitions),
                            batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(
        _RunningAgg(keys, order_col, value_col, tie_break),
        batch_format="pyarrow")


def _q_label(q: float) -> str:
    """q=0.5 -> 'q50'; sub-percent quantiles keep their precision:
    q=0.999 -> 'q99_9' (int(q*100) would collide 0.99 and 0.999)."""
    return "q" + f"{q * 100:g}".replace(".", "_")


class _GroupQuantiles:
    def __init__(self, keys, value_col, qs, key_types):
        self.__name__ = type(self).__name__
        self.keys, self.value_col, self.qs = list(keys), value_col, list(qs)
        self.key_types = key_types

    def _emit(self, out: "pd.DataFrame") -> pa.Table:
        # declared key types: an all-null-key partition would otherwise
        # infer pa.null() and fail block concat against typed partitions
        arrays = {k: pa.array(out[k], type=self.key_types[k],
                              from_pandas=True) for k in self.keys}
        arrays["n"] = pa.array(out["n"], type=pa.int64(), from_pandas=True)
        for q in self.qs:
            lbl = _q_label(q)
            arrays[lbl] = pa.array(out[lbl], type=pa.float64(),
                                   from_pandas=True)
        return pa.table(arrays)

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        pdf = pdf[pdf[self.value_col].notna()]
        if not len(pdf):
            cols = {k: pd.Series(dtype=object) for k in self.keys}
            cols["n"] = pd.Series(dtype=np.int64)
            for q in self.qs:
                cols[_q_label(q)] = pd.Series(dtype=np.float64)
            return self._emit(pd.DataFrame(cols))
        # dropna=False: the null key is a group (SQL GROUP BY convention)
        g = pdf.groupby(self.keys, sort=False, dropna=False)[self.value_col]
        out = g.agg(n="size").reset_index()
        for q in self.qs:
            # linear interpolation == numpy default == DuckDB quantile_cont
            out[_q_label(q)] = g.quantile(q, interpolation="linear") \
                .to_numpy(dtype=np.float64)
        out["n"] = out["n"].astype(np.int64)
        return self._emit(out)


def group_quantiles(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    value_col: str,
    qs: Sequence[float] = (0.5, 0.9, 0.99),
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """EXACT per-group quantiles (linear interpolation — DuckDB
    quantile_cont / numpy 'linear' parity), complementing the mergeable
    APPROX_PERCENTILE KLL sketch: one hash exchange co-locates each key's
    values, one vectorized pass per partition. Use the sketch when values
    per key exceed a task's memory; use this when exactness is required."""
    from ..util import dataset_schema

    sch = dataset_schema(ds)
    key_types = {k: sch.field(k).type for k in keys}
    tagged = ds.map_batches(_AddPart(keys, num_partitions),
                            batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(
        _GroupQuantiles(keys, value_col, qs, key_types),
        batch_format="pandas")


class _RangeJoinPartition:
    """One co-partitioned hash partition of left rows (side 0: key, ts,
    left cols) and intervals (side 1: key, start, end, interval cols).
    Vectorized sweep: left sorted by (key, ts); every interval's match
    range comes from two composite searchsorteds; pairs are emitted with a
    ranges-gather (no per-interval python slicing)."""

    def __init__(self, keys, ts_col, start_col, end_col, left: pa.Schema,
                 right: pa.Schema, left_cols, right_cols,
                 out_schema: pa.Schema):
        self.__name__ = type(self).__name__
        self.keys, self.ts_col = list(keys), ts_col
        self.start_col, self.end_col = start_col, end_col
        self.left, self.right = left, right  # each side's own schema
        self.left_cols, self.right_cols = list(left_cols), list(right_cols)
        self.out_schema = out_schema

    def __call__(self, tbl: pa.Table) -> pa.Table:
        left = side(tbl, 0, self.left)
        right = side(tbl, 1, self.right)
        if not len(left) or not len(right):
            return self.out_schema.empty_table()
        # shared key codes across both sides; the left's null keys get a
        # code no interval has (side 1 dropped its null-key rows)
        both = pa.concat_tables([left.select(self.keys),
                                 right.select(self.keys)]).to_pandas()
        if len(self.keys) == 1:
            codes, _ = pd.factorize(both[self.keys[0]],
                                    use_na_sentinel=False)
        else:
            codes, _ = pd.MultiIndex.from_frame(both) \
                .factorize(use_na_sentinel=False)
        lcode = codes[:len(left)].astype(np.int64)
        rcode = codes[len(left):].astype(np.int64)
        lts = left[self.ts_col].to_numpy().astype(np.int64)
        perm = np.lexsort((lts, lcode))
        lcode, lts = lcode[perm], lts[perm]
        rs = right[self.start_col].to_numpy().astype(np.int64)
        re_ = right[self.end_col].to_numpy().astype(np.int64)
        # monotone composite (code, ts) -> single searchsorted
        t0 = min(int(lts.min()), int(rs.min()), int(re_.min()))
        t1 = max(int(lts.max()), int(rs.max()), int(re_.max()))
        K = (t1 - t0) + 2
        comp = lcode * K + (lts - t0)
        # clamp interval bounds into the key's K-wide band so out-of-range
        # intervals can't bleed into a neighboring key's range
        rs_c = np.clip(rs - t0, 0, K - 1)
        re_c = np.clip(re_ - t0, 0, K - 1)
        lo = np.searchsorted(comp, rcode * K + rs_c, side="left")
        hi = np.searchsorted(comp, rcode * K + re_c, side="left")
        # malformed end < start intervals match nothing (SQL semantics)
        cnt = np.maximum(hi - lo, 0)
        total = int(cnt.sum())
        ividx = np.repeat(np.arange(len(right)), cnt)
        base = np.repeat(np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
        evidx = perm[np.arange(total) - base + np.repeat(lo, cnt)]
        return pa.Table.from_arrays(
            [*left.select(self.left_cols).take(evidx).columns,
             *right.select(self.right_cols).take(ividx).columns],
            schema=self.out_schema)


def range_join(
    left: ray.data.Dataset,
    intervals: ray.data.Dataset,
    keys: Sequence[str],
    ts_col: str = "ts",
    start_col: str = "start_ts",
    end_col: str = "end_ts",
    left_cols: Optional[Sequence[str]] = None,
    right_cols: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Interval/range join: every (left row, interval) pair with the same
    key and start <= ts < end — one row PER MATCH (overlapping intervals
    multiply), each column in its side's type. ONE co-partition of both
    sides by key (``pipelines/copartition.py``; a null key never matches);
    the per-partition sweep is two vectorized searchsorteds + a
    ranges-gather. Skewed keys: all of a key's rows land in one task —
    salt hot keys upstream if a single key's intervals × rows exceeds task
    memory."""
    from ..util import dataset_schema

    lsch, rsch = dataset_schema(left), dataset_schema(intervals)
    left_cols = list(left_cols or lsch.names)
    right_cols = list(dict.fromkeys([
        *(right_cols or [c for c in rsch.names
                         if c not in (*keys, start_col, end_col)]),
        start_col, end_col]))
    shared = [c for c in right_cols if c in left_cols]
    if shared:
        raise ValueError(f"range_join: left_cols and right_cols share "
                         f"{shared}; rename one side's columns")
    key_types = {k: lsch.field(k).type for k in keys}
    sides = [Side(left, pa.schema([lsch.field(c) for c in dict.fromkeys(
                 [*keys, ts_col, *left_cols])])),
             Side(intervals, pa.schema([rsch.field(c) for c in dict.fromkeys(
                 [*keys, *right_cols])]))]
    own = [s.own(key_types) for s in sides]
    out_schema = pa.schema([own[0].field(c) for c in left_cols]
                           + [own[1].field(c) for c in right_cols])
    return copartition(sides, key_types, keys, num_partitions,
                       _RangeJoinPartition(keys, ts_col, start_col, end_col,
                                           *own, left_cols, right_cols,
                                           out_schema),
                       out_schema)
