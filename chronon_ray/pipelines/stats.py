"""Observability family: feature-summary stats, table comparison,
online/offline consistency and distribution drift.

Parity targets (semantics only — the execution is Ray-Data-native):
  - aggregator/row/StatsGenerator.scala        (metric construction, drift)
  - spark/stats/StatsCompute.scala             (daily/bucketed summaries)
  - spark/stats/CompareBaseJob.scala:29-182    (schema check + outer join)
  - spark/stats/CompareMetrics.scala:32-215    (per-field metric transforms)
  - spark/stats/ConsistencyJob.scala:33-141    (logged vs backfill compare)
  - spark/stats/EditDistance.scala:19-119      (insert/delete-only distance)

Execution shape: every summary is a per-block vectorized partial keyed by
time bucket (a combiner — null counts, totals, KLL sketch updates happen
inside ``map_batches`` before anything moves), merged through ONE tiny
``groupby(bucket)`` exchange whose cardinality is the number of time
buckets, never the number of rows.  The comparison join is ONE
hash-partitioned exchange co-partitioning both sides by the canonical key
hash.  Nothing here materializes an input table.
"""

from __future__ import annotations

import pickle
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..aggregators.sketches import KLL
from ..util import dataset_schema
from .groupby import block_part_hash, left_column_array

MILLIS_DAY = 86_400_000

# StatsGenerator.scala:41-47
NULL_SUFFIX = "__null"
NULL_RATE_SUFFIX = "__null_rate"
TOTAL_COLUMN = "total"
#: CDF summary points (StatsGenerator.finalizedPercentilesMerged)
PERCENTILES_MERGED: tuple = tuple(
    [0.01] + [i / 100 for i in range(5, 100, 5)] + [0.99])
#: candlestick points (StatsGenerator.finalizedPercentilesSeries)
PERCENTILES_SERIES: tuple = (0.05, 0.25, 0.5, 0.75, 0.95)
#: never summarized (StatsGenerator.ignoreColumns)
IGNORE_COLUMNS = ("ts", "ds", "date_key", "date", "datestamp")

# CompareMetrics.scala:34-39
LEFT_SUFFIX = "_left"
RIGHT_SUFFIX = "_right"
COMPARE_BINS = 41
#: percentile grid for comparison sketches: i/bins for i in 0..bins
COMPARE_PERCENTILES: tuple = tuple(i / COMPARE_BINS
                                   for i in range(COMPARE_BINS + 1))


def _is_numeric(t: pa.DataType) -> bool:
    return (pa.types.is_integer(t) or pa.types.is_floating(t)
            or pa.types.is_decimal(t)) and not pa.types.is_boolean(t)


def _bucket_of(ts_ms: np.ndarray, bucket_ms: int) -> np.ndarray:
    return (ts_ms // bucket_ms) * bucket_ms


def _time_values(t: pa.Table, time_column: str) -> np.ndarray:
    """Millis epoch from either a ts column or a ds date-string column.
    Timestamp-typed columns are canonicalized through timestamp('ms')
    first — a raw to_numpy().astype(int64) on datetime64[ns] would yield
    NANOseconds and bucket everything into garbage. The cast truncates
    sub-ms parts (a safe cast raises on them)."""
    import pyarrow.compute as pc
    col = t[time_column]
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        days = np.array(col.to_pylist(), dtype="datetime64[D]")
        return days.astype("datetime64[ms]").astype(np.int64)
    if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
        col = pc.cast(pc.cast(col, pa.timestamp("ms"), safe=False),
                      pa.int64())
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


# --------------------------------------------------------------- summaries


def build_summary_metrics(schema: pa.Schema, keys: Sequence[str] = ()
                          ) -> list[tuple]:
    """StatsGenerator.buildMetrics: per non-key, non-time column — a
    ``__null`` SUM for every type plus an APPROX_PERCENTILE (KLL) for
    numerics; one ``total`` COUNT at the end.  Returns
    ``[(column, transform)]`` with transform in {"null", "kll", "count"},
    sorted by column name (the reference sorts so online/offline schemas
    line up)."""
    skip = set(keys) | set(IGNORE_COLUMNS)
    out = []
    for name in sorted(schema.names):
        if name in skip:
            continue
        out.append((name, "null"))
        if _is_numeric(schema.field(name).type):
            out.append((name, "kll"))
    out.append((TOTAL_COLUMN, "count"))
    return out


def summary_stats(
    ds: ray.data.Dataset,
    keys: Sequence[str] = (),
    time_bucket_minutes: int = 60,
    k: int = 128,
    finalize: bool = True,
    percentiles: Sequence[float] = PERCENTILES_MERGED,
    merge_partitions: int = 16,
) -> ray.data.Dataset:
    """Bucketed feature-summary table (StatsCompute.dailySummary): one row
    per time bucket with per-column null counts, null rates and KLL
    percentile summaries, plus a total row count.

    Events bucket on ``ts`` (``timeBucketMinutes``); entity tables without
    a ``ts`` column bucket on the ``ds`` day.  With ``finalize=False`` the
    KLL columns come back as pickled IR blobs (``{col}__kll``) — mergeable
    across runs and the input to :func:`drift_metrics`, the analog of the
    reference pushing IRs to the KV store for fetcher-side merging."""
    schema = dataset_schema(ds)
    time_column = "ts" if "ts" in schema.names else "ds"
    metrics = build_summary_metrics(schema, keys)
    bucket_ms = (time_bucket_minutes * 60_000 if time_column == "ts"
                 else MILLIS_DAY)
    null_cols = [c for c, m in metrics if m == "null"]
    kll_cols = [c for c, m in metrics if m == "kll"]

    def partial(t: pa.Table) -> pa.Table:
        # a null time value would become NaT → INT64_MIN → a garbage
        # bucket row (and summary_job's add_ds an absurd ds partition);
        # drop them, mirroring compare_metrics' null-time filter
        tcol = t[time_column]
        if tcol.null_count:
            t = t.filter(tcol.is_valid())
        ts = _time_values(t, time_column)
        buckets = _bucket_of(ts, bucket_ms)
        uniq, codes = np.unique(buckets, return_inverse=True)
        n_b = len(uniq)
        total = np.bincount(codes, minlength=n_b).astype(np.int64)
        nulls = {}
        for c in null_cols:
            mask = t[c].is_null().to_numpy(zero_copy_only=False)
            nulls[c] = np.bincount(codes, weights=mask,
                                   minlength=n_b).astype(np.int64)
        klls: dict = {c: [None] * n_b for c in kll_cols}
        # one argsort partitions every column's values by bucket (a
        # codes == b scan per bucket would re-read the block n_b times)
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(n_b + 1))
        import pyarrow.compute as pc
        for c in kll_cols:
            # cast-through-Arrow: nullable ints and decimals land as
            # float64 + NaN (object .astype would crash on None)
            vals = pc.cast(t[c], pa.float64()) \
                .to_numpy(zero_copy_only=False)[order]
            for b in range(n_b):
                sel = vals[bounds[b]:bounds[b + 1]]
                sel = sel[~np.isnan(sel)]
                st = KLL.empty(k)
                if len(sel):
                    st = KLL.update_many(st, sel)
                klls[c][b] = st
        blobs = [pickle.dumps({
            "total": int(total[b]),
            "nulls": {c: int(nulls[c][b]) for c in null_cols},
            "kll": {c: klls[c][b] for c in kll_cols},
        }) for b in range(n_b)]
        return pa.table({
            "bucket_ts": pa.array(uniq, type=pa.int64()),
            "_ir": pa.array(blobs, type=pa.binary()),
        })

    partial.__name__ = "summary_partial"
    qs = list(percentiles)

    def merge_finalize(g: pd.DataFrame) -> pd.DataFrame:
        acc = None
        for blob in g["_ir"]:
            p = pickle.loads(blob)
            if acc is None:
                acc = p
            else:
                acc["total"] += p["total"]
                for c in null_cols:
                    acc["nulls"][c] += p["nulls"][c]
                for c in kll_cols:
                    acc["kll"][c] = KLL.merge(acc["kll"][c], p["kll"][c])
        row: dict = {"bucket_ts": np.int64(g["bucket_ts"].iloc[0])}
        for c in null_cols:
            row[f"{c}{NULL_SUFFIX}"] = np.int64(acc["nulls"][c])
            row[f"{c}{NULL_RATE_SUFFIX}"] = acc["nulls"][c] / acc["total"]
        if finalize:
            for c in kll_cols:
                st = acc["kll"][c]
                has = any(len(a) for a in st["levels"])
                row[f"{c}__percentiles"] = (
                    KLL.quantiles(st, qs).tolist() if has else None)
        else:
            for c in kll_cols:
                row[f"{c}__kll"] = KLL.serialize(acc["kll"][c])
        row[f"{TOTAL_COLUMN}_count"] = np.int64(acc["total"])
        return pd.DataFrame([row])

    merge_finalize.__name__ = "summary_merge"
    partials = ds.map_batches(partial, batch_format="pyarrow")
    # spread the per-bucket merges across workers: reduce parallelism
    # follows the upstream block count, so a single-block input would
    # serialize every bucket's sketch merge into one task. Raise
    # merge_partitions when blocks x buckets is huge (it bounds the
    # partial-row block size on the merge side).
    partials = partials.repartition(merge_partitions)
    return (partials.groupby("bucket_ts")
            .map_groups(merge_finalize, batch_format="pandas"))


def summary_job(
    input_table: str,
    output_table: str,
    keys: Sequence[str] = (),
    end_ds: Optional[str] = None,
    step_days: Optional[int] = None,
    sample: float = 1.0,
    time_bucket_minutes: int = 60,
    k: int = 128,
    finalize: bool = True,
) -> dict:
    """Resumable daily-summary backfill (SummaryJob.basicStatsJob): compute
    :func:`summary_stats` for every input ds day not yet in the output
    table, ``step_days`` days at a time, and write one atomic partition per
    day.  Re-running fills only the missing days (the reference's
    unfilledRanges resume semantics).

    ``sample`` < 1 keeps a deterministic ts-hash fraction of the rows (the
    reference samples 10% by default for stats; RAND() there, a stable hash
    here so reruns are idempotent).  ``time_bucket_minutes`` must divide a
    day so no bucket spans two output partitions.

    Returns ``{ds: manifest}`` for the partitions written this run."""
    from ..sources import list_partitions, scan_table
    from ..state.lineage import completed_partitions, write_partitioned
    from ..state.partitions import PartitionRange, unfilled_ranges
    from ..api import TQuery
    import hashlib

    if (24 * 60) % time_bucket_minutes:
        raise ValueError("time_bucket_minutes must divide a day")
    cfg = hashlib.md5(repr(("summary", tuple(keys), time_bucket_minutes,
                            sample, k, finalize)).encode()).hexdigest()[:16]
    in_parts = list_partitions(input_table)
    hive = bool(in_parts)
    has_ds = True
    if not hive:
        # flat parquet: one single-column distinct scan for the day set
        # (day cardinality is small by definition); ds column if present,
        # else ts days
        import pyarrow.parquet as _pq

        has_ds = "ds" in _pq.read_schema(input_table).names
        probe = scan_table(input_table, TQuery(),
                           columns=["ds"] if has_ds else ["ts"])

        def day_col(t: pa.Table) -> pa.Table:
            if has_ds:
                return t.select(["ds"])
            days = (t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
                    // MILLIS_DAY).astype("datetime64[D]")
            return pa.table({"ds": pa.array(
                np.datetime_as_string(days, unit="D").tolist(),
                type=pa.string())})

        day_col.__name__ = "summary_days"
        in_parts = sorted(
            probe.map_batches(day_col, batch_format="pyarrow").unique("ds"))
    if end_ds is not None:
        in_parts = [p for p in in_parts if p <= end_ds]
    if not in_parts:
        return {}
    requested = PartitionRange(in_parts[0], end_ds or in_parts[-1])
    have = completed_partitions(output_table, cfg)
    ranges = unfilled_ranges(requested, have, input_partitions=in_parts)
    written: dict = {}
    for rng in ranges:
        steps = rng.steps(step_days) if step_days else [rng]
        for step in steps:
            lo, hi = step.start, step.end
            ds = scan_table(input_table, TQuery(start_partition=lo,
                                                end_partition=hi))
            # filter to the step by EVENT-TIME day when ts exists (the
            # output partition day derives from bucket_ts, so the step
            # that owns day D must be the only one writing D — an event
            # landing in partition D+1 with ts on day D would otherwise
            # clobber D's completed summary with a partial one). Late
            # rows whose ts-day precedes their landing partition are
            # attributed to their ts-day's step and therefore only
            # counted if they landed within the same step range — the
            # engine-wide event-time-window semantic.
            step_has_ts = "ts" in dataset_schema(ds).names
            lo_ms = int(np.datetime64(lo, "ms").astype(np.int64))
            hi_ms = int(np.datetime64(hi, "ms").astype(np.int64)) \
                + MILLIS_DAY

            if step_has_ts or not hive:
                def in_step(t: pa.Table, _l=lo, _h=hi, _lm=lo_ms,
                            _hm=hi_ms, _ts=step_has_ts) -> pa.Table:
                    if _ts:
                        ts = t["ts"].to_numpy(zero_copy_only=False) \
                            .astype(np.int64)
                        mask = (ts >= _lm) & (ts < _hm)
                    else:
                        mask = np.array(
                            [(v is not None and _l <= v <= _h)
                             for v in t["ds"].to_pylist()])
                    return t.filter(pa.array(mask))

                in_step.__name__ = "summary_step_filter"
                ds = ds.map_batches(in_step, batch_format="pyarrow")
            if sample < 1.0 and "ts" not in dataset_schema(ds).names:
                raise ValueError("sample < 1 requires a ts column "
                                 "(event-time hash sampling)")
            if sample < 1.0:
                def keep(t: pa.Table, _f=sample) -> pa.Table:
                    ts = t["ts"].to_numpy(zero_copy_only=False) \
                        .astype(np.uint64)
                    h = (ts * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
                    return t.filter(pa.array(h < _f * float(1 << 24)))

                keep.__name__ = "summary_sample"
                ds = ds.map_batches(keep, batch_format="pyarrow")
            summ = summary_stats(ds, keys,
                                 time_bucket_minutes=time_bucket_minutes,
                                 k=k, finalize=finalize)

            def add_ds(t: pa.Table) -> pa.Table:
                from ..sources import _strip_schema_metadata

                # pandas-origin blocks carry schema metadata that breaks
                # Ray's schema-hash dedup downstream — strip before write
                t = _strip_schema_metadata(t)
                days = (t["bucket_ts"].to_numpy(zero_copy_only=False)
                        // MILLIS_DAY).astype("datetime64[D]")
                return t.append_column(
                    "ds", pa.array(np.datetime_as_string(days, unit="D")
                                   .tolist(), type=pa.string()))

            add_ds.__name__ = "summary_add_ds"
            out = summ.map_batches(add_ds, batch_format="pyarrow")
            written.update(write_partitioned(out, output_table, cfg,
                                             input_range=(lo, hi)))
    return written


# ------------------------------------------------------------------ drift


def _kll_items(state: dict):
    items, weights = [], []
    for lvl, arr in enumerate(state["levels"]):
        if len(arr):
            items.append(arr)
            weights.append(np.full(len(arr), 1 << lvl, dtype=np.int64))
    if not items:
        return None, None
    vals = np.concatenate(items)
    w = np.concatenate(weights)
    order = np.argsort(vals, kind="stable")
    return vals[order], w[order]


def kll_rank(state: dict, x: float) -> float:
    """Estimated CDF at x: fraction of mass strictly below x."""
    vals, w = _kll_items(state)
    if vals is None:
        return 0.0
    cw = np.cumsum(w)
    idx = int(np.searchsorted(vals, x, side="left"))
    below = 0 if idx == 0 else int(cw[idx - 1])
    return below / int(cw[-1])


def kll_even_quantiles(state: dict, n: int) -> np.ndarray:
    """n evenly spaced quantiles (ranks i/(n-1)) — the reference's
    ``sketch.getQuantiles(bins)`` used to build drift split points."""
    return KLL.quantiles(state, [i / (n - 1) for i in range(n)])


def kll_pmf(state: dict, split_points: np.ndarray) -> np.ndarray:
    """Mass in (-inf, sp0), [sp0, sp1), ..., [sp_last, inf)."""
    vals, w = _kll_items(state)
    n = len(split_points) + 1
    if vals is None:
        return np.zeros(n)
    cw = np.concatenate([[0], np.cumsum(w)])
    total = cw[-1]
    idx = np.searchsorted(vals, split_points, side="left")
    edges = np.concatenate([[0], cw[idx], [total]])
    return np.diff(edges) / total


def _kll_cdf(state: dict, xs: np.ndarray) -> np.ndarray:
    """Interpolated CDF estimate at each x: retained items are order
    statistics, so their midpoint ranks linearly interpolate.  Smoother
    than the step-rank the reference uses — our KLL retains ~4× fewer
    items at the same k, and the step estimator's quantization noise
    would dominate PSI."""
    vals, w = _kll_items(state)
    if vals is None:
        return np.zeros(len(xs))
    cw = np.cumsum(w)
    pos = (cw - w / 2.0) / cw[-1]
    return np.interp(xs, vals, pos, left=0.0, right=1.0)


def _retained(state: dict) -> int:
    return sum(len(a) for a in state["levels"])


def _drift_grid(a: dict, b: dict, bins: int) -> Optional[np.ndarray]:
    """Union of both sketches' even quantiles (the reference's keySet),
    with the grid capped to retention/8 per sketch so every bin holds
    several retained items — finer grids measure quantization noise, not
    distribution shift.  None when either sketch is empty (an all-null
    side has no distribution to compare; the null-rate delta is the
    alerting signal there)."""
    if _retained(a) == 0 or _retained(b) == 0:
        return None
    eff = max(2, min(bins, _retained(a) // 8, _retained(b) // 8))
    keys = np.unique(np.concatenate([kll_even_quantiles(a, eff),
                                     kll_even_quantiles(b, eff)]))
    return keys if len(keys) else None


def kll_linf(a: dict, b: dict, bins: int = 128) -> Optional[float]:
    """L-infinity distance between two KLL CDFs over the union of each
    sketch's even quantiles (StatsGenerator.lInfKllSketch)."""
    if a is None or b is None:
        return None
    keys = _drift_grid(a, b, bins)
    if keys is None:
        return None
    return float(np.max(np.abs(_kll_cdf(a, keys) - _kll_cdf(b, keys))))


def _regularize(pmf: np.ndarray, eps: float) -> np.ndarray:
    """Perturb zero bins so PSI stays defined (StatsGenerator.regularize).

    The donated mass is taken from the nonzero bins PROPORTIONALLY rather
    than the reference's flat ``x - eps`` — a bin whose mass is below eps
    would go negative there and poison the PSI log with NaN."""
    zeros = pmf == 0.0
    n_zero = int(zeros.sum())
    if n_zero == 0:
        return pmf
    repl = eps * (len(pmf) - n_zero) / n_zero
    need = repl * n_zero
    donor_mass = pmf.sum()
    out = np.where(zeros, repl, pmf * (1.0 - need / donor_mass))
    return out


def kll_psi(reference: dict, comparison: dict, bins: int = 128,
            eps: float = 1e-6) -> Optional[float]:
    """Population Stability Index between two sketched distributions
    (StatsGenerator.PSIKllSketch).  <0.10 little shift, 0.10-0.25
    moderate, >0.25 action required."""
    if reference is None or comparison is None:
        return None
    keys = _drift_grid(reference, comparison, bins)
    if keys is None:
        return None

    def pmf(state: dict) -> np.ndarray:
        cdf = _kll_cdf(state, keys)
        return np.diff(np.concatenate([[0.0], cdf, [1.0]]))

    p = _regularize(pmf(reference), eps)
    q = _regularize(pmf(comparison), eps)
    return float(np.sum((p - q) * np.log(p / q)))


def _collapse_summary(df: pd.DataFrame) -> pd.DataFrame:
    """Collapse an indexed IR-mode summary across ALL its time buckets into
    one logical bucket (index -1): KLL IRs merge, null rates combine
    weighted by each bucket's total count.  This is what lets
    ``drift_metrics(align="merge")`` compare two disjoint periods."""
    if df.empty:
        return df
    total = pd.to_numeric(df[f"{TOTAL_COLUMN}_count"],
                          errors="coerce").fillna(0.0).astype(float)
    tsum = float(total.sum())
    out: dict = {f"{TOTAL_COLUMN}_count": np.int64(tsum)}
    for c in df.columns:
        if c.endswith(NULL_RATE_SUFFIX):
            rates = pd.to_numeric(df[c], errors="coerce").astype(float)
            ok = ~rates.isna()
            w = float(total[ok].sum())
            out[c] = (float((rates[ok] * total[ok]).sum() / w)
                      if w else np.nan)
        elif c.endswith("__kll"):
            st = None
            for blob in df[c]:
                if blob is None or (isinstance(blob, float)
                                    and np.isnan(blob)):
                    continue
                s = KLL.deserialize(blob)
                st = s if st is None else KLL.merge(st, s)
            out[c] = KLL.serialize(st) if st is not None else None
        elif c == f"{TOTAL_COLUMN}_count":
            pass
        elif c.endswith("__percentiles"):
            out[c] = None
    return pd.DataFrame([out], index=pd.Index([-1], name=df.index.name))


def drift_metrics(reference: ray.data.Dataset,
                  comparison: ray.data.Dataset,
                  on: str = "bucket_ts",
                  bins: int = 128,
                  eps: float = 1e-6,
                  align: str = "strict") -> pd.DataFrame:
    """Per-bucket, per-column drift between two IR-mode summaries
    (``summary_stats(..., finalize=False)``): null-rate delta for every
    column, L-inf and PSI for sketched numerics.  Summary tables are
    bucket-cardinality small — this is a driver-side join by design.

    ``align="strict"`` (default) joins buckets on identical ``on`` values
    and RAISES when both sides are non-empty but share no bucket — the
    canonical cross-period comparison (last week vs this week) would
    otherwise silently return zero rows, which reads as "no drift".
    ``align="merge"`` collapses each side's IRs across all of its buckets
    (KLL merge + count-weighted null rates) into one logical bucket
    (``bucket_ts = -1``), making disjoint periods directly comparable."""
    if align not in ("strict", "merge"):
        raise ValueError(f"align must be 'strict' or 'merge', got {align!r}")
    ref = reference.to_pandas()
    cmp_ = comparison.to_pandas()
    # an EMPTY side (mistyped path, fully-null time column) must not read
    # as "no drift" — checked FIRST because Ray's to_pandas drops the
    # columns of a zero-row frame, which would hit the schema check below
    # with a misleading "no bucket_ts column" message (also when BOTH
    # sides are empty, e.g. one upstream bug hitting both periods)
    for side, df in (("reference", ref), ("comparison", cmp_)):
        if len(df) == 0:
            raise ValueError(
                f"drift_metrics: the {side} summary is EMPTY — check the "
                "table path / time column; an empty side cannot yield a "
                "drift verdict and must not read as 'no drift'.")
    for side, df in (("reference", ref), ("comparison", cmp_)):
        if on not in df.columns:
            raise ValueError(
                f"{side} table has no '{on}' column — drift inputs are "
                "IR-mode summaries (summary_stats(finalize=False) / "
                "`summarize --ir`), got columns "
                f"{sorted(df.columns)[:8]}...")
    ref = ref.set_index(on)
    cmp_ = cmp_.set_index(on)
    if align == "merge":
        ref = _collapse_summary(ref)
        cmp_ = _collapse_summary(cmp_)
    elif (len(ref) and len(cmp_)
          and not (set(ref.index) & set(cmp_.index))):
        raise ValueError(
            "drift_metrics: reference and comparison summaries share NO "
            f"time buckets (reference {min(ref.index)}..{max(ref.index)} "
            f"vs comparison {min(cmp_.index)}..{max(cmp_.index)}) — the "
            "strict per-bucket join would return zero rows, which reads "
            "as 'no drift'. Comparing two different periods needs "
            "align='merge' (collapses each side's KLL IRs across its "
            "buckets into one comparable logical bucket).")

    def cols_of(df):
        kll = {c[:-len("__kll")] for c in df.columns if c.endswith("__kll")}
        nul = {c[:-len(NULL_RATE_SUFFIX)] for c in df.columns
               if c.endswith(NULL_RATE_SUFFIX)}
        return kll, nul

    ref_kll, ref_null = cols_of(ref)
    cmp_kll, cmp_null = cols_of(cmp_)
    # a finalized summary would pass the bucket_ts check but carry
    # __percentiles instead of __kll — every psi/linf would silently be
    # None, so a real shift could never be flagged
    for side, df, kll in (("reference", ref, ref_kll),
                          ("comparison", cmp_, cmp_kll)):
        if not kll and any(c.endswith("__percentiles") for c in df.columns):
            raise ValueError(
                f"{side} table is a FINALIZED summary (has __percentiles, "
                "no __kll columns) — drift needs IR mode "
                "(summary_stats(finalize=False) / `summarize --ir`)")
    rows = []
    for b in sorted(set(ref.index) & set(cmp_.index)):
        # union of both sides' columns: a column that appeared or
        # disappeared between the periods is itself a drift signal
        for c in sorted(ref_null | cmp_null):
            status = ("missing_in_comparison" if c not in cmp_null
                      else "missing_in_reference" if c not in ref_null
                      else "ok")
            row = {"bucket_ts": b, "column": c, "status": status,
                   "null_rate_delta": None, "linf": None, "psi": None}
            if status == "ok":
                row["null_rate_delta"] = abs(
                    float(ref.at[b, f"{c}{NULL_RATE_SUFFIX}"])
                    - float(cmp_.at[b, f"{c}{NULL_RATE_SUFFIX}"]))
                if c in ref_kll and c in cmp_kll:
                    a = KLL.deserialize(ref.at[b, f"{c}__kll"])
                    z = KLL.deserialize(cmp_.at[b, f"{c}__kll"])
                    row["linf"] = kll_linf(a, z, bins)
                    row["psi"] = kll_psi(a, z, bins, eps)
            rows.append(row)
    return pd.DataFrame(rows,
                        columns=["bucket_ts", "column", "status",
                                 "null_rate_delta", "linf", "psi"])


# ---------------------------------------------------------- edit distance


def edit_distance(left, right) -> tuple[int, int]:
    """Insert/delete-only edit distance, counted separately, edits into
    RIGHT to make it like LEFT (EditDistance.scala:55-119: replacement is
    disallowed, so inserts = len(left) - LCS, deletes = len(right) - LCS;
    the reference's DP recurrence — match ⇒ diag, else 1 + min(up, left)
    — computes exactly this decomposition).  Works on sequences and
    strings; None counts as empty."""
    l = [] if left is None else list(left)
    r = [] if right is None else list(right)
    if not l and not r:
        return (0, 0)
    if not l:
        return (0, len(r))
    if not r:
        return (len(l), 0)
    # LCS length, two-row DP
    prev = np.zeros(len(r) + 1, dtype=np.int32)
    cur = np.zeros(len(r) + 1, dtype=np.int32)
    for i in range(1, len(l) + 1):
        li = l[i - 1]
        for j in range(1, len(r) + 1):
            if li == r[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev, cur = cur, prev
    lcs = int(prev[len(r)])
    return (len(l) - lcs, len(r) - lcs)


# ------------------------------------------------------- table comparison


def check_consistency(left_schema: pa.Schema,
                      right_schema: pa.Schema,
                      keys: Sequence[str],
                      mapping: Optional[dict] = None,
                      migration_check: bool = False) -> None:
    """Schema validation before a compare (CompareBaseJob.checkConsistency):
    comparable field counts, mapped dtypes equal, mapping well-formed, keys
    present on both sides, and at least one time element among the keys."""
    mapping = dict(mapping or {})
    lf = {f.name: f.type for f in left_schema}
    rf = {f.name: f.type for f in right_schema}
    errors = []
    size_ok = len(lf) >= len(rf) if migration_check else len(lf) == len(rf)
    if not size_ok:
        errors.append(
            f"inconsistent field counts; left {len(lf)} right {len(rf)}: "
            f"left={sorted(lf)} right={sorted(rf)}")
    reverse = {v: k for k, v in mapping.items()}
    for rname, rtype in rf.items():
        lname = reverse.get(rname, rname)
        if lname in lf:
            if lf[lname] != rtype:
                errors.append(f"dtype mismatch for '{lname}': "
                              f"left {lf[lname]} vs right {rtype}")
        else:
            errors.append(f"mapped left column missing: '{lname}'")
    if len(mapping) != len(reverse):
        errors.append(f"mapping values contain duplicates: {mapping}")
    if not set(mapping).issubset(lf):
        errors.append(f"mapping keys {set(mapping) - set(lf)} not in left")
    if not set(mapping.values()).issubset(rf):
        errors.append(
            f"mapping values {set(mapping.values()) - set(rf)} not in right")
    for side, fields in (("left", lf), ("right", rf)):
        missing = set(keys) - set(fields)
        if missing:
            errors.append(f"keys {sorted(missing)} missing on {side}")
    if not set(keys) & {"ts", "ds"}:
        errors.append("one of the keys must be a time column (ts or ds)")
    if errors:
        raise ValueError("comparison schema check failed:\n- "
                         + "\n- ".join(errors))


def _typed_null_pad(t: pa.Table, schema: pa.Schema) -> pa.Table:
    cols = []
    for f in schema:
        if f.name in t.column_names:
            col = t[f.name]
            if col.type != f.type:
                col = col.cast(f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(len(t), type=f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def compare_join(left: ray.data.Dataset,
                 right: ray.data.Dataset,
                 keys: Sequence[str],
                 mapping: Optional[dict] = None,
                 migration_check: bool = False,
                 num_partitions: int = 32) -> tuple[ray.data.Dataset, list]:
    """Full outer join of two tables on ``keys``, non-key columns suffixed
    ``_left`` / ``_right`` (CompareBaseJob.compare steps 2-4).  Right
    columns are first renamed to their left names via ``mapping``.

    ONE exchange: both sides tag a canonical-key-hash partition id, union,
    and each partition pandas-merges its slice.  NULL keys never match
    (SQL join semantics) but their rows survive unmatched — full outer.
    Returns ``(compare_ds, value_fields)`` where value_fields is the list
    of ``(name, arrow_type)`` for the compared (unsuffixed) left value
    columns."""
    keys = list(keys)
    mapping = dict(mapping or {})
    lsch, rsch = dataset_schema(left), dataset_schema(right)
    check_consistency(lsch, rsch, keys, mapping, migration_check)
    reverse = {v: k for k, v in mapping.items()}
    # rename right columns to left names
    if reverse:
        rnames = [reverse.get(n, n) for n in rsch.names]
        right = right.map_batches(
            lambda t, names=tuple(rnames): t.rename_columns(list(names)),
            batch_format="pyarrow")
        rsch = pa.schema([pa.field(reverse.get(f.name, f.name), f.type)
                          for f in rsch])
    rnameset = set(rsch.names)
    value_fields = [(f.name, f.type) for f in lsch
                    if f.name not in keys and f.name in rnameset]
    dropped = [f.name for f in lsch
               if f.name not in keys and f.name not in rnameset]
    if dropped and not migration_check:
        raise AssertionError(f"unmatched left columns: {dropped}")

    key_fields = [pa.field(k, lsch.field(k).type) for k in keys]
    ck_cols = [f"_ck{i}" for i in range(len(keys))]
    out_schema = pa.schema(
        key_fields
        + [pa.field(f"{n}{LEFT_SUFFIX}", t) for n, t in value_fields]
        + [pa.field(f"{n}{RIGHT_SUFFIX}", t) for n, t in value_fields]
        + [pa.field(c, pa.string()) for c in ck_cols]
        + [pa.field("_side", pa.int8()), pa.field("_part", pa.int32())])
    key_types = {k: lsch.field(k).type for k in keys}

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            from .groupby import canon_key_table
            suf = LEFT_SUFFIX if side == 0 else RIGHT_SUFFIX
            ren = {n: f"{n}{suf}" for n, _ in value_fields}
            t = t.rename_columns([ren.get(n, n) for n in t.column_names])
            part = block_part_hash(t, keys, num_partitions,
                                   types_by_name=key_types)
            # canonical STRING merge keys captured while still Arrow:
            # the per-partition pandas merge would otherwise match keys
            # after pandas null-promotion, where distinct int64 keys
            # above 2^53 collide to the same float64 and falsely join
            canon = canon_key_table(t, keys, key_types)
            for i, k in enumerate(keys):
                col = canon[k]
                try:
                    scol = pc.cast(col, pa.string())
                except pa.ArrowNotImplementedError:
                    scol = pa.array(
                        [None if v is None else str(v)
                         for v in col.to_pylist()], type=pa.string())
                t = t.append_column(ck_cols[i], scol)
            t = t.append_column("_side",
                                pa.array(np.full(len(t), side, dtype=np.int8)))
            t = t.append_column("_part", pa.array(part.astype(np.int32)))
            return _typed_null_pad(t, out_schema)
        fn.__name__ = f"compare_tag_{side}"
        return fn

    tagged = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))
    # the groupby's reduce parallelism follows the upstream block count —
    # a single-block input (one parquet file) would serialize the merge;
    # splitting is row-preserving (the exchange re-sorts by _part anyway)
    tagged = tagged.repartition(num_partitions)

    lcols = [f"{n}{LEFT_SUFFIX}" for n, _ in value_fields]
    rcols = [f"{n}{RIGHT_SUFFIX}" for n, _ in value_fields]
    # declared output schema (no canon-key / tag columns) — every
    # partition emits exactly this, so blocks unify no matter how pandas
    # promoted its slice
    result_fields = list(out_schema)[:-(2 + len(ck_cols))]
    result_schema = pa.schema(result_fields)

    def merge_part(g: pd.DataFrame) -> pa.Table:
        # merge on the Arrow-captured canonical string keys, NOT the raw
        # key columns: pandas float-promotion (a null anywhere in the
        # int-key block) would falsely join distinct int64 keys > 2^53.
        # Emitted key values are ALSO taken from the canon strings (cast
        # back to the declared type at emit) — the promoted floats in
        # this frame are already lossy above 2^53.
        lg = g[g["_side"] == 0][keys + ck_cols + lcols]
        rg = g[g["_side"] == 1][keys + ck_cols + rcols]
        lnull = lg[keys].isna().any(axis=1)
        rnull = rg[keys].isna().any(axis=1)
        merged = lg[~lnull].drop(columns=keys).merge(
            rg[~rnull][ck_cols + rcols], on=ck_cols, how="outer")
        for i, k in enumerate(keys):
            merged[k] = merged[ck_cols[i]]

        def keyed(sl: pd.DataFrame) -> pd.DataFrame:
            # null-key rows survive unmatched; per key column emit the
            # canon string where non-null (exact), true null where null
            # (the canon sentinel must NOT leak as a key value)
            sl = sl.copy()
            for i, k in enumerate(keys):
                sl[k] = sl[ck_cols[i]].where(sl[k].notna(), None)
            return sl.drop(columns=ck_cols)

        out = pd.concat([merged.drop(columns=ck_cols),
                         keyed(lg[lnull]), keyed(rg[rnull])],
                        ignore_index=True)

        def col(f: pa.Field) -> pa.Array:
            s = out[f.name]
            if pa.types.is_nested(f.type):
                return pa.array(s, type=f.type, from_pandas=True)
            # from_pandas=True maps NaN/None → null; the declared-type
            # cast undoes any merge-side float promotion of int columns
            return left_column_array(result_fields, f.name, s)

        return pa.Table.from_arrays([col(f) for f in result_fields],
                                    schema=result_schema)

    merge_part.__name__ = "compare_merge"
    return (tagged.groupby("_part").map_groups(
        merge_part, batch_format="pandas"), value_fields)


def _stringify_map(series: pd.Series) -> pd.Series:
    """Canonical string form for map-typed values (the reference compares
    Spark maps by string representation — Comparison.stringifyMaps)."""
    def s(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        items = v.items() if isinstance(v, dict) else v
        return "{" + ", ".join(f"{k}={x}" for k, x in sorted(items)) + "}"
    return series.map(s, na_action="ignore")


def build_compare_metrics(value_fields: list[tuple]) -> list[tuple]:
    """CompareMetrics.buildMetrics: per compared field — universal null
    accounting, numeric SMAPE + value sketches, sequence edit-distance
    sketches, equality mismatch, and a per-field total.  Returns
    ``[(field, metric, kind)]`` with kind in {"sum", "avg", "kll"} driving
    the partial layout."""
    out = []
    for name, typ in value_fields:
        out += [(name, "both_null", "sum"), (name, "left_null", "sum"),
                (name, "right_null", "sum")]
        if _is_numeric(typ):
            out += [(name, "smape", "avg"),
                    (name, "left_minus_right", "kll"),
                    (name, "left", "kll"), (name, "right", "kll")]
        elif pa.types.is_list(typ) or pa.types.is_large_list(typ):
            out += [(name, "edit_distance_insert", "kll"),
                    (name, "edit_distance_delete", "kll"),
                    (name, "left_length", "kll"),
                    (name, "right_length", "kll"),
                    (name, "mismatch_length", "sum")]
        out += [(name, "mismatch", "sum"), (name, "total", "sum")]
    return out


def compare_metrics(
    compare_ds: ray.data.Dataset,
    value_fields: list[tuple],
    keys: Sequence[str],
    time_bucket_minutes: int = 60,
    k: int = 128,
    percentiles: Sequence[float] = COMPARE_PERCENTILES,
    merge_partitions: int = 16,
) -> ray.data.Dataset:
    """Bucketed comparison metrics over a suffixed compare table
    (CompareMetrics.compute): one row per time bucket, columns
    ``{field}_{metric}``.  Sums/averages/sketches accumulate per block
    (combiner) and merge through a bucket-cardinality groupby."""
    time_column = "ts" if "ts" in keys else "ds"
    bucket_ms = (time_bucket_minutes * 60_000 if time_column == "ts"
                 else MILLIS_DAY)
    metrics = build_compare_metrics(value_fields)
    types = dict(value_fields)

    def row_values(g: pd.DataFrame, name: str):
        l = g[f"{name}{LEFT_SUFFIX}"]
        r = g[f"{name}{RIGHT_SUFFIX}"]
        if pa.types.is_map(types[name]):
            l, r = _stringify_map(l), _stringify_map(r)
        return l, r

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        # rows with a NULL time key survive the outer join (null keys
        # never match) but have no bucket — excluded from the bucketed
        # metrics rather than silently landing on a NaN→INT64_MIN bucket
        g = g[g[time_column].notna()]
        if not len(g):
            return pd.DataFrame({"bucket_ts": pd.Series(dtype=np.int64),
                                 "_ir": pd.Series(dtype=object)})
        ts = (g[time_column].to_numpy().astype(np.int64)
              if time_column == "ts" else
              np.array(g[time_column].tolist(),
                       dtype="datetime64[D]").astype("datetime64[ms]")
              .astype(np.int64))
        buckets = _bucket_of(ts, bucket_ms)
        uniq, codes = np.unique(buckets, return_inverse=True)
        n_b = len(uniq)
        # one argsort partitions every sketched column by bucket
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(n_b + 1))

        def bsum(vals: np.ndarray) -> np.ndarray:
            return np.bincount(codes, weights=vals,
                               minlength=n_b).astype(np.float64)

        acc: list[dict] = [{} for _ in range(n_b)]
        for name, _typ in value_fields:
            l, r = row_values(g, name)
            lnull = l.isna().to_numpy()
            rnull = r.isna().to_numpy()
            both = ~lnull & ~rnull
            sums = {
                "both_null": bsum(lnull & rnull),
                "left_null": bsum(lnull & ~rnull),
                "right_null": bsum(~lnull & rnull),
                "total": np.bincount(codes, minlength=n_b).astype(np.float64),
            }
            klls: dict = {}
            if _is_numeric(types[name]):
                lv = pd.to_numeric(l, errors="coerce").to_numpy(np.float64,
                                                                na_value=np.nan)
                rv = pd.to_numeric(r, errors="coerce").to_numpy(np.float64,
                                                                na_value=np.nan)
                denom = np.abs(lv) + np.abs(rv)
                with np.errstate(invalid="ignore", divide="ignore"):
                    smape = np.where(both & (denom != 0),
                                     2.0 * np.abs(lv - rv) / denom, 0.0)
                smape = np.nan_to_num(smape)
                # AVERAGE over every row: null pairs contribute 0
                # (Spark when().otherwise(0.0), CompareMetrics.scala:64-73)
                sums["smape"] = (bsum(smape), sums["total"].copy())
                sums["mismatch"] = bsum(both & (lv != rv))
                klls["left_minus_right"] = (lv - rv, both)
                klls["left"] = (lv, ~lnull)
                klls["right"] = (rv, ~rnull)
            elif (pa.types.is_list(types[name])
                  or pa.types.is_large_list(types[name])):
                # the reference's edit_distance UDF receives null sides
                # (EditDistance.scala:55-62 treats null as empty, so
                # distance = the other side's length) and EVERY row feeds
                # the APPROX_PERCENTILE sketch — so null sides map to
                # empty here too, not to excluded rows
                pairs = [edit_distance(a if av else None, b if bv else None)
                         for a, b, av, bv in zip(l, r, ~lnull, ~rnull)]
                ins = np.array([float(p[0]) for p in pairs])
                dele = np.array([float(p[1]) for p in pairs])
                llen = np.array([len(v) if ok else np.nan
                                 for v, ok in zip(l, ~lnull)])
                rlen = np.array([len(v) if ok else np.nan
                                 for v, ok in zip(r, ~rnull)])
                sums["mismatch_length"] = bsum(
                    both & ~np.isnan(llen) & ~np.isnan(rlen) & (llen != rlen))
                mm = np.zeros(len(g), dtype=bool)
                bidx = np.flatnonzero(both)
                for i in bidx:
                    mm[i] = tuple(l.iloc[i]) != tuple(r.iloc[i])
                sums["mismatch"] = bsum(mm)
                every = np.ones(len(g), dtype=bool)
                klls["edit_distance_insert"] = (ins, every)
                klls["edit_distance_delete"] = (dele, every)
                klls["left_length"] = (llen, ~lnull)
                klls["right_length"] = (rlen, ~rnull)
            else:
                # vectorized elementwise compare; null rows masked by both
                ne = (l != r).to_numpy().astype(bool)
                sums["mismatch"] = bsum(both & ne)
            ordered = {m: (np.where(ok, vals, np.nan)[order])
                       for m, (vals, ok) in klls.items()}
            for b in range(n_b):
                d = acc[b]
                for m, v in sums.items():
                    d[f"{name}_{m}"] = (
                        (float(v[0][b]), float(v[1][b]))
                        if isinstance(v, tuple) else float(v[b]))
                for m, vals in ordered.items():
                    st = KLL.empty(k)
                    vv = vals[bounds[b]:bounds[b + 1]]
                    vv = vv[~np.isnan(vv)]
                    if len(vv):
                        st = KLL.update_many(st, vv)
                    d[f"{name}_{m}"] = st
        return pd.DataFrame({
            "bucket_ts": uniq.astype(np.int64),
            "_ir": [pickle.dumps(a) for a in acc],
        })

    partial.__name__ = "compare_metrics_partial"
    qs = list(percentiles)

    def merge_finalize(g: pd.DataFrame) -> pd.DataFrame:
        acc: Optional[dict] = None
        for blob in g["_ir"]:
            p = pickle.loads(blob)
            if acc is None:
                acc = p
                continue
            for key, v in p.items():
                cur = acc[key]
                if isinstance(v, dict):       # KLL state
                    acc[key] = KLL.merge(cur, v)
                elif isinstance(v, tuple):    # (sum, count) average
                    acc[key] = (cur[0] + v[0], cur[1] + v[1])
                else:
                    acc[key] = cur + v
        row: dict = {"bucket_ts": np.int64(g["bucket_ts"].iloc[0])}
        for name, metric, kind in metrics:
            key = f"{name}_{metric}"
            v = acc[key]
            if kind == "sum":
                row[key] = np.int64(v)
            elif kind == "avg":
                row[key] = v[0] / v[1] if v[1] else None
            else:
                has = any(len(a) for a in v["levels"])
                row[key] = KLL.quantiles(v, qs).tolist() if has else None
        return pd.DataFrame([row])

    merge_finalize.__name__ = "compare_metrics_merge"
    partials = compare_ds.map_batches(partial, batch_format="pandas")
    # spread the per-bucket merges: partial rows are small (blocks ×
    # buckets) but each bucket's sketch merge + finalize is real work;
    # merge_partitions bounds the merge-side block size at huge
    # blocks x buckets
    partials = partials.repartition(merge_partitions)
    return (partials.groupby("bucket_ts")
            .map_groups(merge_finalize, batch_format="pandas"))


def compare_tables(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: Sequence[str],
    mapping: Optional[dict] = None,
    migration_check: bool = False,
    time_bucket_minutes: int = 60,
    num_partitions: int = 32,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """CompareBaseJob.compare: schema check → suffixed full outer join →
    bucketed per-field metrics.  Returns ``(compare_ds, metrics_ds)``."""
    compare_ds, value_fields = compare_join(
        left, right, keys, mapping, migration_check, num_partitions)
    metrics = compare_metrics(compare_ds, value_fields, keys,
                              time_bucket_minutes)
    return compare_ds, metrics


# ------------------------------------------------------------ consistency


def consistency_metrics(
    truth: ray.data.Dataset,
    logged: ray.data.Dataset,
    keys: Sequence[str],
    time_bucket_minutes: int = 60,
    num_partitions: int = 32,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Online/offline consistency core (ConsistencyJob.buildConsistencyMetrics
    inner loop): ``truth`` is the offline backfill over the logged left,
    ``logged`` the online-served values.  Logged-only columns (externals
    that never hit offline compute) are dropped before comparing —
    ConsistencyJob.scala:112-114."""
    tnames = set(dataset_schema(truth).names)
    lsch = dataset_schema(logged)
    extra = [n for n in lsch.names if n not in tnames]
    if extra:
        logged = logged.map_batches(
            lambda t, drop=tuple(extra): t.drop(list(drop)),
            batch_format="pyarrow")
    return compare_tables(truth, logged, keys,
                          time_bucket_minutes=time_bucket_minutes,
                          num_partitions=num_partitions)


def consistency_job(
    jc,
    logged_table: str,
    sample_percent: float = 100.0,
    time_bucket_minutes: int = 60,
    num_partitions: int = 32,
    seed: int = 0,
):
    """ConsistencyJob.scala:33-141: replace the join's left with the logged
    events (key columns + ts), backfill the offline truth with the regular
    join machinery, and compare against the logged values row-by-row.

    ``sample_percent`` < 100 applies the reference's deterministic
    OOC-compute sampling on the comparison left (a hash of the row id
    rather than RAND() so reruns are stable).  Returns
    ``(compare_ds, metrics_ds)``."""
    import dataclasses

    from ..api import EventSource, TQuery
    from .joins import compute_join

    left_keys: list[str] = []
    for part in jc.parts:
        r2l = part.right_to_left()
        for k in part.group_by.key_columns:
            lk = r2l.get(k, k)
            if lk not in left_keys:
                left_keys.append(lk)
    row_ids = list(jc.row_ids) if jc.row_ids else []
    selects = {k: k for k in left_keys}
    selects["ts"] = "ts"
    for rid in row_ids:
        if rid not in ("ts", "ds"):
            selects[rid] = rid
    wheres: tuple = ()
    if sample_percent < 100.0:
        frac = sample_percent / 100.0

        def sampled(t: pa.Table, _frac=frac, _seed=seed) -> np.ndarray:
            h = block_part_hash(t, left_keys + ["ts"], 1 << 16)
            return (h ^ (_seed & 0xFFFF)) < _frac * (1 << 16)

        # the SAME deterministic predicate applies to BOTH sides (the
        # reference's RAND() sampling can only thin the comparison left,
        # leaving every unsampled logged row as a diluting left_null in
        # the full-outer compare; a stable key hash keeps the two sides
        # congruent, so rates/SMAPE measure the sampled population)
        wheres = (sampled,)
    start = jc.left.query.start_partition
    if start is not None:
        # start_partition only prunes hive paths; a FLAT logged table
        # needs the same bound as a row filter — applied to BOTH sides
        # so the compare population stays congruent
        lo_ms = int(np.datetime64(start, "ms").astype(np.int64))

        def after_start(t: pa.Table, _lo=lo_ms) -> np.ndarray:
            import pyarrow.compute as pc

            col = t["ts"]
            if pa.types.is_timestamp(col.type):
                col = pc.cast(pc.cast(col, pa.timestamp("ms"), safe=False),
                              pa.int64())
            return col.to_numpy(zero_copy_only=False) \
                .astype(np.int64) >= _lo

        wheres = wheres + (after_start,)
    comparison_left = EventSource(
        table=logged_table,
        query=TQuery.of(selects=selects, wheres=wheres,
                        time_column="ts",
                        start_partition=jc.left.query.start_partition))
    comparison_jc = dataclasses.replace(
        jc, name=f"{jc.name}_consistency", left=comparison_left,
        bootstrap_parts=())
    truth = compute_join(comparison_jc, num_partitions=num_partitions)
    # the logged scan takes the SAME bounds (sampling + start) as the
    # comparison left — a one-sided clip would dilute the metrics with
    # left_null rows for the clipped-away period
    logged = EventSource(table=logged_table,
                         query=TQuery(wheres=wheres,
                                      start_partition=start))
    from ..sources import scan_source
    logged_ds = scan_source(logged)
    keys = row_ids or (["ts"] + left_keys)
    return consistency_metrics(truth, logged_ds, keys,
                               time_bucket_minutes=time_bucket_minutes,
                               num_partitions=num_partitions)
