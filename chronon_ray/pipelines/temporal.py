"""Point-in-time-correct temporal as-of join (the flagship pipeline).

Semantics parity with the reference's temporalEvents path (reference:
spark/GroupBy.scala:278-357; oracle SQL in spark/test/JoinTest.scala:566-582:
``AGG(IF(q.ts > e.ts AND e.ts >= round(q.ts - W, hop), v, NULL)) GROUP BY
key, q.ts``): for every left row (key, ts) and every AggregationPart, the
aggregate over events with ``hop_round(q.ts − W) ≤ e.ts < q.ts`` (strict
head, hop-rounded tail per Resolution policy; unbounded → all ``e.ts <
q.ts``).

Physical plan (canonical, SURVEY.md §7.1 — replaces the reference's Spark
groupByKey+leftOuterJoin chain with one co-partitioned pass):

1. ``temporal_join`` is a one-part ``join_step`` (pipelines/join_step.py):
   queries and pruned events are tagged, each side with its own columns,
   and unioned;
2. one hash shuffle on ``_part = hash(entity_key) % P`` co-locates every
   key's queries and events (groupby("_part"));
3. each partition is processed as a whole by ``TemporalPartition.join``
   over the distinct (key, ts) queries, **vectorized across keys**:
   events sorted by (key, ts, tie_break) once; per-query window boundaries
   found with a single composite searchsorted (key-code × relative-ts
   encoding); then per aggregation family:

   - prefix family (SUM/COUNT/AVERAGE/VARIANCE/SKEW/KURTOSIS, incl. list
     auto-explode): running power-sum prefixes, feature = prefix[head] −
     prefix[tail] — O(E + Q) per partition, no python loop;
   - slice family (FIRST/LAST/FIRST_K/LAST_K): non-null event positions +
     searchsorted → direct index arithmetic; payloads (e.g. token arrays)
     are gathered with Arrow ``take`` — zero-copy, bit-exact;
   - distinct family (un-bucketed UNIQUE_COUNT over scalar or list inputs,
     finalized): each window is the event range [tail, head); the previous
     position of every element's value (one stable sort of its dictionary
     code) bounds the run of queries that count it, found by searchsorted,
     and a difference array sums the runs — O(E·log E + (E+Q)·log Q) per
     partition, no python loop;
   - sawtooth family (APPROX_*/HISTOGRAM/TOP_K/BOTTOM_K/MIN/MAX and all
     bucketed or map-input parts): per-key hop-tiled two-stack engine
     (windowing/sawtooth.py) with hop-IR caching across windows.

No stage materializes the dataset; the output streams out of the groupby.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import AggregationPart, GroupByConf, Operation, Window
from ..aggregators.ops import OPS, AggOp, one_nan
from ..windowing.resolution import window_tail
from ..windowing.sawtooth import sawtooth_one_key

DEFAULT_NUM_PARTITIONS = 200

_PREFIX_OPS = {Operation.SUM, Operation.COUNT, Operation.AVERAGE, Operation.VARIANCE,
               Operation.SKEW, Operation.KURTOSIS}
_SLICE_OPS = {Operation.FIRST, Operation.LAST, Operation.FIRST_K, Operation.LAST_K}
#: sawtooth-family ops that auto-explode list inputs to per-element updates
#: (reference VectorDispatcher, ColumnAggregator.scala:80-117); the prefix
#: family explodes separately via its vectorized moments path
_SAW_EXPLODE_OPS = {Operation.MIN, Operation.MAX, Operation.UNIQUE_COUNT,
                    Operation.APPROX_UNIQUE_COUNT,
                    Operation.APPROX_PERCENTILE, Operation.HISTOGRAM,
                    Operation.APPROX_HISTOGRAM_K,
                    Operation.TOP_K, Operation.BOTTOM_K}
_MOMENTS_NEEDED = {Operation.COUNT: 0, Operation.SUM: 1, Operation.AVERAGE: 1,
                   Operation.VARIANCE: 2, Operation.SKEW: 3, Operation.KURTOSIS: 4}


class BucketedPyOp(AggOp):
    """Scalar-path adapter: IR = {bucket: inner IR}; values are (bucket, v)
    pairs. Mirrors BucketedColumnAggregator's map output (reference:
    aggregator/row/BucketedColumnAggregator.scala:1-94)."""

    def __init__(self, inner: AggOp):
        self.inner = inner
        self.needs_ts = inner.needs_ts

    def py_update(self, ir, v, ts, part):
        bucket, value = v
        if ir is None:
            ir = {}
        ir[bucket] = self.inner.py_update(ir.get(bucket), value, ts, part)
        return ir

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        out = dict(a)
        for k, v in b.items():
            out[k] = self.inner.py_merge(out.get(k), v, part)
        return out

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return {k: self.inner.py_clone(v, part) for k, v in ir.items()}

    def py_finalize(self, ir, part):
        return sorted((k, self.inner.py_finalize(v, part)) for k, v in ir.items())


def _tb_key(ts, tb) -> tuple:
    """Total-order key over (ts, tie_break) where tb may be null/NaN:
    missing tb sorts AFTER any real value at equal ts (the nulls-last
    convention of pandas sort_values / np.lexsort that every other
    tie-break path uses). None is incomparable in py3 and NaN comparisons
    are order-inconsistent, so the missing flag does the ordering and the
    raw tb is only compared when both sides have one."""
    missing = tb is None or (isinstance(tb, float) and tb != tb)
    return (ts, missing, None if missing else tb)


class TieBreakSliceOp(AggOp):
    """Slice-family py adapter carrying the tie-break value through the IR.

    Values are ``(payload, tb)`` pairs. FIRST/LAST IR = ``(key, payload)``
    and FIRST_K/LAST_K IR = ``[(key, payload), ...]`` with ``key =
    _tb_key(ts, tb)``, so every comparison — including merges of hop IRs —
    resolves equal-ts collisions by the configured tie_break column,
    matching the vectorized unbucketed slice contract (reference
    TimedAggregators.scala:74-112). The temporal engine applies this
    wrapper to BUCKETED slice parts whenever tie_break is configured."""

    needs_ts = True

    def __init__(self, inner: AggOp):
        self.inner = inner
        self.op = inner.op
        # LAST/LAST_K keep the max (ts, tb); FIRST/FIRST_K the min
        self.keep_max = inner.op in (Operation.LAST, Operation.LAST_K)
        self.is_k = inner.op in (Operation.FIRST_K, Operation.LAST_K)

    def py_update(self, ir, v, ts, part):
        payload, tb = v
        key = _tb_key(ts, tb)
        if self.is_k:
            item = (key, payload)
            if ir is None:
                return [item]
            ir = list(ir)
            ir.append(item)
            k = part.get_int("k")
            if len(ir) > 4 * k:
                ir.sort(key=lambda t: t[0], reverse=self.keep_max)
                del ir[k:]
            return ir
        if ir is None:
            return (key, payload)
        if self.keep_max:
            return (key, payload) if key >= ir[0] else ir
        return (key, payload) if key < ir[0] else ir

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return list(ir) if self.is_k else ir

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        if self.is_k:
            k = part.get_int("k")
            out = list(a) + list(b)
            out.sort(key=lambda t: t[0], reverse=self.keep_max)
            return out[:k]
        if self.keep_max:
            return b if b[0] >= a[0] else a
        return a if a[0] <= b[0] else b

    def py_finalize(self, ir, part):
        if self.is_k:
            k = part.get_int("k")
            out = sorted(ir, key=lambda t: t[0], reverse=self.keep_max)
            return [t[1] for t in out[:k]]
        return ir[1]


class VectorPyOp(AggOp):
    """Scalar-path adapter for LIST inputs: one inner update per element,
    null elements skipped (reference VectorDispatcher / guardedApplyVector,
    ColumnAggregator.scala:80-117)."""

    def __init__(self, inner: AggOp):
        self.inner = inner
        self.needs_ts = inner.needs_ts

    def py_update(self, ir, v, ts, part):
        if v is None:
            return ir
        for e in v:
            if e is None or (isinstance(e, float) and np.isnan(e)):
                continue
            ir = self.inner.py_update(ir, e, ts, part)
        return ir

    def py_merge(self, a, b, part):
        return self.inner.py_merge(a, b, part)

    def py_clone(self, ir, part):
        return self.inner.py_clone(ir, part)

    def py_finalize(self, ir, part):
        return self.inner.py_finalize(ir, part)


class MapPyOp(AggOp):
    """Scalar-path adapter for MAP inputs: IR = {map_key: inner IR}; each
    event value is a list of (key, value) entries, null entry values
    skipped (reference MapColumnAggregator.scala:29-75). Map keys are
    str-canonical, matching the snapshot path."""

    def __init__(self, inner: AggOp):
        self.inner = inner
        self.needs_ts = inner.needs_ts

    def py_update(self, ir, v, ts, part):
        if v is None:
            return ir
        if ir is None:
            ir = {}
        for mk, mv in v:
            if mv is None or (isinstance(mv, float) and np.isnan(mv)):
                continue
            k = str(mk)
            ir[k] = self.inner.py_update(ir.get(k), mv, ts, part)
        return ir

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        out = dict(a)
        for k, v in b.items():
            out[k] = self.inner.py_merge(out.get(k), v, part)
        return out

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return {k: self.inner.py_clone(v, part) for k, v in ir.items()}

    def py_finalize(self, ir, part):
        return sorted((k, self.inner.py_finalize(v, part))
                      for k, v in ir.items())


def _family(part: AggregationPart) -> str:
    """Kernel family of a part over a non-map input."""
    if part.bucket is not None:
        return "sawtooth"
    if part.operation in _PREFIX_OPS:
        return "prefix"
    if part.operation in _SLICE_OPS:
        return "slice"
    if part.operation == Operation.UNIQUE_COUNT:
        return "distinct"
    return "sawtooth"


class TemporalPartition:
    """Processes one co-partitioned group of tagged query+event rows."""

    def __init__(self, keys: Sequence[str], parts: list[AggregationPart],
                 right_schema: pa.Schema, left_cols: list[str],
                 tie_break: Optional[str] = None, daily: bool = False,
                 exact: bool = False):
        self.__name__ = type(self).__name__
        self.daily = daily  # SNAPSHOT accuracy → DailyResolution hops
        self.exact = exact  # per-event windows, no sawtooth tail rounding
        if exact and daily:
            raise ValueError("exact windows and daily (snapshot) accuracy "
                             "are mutually exclusive")
        self.keys = list(keys)
        self.parts = parts
        self.right_schema = right_schema
        self.left_cols = left_cols  # passthrough output columns incl. keys+ts
        self.tie_break = tie_break
        self.out_fields = []
        self._map_part_idx: set = set()  # map-input parts → sawtooth family
        for i, p in enumerate(parts):
            in_type = right_schema.field(p.input_column).type
            if pa.types.is_map(in_type):
                if p.bucket is not None:
                    raise NotImplementedError(
                        "bucketing over map columns is unsupported "
                        "(reference ColumnAggregator.scala:188)")
                self._map_part_idx.add(i)
                base = OPS[p.operation].output_arrow_type(in_type.item_type, p)
                self.out_fields.append(
                    pa.field(p.output_name, pa.map_(pa.string(), base)))
                continue
            explode = (pa.types.is_list(in_type) or pa.types.is_large_list(in_type)) \
                and (p.operation in _PREFIX_OPS
                     or (p.bucket is None and p.operation in _SAW_EXPLODE_OPS))
            el_type = in_type.value_type if explode else in_type
            base = OPS[p.operation].output_arrow_type(el_type, replace(p, bucket=None))
            t = pa.map_(pa.string(), base) if p.bucket is not None else base
            self.out_fields.append(pa.field(p.output_name, t))
        self._fams = ["sawtooth" if i in self._map_part_idx
                      else _family(p)
                      for i, p in enumerate(parts)]

    # ------------------------------------------------------------------

    def join(self, q_tbl: pa.Table, e_tbl: pa.Table) -> pa.Table:
        """Features of the queries ``q_tbl`` (keys, ts and ``left_cols``)
        over the events ``e_tbl`` of the same partition. Output rows are
        the queries sorted by (key, ts): ``left_cols``, then one column
        per part."""
        nq = len(q_tbl)
        if nq == 0:
            return pa.table({
                **{c: q_tbl[c] for c in self.left_cols},
                **{f.name: pa.nulls(0, f.type) for f in self.out_fields},
            })

        # ---- unified key codes over queries + events
        if len(self.keys) == 1:
            kq = q_tbl[self.keys[0]].to_pandas()
            ke = e_tbl[self.keys[0]].to_pandas()
            codes_all, _ = pd.factorize(pd.concat([kq, ke], ignore_index=True),
                                        use_na_sentinel=False)
        else:
            kq = q_tbl.select(self.keys).to_pandas()
            ke = e_tbl.select(self.keys).to_pandas()
            idx = pd.MultiIndex.from_frame(pd.concat([kq, ke], ignore_index=True))
            codes_all, _ = idx.factorize(use_na_sentinel=False)
        codes_all = codes_all.astype(np.int64)
        q_key = codes_all[:nq]
        e_key = codes_all[nq:]

        q_ts = q_tbl["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        e_ts = e_tbl["ts"].to_numpy(zero_copy_only=False).astype(np.int64)

        # ---- sort events by (key, ts, tie_break); queries by (key, ts)
        if self.tie_break and self.tie_break in e_tbl.column_names:
            tb = e_tbl[self.tie_break].to_numpy(zero_copy_only=False)
            e_perm = np.lexsort((tb, e_ts, e_key))
        else:
            e_perm = np.lexsort((e_ts, e_key))
        e_key = e_key[e_perm]
        e_ts = e_ts[e_perm]
        e_tbl = e_tbl.take(pa.array(e_perm))
        q_perm = np.lexsort((q_ts, q_key))
        q_key = q_key[q_perm]
        q_ts = q_ts[q_perm]
        q_tbl = q_tbl.take(pa.array(q_perm))

        # ---- composite (key, ts) encoding for one-shot searchsorted
        base_ts = int(min(e_ts.min() if len(e_ts) else q_ts.min(), q_ts.min()))
        max_rel = int(max((e_ts.max() if len(e_ts) else base_ts), q_ts.max())) - base_ts
        shift = 1 << (max_rel + 2).bit_length()
        n_keys = int(codes_all.max()) + 1
        if n_keys * shift >= (1 << 63):
            raise ValueError(
                "partition too wide for composite encoding; raise num_partitions"
            )
        comp_e = e_key * shift + (e_ts - base_ts)
        head_idx = np.searchsorted(comp_e, q_key * shift + (q_ts - base_ts), side="left")

        def tail_index(window: Window) -> np.ndarray:
            if window.unbounded:
                return np.searchsorted(comp_e, q_key * shift, side="left")
            if self.exact:  # per-event window start, no hop rounding
                tail_ts = q_ts - window.millis
            else:
                tail_ts = window_tail(q_ts, window, self.daily)
            rel = np.clip(tail_ts - base_ts, 0, None)
            return np.searchsorted(comp_e, q_key * shift + rel, side="left")

        # ---- per-part feature computation
        feature_arrays: dict[str, pa.Array] = {}
        saw_parts = [(i, p) for i, p in enumerate(self.parts)
                     if self._fams[i] == "sawtooth"]
        for i, p in enumerate(self.parts):
            fam = self._fams[i]
            if fam == "prefix":
                feature_arrays[p.output_name] = self._prefix_feature(
                    p, e_tbl, head_idx, tail_index, self.out_fields[i].type)
            elif fam == "slice":
                feature_arrays[p.output_name] = self._slice_feature(
                    p, e_tbl, head_idx, tail_index, self.out_fields[i].type)
            elif fam == "distinct":
                feature_arrays[p.output_name] = self._distinct_feature(
                    p, e_tbl, head_idx, tail_index(p.window))
        if saw_parts:
            saw = self._sawtooth_features(saw_parts, e_tbl, e_key, e_ts, q_key, q_ts)
            feature_arrays.update(saw)

        cols = {c: q_tbl[c] for c in self.left_cols}
        for f in self.out_fields:
            cols[f.name] = feature_arrays[f.name]
        return pa.table(cols)

    # ------------------------------------------------------------ prefix

    def _event_moments(self, p: AggregationPart, e_tbl: pa.Table, n_moments: int):
        """Per-event contributions (n_i, s1_i..sk_i) with list auto-explode."""
        col = e_tbl[p.input_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ne = len(col)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            lengths = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat = col.flatten()
            fv = flat.to_numpy(zero_copy_only=False).astype(np.float64)
            fnull = ~pc.is_valid(flat).to_numpy(zero_copy_only=False)
            fv = np.where(fnull, 0.0, fv)
            offs = np.zeros(ne + 1, dtype=np.int64)
            np.cumsum(lengths, out=offs[1:])
            cs_null = np.concatenate([[0], np.cumsum(fnull.astype(np.int64))])
            n_i = lengths - (cs_null[offs[1:]] - cs_null[offs[:-1]])
            moments = []
            powv = np.ones_like(fv)
            for k in range(1, n_moments + 1):
                powv = powv * fv
                cs = np.concatenate([[0.0], np.cumsum(powv)])
                moments.append(cs[offs[1:]] - cs[offs[:-1]])
            return n_i.astype(np.float64), moments
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        v = col.to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.where(valid, v, 0.0)
        n_i = valid.astype(np.float64)
        moments = []
        powv = np.ones_like(v)
        for k in range(1, n_moments + 1):
            powv = powv * v
            moments.append(np.where(valid, powv, 0.0))
        return n_i, moments

    def _prefix_moments(self, p: AggregationPart, e_tbl, head_idx, tail_index):
        nm = _MOMENTS_NEEDED[p.operation]
        n_i, moments = self._event_moments(p, e_tbl, nm)
        l = tail_index(p.window)
        r = head_idx
        cn = np.concatenate([[0.0], np.cumsum(n_i)])
        n = cn[r] - cn[l]
        s = []
        for m in moments:
            cs = np.concatenate([[0.0], np.cumsum(m)])
            s.append(cs[r] - cs[l])
        return n, s

    def _prefix_feature(self, p: AggregationPart, e_tbl, head_idx, tail_index,
                        out_type) -> pa.Array:
        n, s = self._prefix_moments(p, e_tbl, head_idx, tail_index)
        empty = n == 0
        with np.errstate(invalid="ignore", divide="ignore"):
            if p.operation == Operation.COUNT:
                out = n
            elif p.operation == Operation.SUM:
                out = s[0]
            elif p.operation == Operation.AVERAGE:
                out = s[0] / n
            elif p.operation == Operation.VARIANCE:
                out = (s[1] - s[0] * s[0] / n) / n
                out = np.maximum(out, 0.0)
            elif p.operation == Operation.SKEW:
                mean = s[0] / n
                m2 = s[1] - n * mean**2
                m3 = s[2] - 3 * mean * s[1] + 2 * n * mean**3
                out = np.sqrt(n) * m3 / np.power(m2, 1.5)
                out = np.where((n < 3) | (m2 <= 0), np.nan, out)
                empty = empty | (n < 3)
            elif p.operation == Operation.KURTOSIS:
                mean = s[0] / n
                m2 = s[1] - n * mean**2
                m4 = s[3] - 4 * mean * s[2] + 6 * mean**2 * s[1] - 3 * n * mean**4
                out = n * m4 / (m2 * m2) - 3.0
                out = np.where((n < 4) | (m2 <= 0), np.nan, out)
                empty = empty | (n < 4)
            else:  # pragma: no cover
                raise KeyError(p.operation)
        mask = empty
        arr = pa.array(np.where(mask, 0, out), mask=mask)
        return arr.cast(out_type, safe=False)

    # ------------------------------------------------------------- slice

    def _slice_feature(self, p: AggregationPart, e_tbl, head_idx, tail_index,
                       out_type) -> pa.Array:
        col = e_tbl[p.input_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        nn_pos = np.flatnonzero(valid)
        l = tail_index(p.window)
        r = head_idx
        j_l = np.searchsorted(nn_pos, l, side="left")
        j_r = np.searchsorted(nn_pos, r, side="left")
        have = j_r > j_l
        op = p.operation
        if op in (Operation.FIRST, Operation.LAST):
            if len(nn_pos) == 0:
                return pa.nulls(len(have), col.type).cast(out_type, safe=False)
            if op == Operation.FIRST:
                pos = nn_pos[np.minimum(j_l, len(nn_pos) - 1)]
            else:
                pos = nn_pos[np.clip(j_r - 1, 0, len(nn_pos) - 1)]
            taken = col.take(pa.array(np.where(have, pos, 0).astype(np.int64)))
            if (~have).any():
                taken = pc.if_else(pa.array(have), taken, pa.nulls(len(have), col.type))
            return taken
        # FIRST_K / LAST_K
        k = p.get_int("k")
        lens = np.minimum(j_r - j_l, k)
        lens = np.where(have, lens, 0)
        offs = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        total = int(offs[-1])
        within = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens)
        if op == Operation.LAST_K:
            # most-recent first (reference LastK finalize: ts-descending)
            j = np.repeat(j_r - 1, lens) - within
        else:
            j = np.repeat(j_l, lens) + within
        flat_idx = nn_pos[j] if len(nn_pos) else np.array([], dtype=np.int64)
        inner = col.take(pa.array(flat_idx))
        mask = ~have
        list_arr = pa.LargeListArray.from_arrays(
            pa.array(offs, type=pa.int64()), inner,
            mask=pa.array(mask) if mask.any() else None)
        return list_arr.cast(out_type, safe=False) if list_arr.type != out_type else list_arr

    # ---------------------------------------------------------- distinct

    def _distinct_feature(self, p: AggregationPart, e_tbl, head_idx,
                          tail_idx) -> pa.Array:
        """Exact UNIQUE_COUNT of every query's event range [L, R) =
        [tail_idx, head_idx) in one sweep. An element at event position e
        whose value last occurred at position prev (−1 if never) counts
        for query q iff prev < L_q ≤ e < R_q. L and R never decrease over
        the (key, ts)-sorted queries, so those q form one index range, and
        a difference array sums all the ranges. A prev in an earlier key
        lies below every L of e's key, so value codes need no key.

        Null elements are dropped, and NaN list elements as in VectorPyOp;
        a NaN scalar counts as one value and −0.0 as 0.0 (Python set,
        pandas and SQL ``count(distinct)`` alike). An empty window, or one
        with no countable element, gives null."""
        col = e_tbl[p.input_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        nq = len(head_idx)
        is_list = pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
        if is_list:
            # list_parent_indices would also count the values under null
            # lists; list_flatten skips them, so repeat the valid lengths
            lens = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False)
            pos = np.repeat(np.arange(len(col), dtype=np.int64), lens)
            vals = pc.list_flatten(col)
        else:
            pos = np.arange(len(col), dtype=np.int64)
            vals = col
        if pa.types.is_dictionary(vals.type):
            vals = vals.cast(vals.type.value_type)
        keep = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        if pa.types.is_floating(vals.type):
            if is_list:
                keep &= ~np.isnan(vals.to_numpy(zero_copy_only=False))
            # Arrow encodes −0.0 apart from 0.0; float64 holds every float
            vals = pc.add(vals.cast(pa.float64()), 0.0)
        pos = pos[keep]
        if len(pos) == 0:
            return pa.nulls(nq, pa.int64())
        codes = vals.filter(pa.array(keep)).dictionary_encode().indices \
            .to_numpy(zero_copy_only=False)
        # stable: each value's positions stay ascending
        order = np.argsort(codes, kind="stable")
        codes, e = codes[order], pos[order]
        prev = np.full(len(e), -1, dtype=np.int64)
        same = codes[1:] == codes[:-1]
        prev[1:][same] = e[:-1][same]
        lo = np.maximum(np.searchsorted(head_idx, e, side="right"),
                        np.searchsorted(tail_idx, prev, side="right"))
        hi = np.searchsorted(tail_idx, e, side="right")
        ok = lo < hi
        diff = np.bincount(lo[ok], minlength=nq + 1) \
            - np.bincount(hi[ok], minlength=nq + 1)
        counts = np.cumsum(diff[:nq])
        return pa.array(counts, type=pa.int64(), mask=counts == 0)

    # ---------------------------------------------------------- sawtooth

    def _prebuild_hops(self, saw_parts, e_tbl, e_key, e_ts, col_values):
        """Vectorized per-(key, hop) partial IRs for eligible sawtooth parts
        — replaces the per-event python loop in _build_hops with one grouped
        partial() call per part (the HopsAggregator partial+final pattern,
        reference HopsAggregator.scala:33-165, done columnar)."""
        prebuilt: dict[int, dict] = {}  # part index -> key_code -> (starts, irs)
        _PREBUILDABLE = (Operation.MIN, Operation.MAX,
                         Operation.UNIQUE_COUNT, Operation.HISTOGRAM,
                         Operation.APPROX_HISTOGRAM_K,
                         Operation.APPROX_UNIQUE_COUNT,
                         Operation.APPROX_PERCENTILE,
                         Operation.TOP_K, Operation.BOTTOM_K,
                         Operation.SUM, Operation.COUNT, Operation.AVERAGE,
                         Operation.VARIANCE, Operation.SKEW,
                         Operation.KURTOSIS,
                         Operation.FIRST, Operation.LAST,
                         Operation.FIRST_K, Operation.LAST_K)
        for i, p in saw_parts:
            if p.window.unbounded:
                continue
            if p.operation not in _PREBUILDABLE:
                continue
            op = OPS[p.operation]
            if op.needs_ts and self.tie_break:
                # prebuilt hop IRs can't carry the tie-break ordering
                continue
            from ..windowing.resolution import tail_hop_millis as _thm

            hop = _thm(p.window, self.daily)
            if p.input_column in e_tbl.column_names and pa.types.is_map(
                    e_tbl.schema.field(p.input_column).type):
                # map parts build hops in the py path (MapPyOp per event) —
                # the grouped partial has no per-map-key dispatch here
                continue
            bcodes = buniq = None
            exploded = False
            if p.bucket is None:
                vals, valid, exploded = col_values(p)
            else:
                # raw values + factorized bucket labels — the grouped
                # partial runs at (key, hop, bucket) granularity and the
                # dicts are reassembled per (key, hop)
                vals, valid, _ = col_values(replace(p, bucket=None),
                                            allow_explode=False)
                bcol = e_tbl[p.bucket]
                if isinstance(bcol, pa.ChunkedArray):
                    bcol = bcol.combine_chunks()
                valid = valid & pc.is_valid(bcol).to_numpy(zero_copy_only=False)
                bser = bcol.to_pandas()
                bcodes_all, buniq = pd.factorize(bser, use_na_sentinel=False)
                bcodes = bcodes_all.astype(np.int64)
            if not valid.any():
                prebuilt[i] = {}
                continue
            ek = e_key[valid]
            ets = e_ts[valid]
            v = vals[valid]
            if exploded:
                # list input → per-element rows (null elements dropped),
                # repeating the key/ts of the carrying event
                lens = np.fromiter(
                    (0 if lst is None else len(lst) for lst in v),
                    dtype=np.int64, count=len(v))
                rep = np.repeat(np.arange(len(v)), lens)
                flat: list = [e for lst in v if lst is not None for e in lst]
                el_ok = np.fromiter(
                    (e is not None
                     and not (isinstance(e, float) and np.isnan(e))
                     for e in flat), dtype=bool, count=len(flat))
                fv = np.empty(len(flat), dtype=object)
                fv[:] = flat
                ek, ets, v = ek[rep][el_ok], ets[rep][el_ok], fv[el_ok]
                if len(ek) == 0:
                    prebuilt[i] = {}
                    continue
            hop_id = ets // hop
            mn = int(hop_id.min())
            span = int(hop_id.max()) - mn + 1
            comp = ek * span + (hop_id - mn)
            if p.bucket is not None:
                nb = len(buniq)
                comp = comp * nb + bcodes[valid]
            uniq, inv = np.unique(comp, return_inverse=True)
            df = pd.DataFrame({"g": inv, "v": v})
            if op.needs_ts:
                df["ts"] = ets
            frame = op.partial(df, len(uniq), replace(p, bucket=None))
            irs_all = [None] * len(uniq)
            # column-wise IR extraction — iterrows builds a Series per row
            # and dominated this loop's profile
            gcol = frame["g"].to_numpy()
            ir_lists = {c: frame[c].tolist()
                        for c in frame.columns if c != "g"}
            for j in range(len(frame)):
                rec = {c: lst[j] for c, lst in ir_lists.items()}
                irs_all[int(gcol[j])] = ir_rec_to_py(p, op, rec)
            if p.bucket is not None:
                # collapse (key, hop, bucket) rows → per-(key, hop) dicts
                nb = len(buniq)
                kh_of = (uniq // nb).astype(np.int64)
                b_of = (uniq % nb).astype(np.int64)
                kh_uniq, kh_inv = np.unique(kh_of, return_inverse=True)
                dicts: list[dict] = [dict() for _ in range(len(kh_uniq))]
                for j in range(len(uniq)):
                    dicts[int(kh_inv[j])][buniq[b_of[j]]] = irs_all[j]
                uniq = kh_uniq
                irs_all = dicts
            keys_of = (uniq // span).astype(np.int64)
            starts_of = ((uniq % span) + mn) * hop
            by_key: dict[int, tuple] = {}
            kb = np.flatnonzero(np.diff(keys_of)) + 1
            bounds = np.concatenate([[0], kb, [len(uniq)]])
            for bi in range(len(bounds) - 1):
                a, b = int(bounds[bi]), int(bounds[bi + 1])
                by_key[int(keys_of[a])] = (starts_of[a:b],
                                           [irs_all[j] for j in range(a, b)])
            prebuilt[i] = by_key
        return prebuilt

    def _sawtooth_features(self, saw_parts, e_tbl: pa.Table, e_key, e_ts, q_key,
                           q_ts):
        nq = len(q_key)
        results: dict[str, list] = {self.parts[i].output_name: [None] * nq
                                    for i, _ in saw_parts}
        # prepare per-part value accessors (nulls filtered per key slice later)
        col_cache: dict[str, Any] = {}

        def col_values(p: AggregationPart, allow_explode: bool = True,
                       with_tb: bool = False):
            """Returns (vals, valid, exploded). exploded=True means vals is
            an object array of per-row element lists — consumers must apply
            per-element updates (VectorPyOp / exploded hop partials).
            with_tb=True (bucketed slice parts under tie_break) zips each
            value with its tie-break cell: (bucket, (value, tb)) pairs for
            TieBreakSliceOp."""
            key = (p.input_column, p.bucket, with_tb)
            if key in col_cache:
                return col_cache[key]
            col = e_tbl[p.input_column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if pa.types.is_map(col.type):
                # per-row entry lists; MapPyOp applies per-map-key updates
                # (reference MapColumnAggregator) — mode marker "map"
                valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
                pylist = col.to_pylist()
                vals = np.empty(len(pylist), dtype=object)
                vals[:] = pylist
                col_cache[key] = (vals, valid, "map")
                return col_cache[key]
            if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
                if (allow_explode and p.bucket is None
                        and p.operation in _SAW_EXPLODE_OPS):
                    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
                    pylist = col.to_pylist()
                    vals = np.empty(len(pylist), dtype=object)
                    vals[:] = pylist
                    col_cache[key] = (vals, valid, True)
                    return col_cache[key]
                raise NotImplementedError(
                    f"temporal sawtooth aggregation over list column "
                    f"{p.input_column!r} ({p.operation.name}): list "
                    "auto-explode covers un-bucketed "
                    "MIN/MAX/UNIQUE_COUNT/HISTOGRAM/TOP_K/sketch ops — "
                    "pre-explode the column or aggregate at snapshot "
                    "granularity")
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            if pa.types.is_floating(col.type) or pa.types.is_integer(col.type):
                if pa.types.is_integer(col.type) and col.null_count:
                    # nulls promote to_numpy to float64, splitting the
                    # HISTOGRAM-family stringified key space ('5' vs '5.0')
                    # and changing MIN/MAX output dtype; fill-then-convert —
                    # consumers mask by `valid` so the filler is never read
                    col = pc.fill_null(col, 0)
                vals = col.to_numpy(zero_copy_only=False)
            else:
                vals = np.asarray(col.to_pylist(), dtype=object)
            if with_tb:
                tbvals = e_tbl[self.tie_break].to_pylist()
                pairs = np.empty(len(tbvals), dtype=object)
                pairs[:] = list(zip(vals, tbvals))
                vals = pairs
            if p.bucket is not None:
                bcol = e_tbl[p.bucket]
                bvalid = pc.is_valid(bcol).to_numpy(zero_copy_only=False)
                valid = valid & bvalid
                bvals = np.asarray(bcol.to_pylist(), dtype=object)
                vals = np.array(list(zip(bvals, vals)), dtype=object)
            col_cache[key] = (vals, valid, False)
            return col_cache[key]

        prebuilt = {} if self.exact else self._prebuild_hops(
            saw_parts, e_tbl, e_key, e_ts, col_values)

        # iterate keys that have queries
        q_bounds = np.flatnonzero(np.diff(q_key)) + 1
        q_starts = np.concatenate([[0], q_bounds, [nq]])
        ne = len(e_key)
        from ..windowing.resolution import tail_hop_millis as _thm

        for s_i in range(len(q_starts) - 1):
            a, b = q_starts[s_i], q_starts[s_i + 1]
            kcode = q_key[a]
            e_a = np.searchsorted(e_key, kcode, side="left")
            e_b = np.searchsorted(e_key, kcode, side="right")
            qts = q_ts[a:b]
            for i, p in saw_parts:
                use_tb = bool(self.tie_break
                              and self.tie_break in e_tbl.column_names
                              and p.bucket is not None
                              and p.operation in _SLICE_OPS)
                vals, valid, exploded = col_values(p, with_tb=use_tb)
                vmask = valid[e_a:e_b]
                ets = e_ts[e_a:e_b][vmask]
                evs = vals[e_a:e_b][vmask]
                inner = OPS[p.operation]
                if use_tb:
                    op = BucketedPyOp(TieBreakSliceOp(inner))
                elif p.bucket is not None:
                    op = BucketedPyOp(inner)
                elif exploded == "map":
                    op = MapPyOp(inner)
                elif exploded:
                    op = VectorPyOp(inner)
                else:
                    op = inner
                cache: dict = {}
                if i in prebuilt:
                    pre = prebuilt[i].get(int(kcode))
                    if pre is not None:
                        cache[_thm(p.window, self.daily)] = pre
                    elif len(ets) == 0:
                        cache[_thm(p.window, self.daily)] = (
                            np.array([], dtype=np.int64), [])
                res = sawtooth_one_key(op, replace(p, bucket=None), p.window,
                                       ets, evs, qts, hops_cache=cache,
                                       daily=self.daily, exact=self.exact)
                out_list = results[p.output_name]
                for t, v in enumerate(res):
                    out_list[a + t] = v
        out: dict[str, pa.Array] = {}
        for i, p in saw_parts:
            out[p.output_name] = pa.array(results[p.output_name],
                                          type=self.out_fields[i].type)
        return out


def pruned_events_schema(conf: GroupByConf,
                         right_schema: pa.Schema) -> pa.Schema:
    """The event columns ``conf``'s aggregation reads, in event-schema
    order — only these pay the shuffle (a 'tokens' payload no part
    references must not cross the exchange). Raises on a part the
    temporal kernel cannot compute over a map input column."""
    from ..aggregators.row import _MAP_OPS
    from ..sources import groupby_columns

    for p in conf.parts():
        if p.input_column in right_schema.names and pa.types.is_map(
                right_schema.field(p.input_column).type):
            if p.operation not in _MAP_OPS:
                raise NotImplementedError(
                    f"{p.operation.name} over a map input column is not "
                    "supported in temporal_join (map-key dispatch covers "
                    "SUM/COUNT/AVERAGE/VARIANCE/SKEW/KURTOSIS/MIN/MAX/"
                    "UNIQUE_COUNT)")
            if p.bucket is not None:
                raise NotImplementedError(
                    "bucketing over map columns is unsupported "
                    "(reference ColumnAggregator.scala:188)")
    needed = groupby_columns(conf)
    return pa.schema([f for f in right_schema if f.name in needed])


def temporal_join(
    left_ds: ray.data.Dataset,
    right_ds: ray.data.Dataset,
    conf: GroupByConf,
    num_partitions: Optional[int] = DEFAULT_NUM_PARTITIONS,
    left_schema: Optional[pa.Schema] = None,
    right_schema: Optional[pa.Schema] = None,
    exact_windows: bool = False,
) -> ray.data.Dataset:
    """left (key, ts, ...) ⟕ windowed aggregates of right events, PITC:
    the left columns in left-schema order, then one column per part. A
    one-part ``join_step`` (``pipelines/join_step.py``), so a SNAPSHOT
    ``conf.accuracy`` asks at the row's day boundary with daily hops, as
    in ``compute_join``.

    ``left_schema``/``right_schema`` declare the inputs' schemas when
    their plans lost them (``util.dataset_schema``).

    ``num_partitions=None`` auto-sizes the exchange from the inputs'
    metadata (``util.auto_partitions``) so partition memory stays bounded
    at any input scale.

    ``exact_windows=True`` computes per-event exact windows [q.ts - w, q.ts)
    instead of the reference's sawtooth (hop-rounded tail) semantics —
    prefix/slice/distinct families are exact via raw-ts searchsorted, the
    rest via a per-event TwoStack sweep (TwoStackLiteAggregator at event
    granularity). Strictly more work than sawtooth; incompatible with
    SNAPSHOT accuracy."""
    from ..util import dataset_schema, map_typed, with_schema
    from .join_step import StepPart, join_step

    if left_schema is not None:
        left_ds = with_schema(left_ds, left_schema)
    if right_schema is not None:
        right_ds = with_schema(right_ds, right_schema)
    if num_partitions is None:
        from ..util import auto_partitions

        num_partitions = auto_partitions(left_ds, right_ds)
    left_names = dataset_schema(left_ds).names
    out = join_step(left_ds, conf.key_columns,
                    [StepPart("", conf, right_ds, True, exact=exact_windows)],
                    num_partitions)
    # join_step puts the keys and ts first and ends with its FIRST flag
    order = (*left_names, *dataset_schema(out).names[len(left_names):-1])
    return map_typed(out, lambda t, cols=order: t.select(list(cols)))


def ir_rec_to_py(p: AggregationPart, op: AggOp, row):
    """Grouped-path partial IR row (dict/rec of this op's unprefixed IR
    columns) → scalar py IR. Generic over every op — shared by the hop
    prebuild and the FinalBatchIr upload/serve path."""
    o = p.operation
    if o in (Operation.MIN, Operation.MAX):
        return row["x"]
    if o == Operation.UNIQUE_COUNT:
        u = row["uniq"]
        return one_nan(set(u.tolist() if isinstance(u, np.ndarray) else u))
    if o == Operation.HISTOGRAM:
        h = row["hist"]
        return dict(h)
    if o == Operation.APPROX_HISTOGRAM_K:
        from ..aggregators.sketches import MG

        return MG.deserialize(row["sketch"])
    if o == Operation.APPROX_UNIQUE_COUNT:
        from ..aggregators.sketches import HLL

        return HLL.deserialize(row["sketch"])
    if o == Operation.APPROX_PERCENTILE:
        from ..aggregators.sketches import KLL

        return KLL.deserialize(row["sketch"])
    if o in (Operation.TOP_K, Operation.BOTTOM_K):
        return [tuple(t) for t in row["items"]]
    # prefix-family inner ops reach here only via BUCKETED parts (plain
    # prefix parts take the vectorized moments path)
    if o == Operation.SUM:
        return float(row["s"])
    if o == Operation.COUNT:
        return int(row["n"])
    if o == Operation.AVERAGE:
        return (float(row["s"]), int(row["n"]))
    if o in (Operation.VARIANCE, Operation.SKEW, Operation.KURTOSIS):
        nm = {Operation.VARIANCE: 2, Operation.SKEW: 3,
              Operation.KURTOSIS: 4}[o]
        return (float(row["n"]), float(row["m1"]),
                *[float(row[f"m{k}"]) for k in range(2, nm + 1)])
    if o in (Operation.FIRST, Operation.LAST):
        return (row["ts"], row["payload"])
    if o in (Operation.FIRST_K, Operation.LAST_K):
        return [tuple(t) for t in row["items"]]
    raise KeyError(o)
