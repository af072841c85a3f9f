"""Hot-key skew handling for the temporal engine: salted re-splits.

A key holding a large fraction of events turns its hash partition into a
straggler (the reference only *excludes* declared skew keys —
api/Extensions.scala:950-1000; the north rule requires salted re-splits).
Plan:

    events(hot k)  → S salt shards, partitioned by hash(k, salt)
    queries(hot k) → replicated to all S shards with a unique _qid
    per shard: the SAME vectorized engine runs in **partial mode**, emitting
               mergeable per-query IRs instead of finalized values
               (prefix → power sums; first/last → (ts, payload);
               first_k/last_k → item lists; sawtooth → pickled op IR)
    second (tiny) shuffle on _qid: merge the S partials per query → finalize

Cold keys flow through the normal single-pass path; outputs are unioned.
The merge traffic is proportional to hot-key QUERIES (small), while hot-key
EVENT processing — the actual skew — is split S ways.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import AggregationPart, GroupByConf, Operation
from ..aggregators.ops import OPS
from .temporal import _MOMENTS_NEEDED, _family


def detect_hot_keys(
    right_ds: ray.data.Dataset,
    key,
    num_partitions: int,
    sample_frac: float = 0.05,
    factor: float = 3.0,
    max_sample: int = 500_000,
    min_hot_rows: int = 300_000,
) -> list:
    """Sample the event stream; keys holding more than ``factor / P`` of the
    sampled rows would dominate their partition → hot. (Analyzer-style
    heavy-hitter sampling — reference spark/Analyzer.scala:64-152.)

    ``key`` is one column name or a sequence of them; composite keys return
    a list of TUPLES (the shape _salted_temporal_join's hash probe expects).

    The default factor is deliberately high: salting pays a replication +
    double-scan + partial-merge tax, measured ~4x the plain path when skew is
    mild — it only wins when one key genuinely dominates a partition.

    NOTE: ``right_ds.count()`` below executes the (pruned) event pipeline
    once when the input carries transforms — an extra scan the 'auto' mode
    pays for skew safety; pass explicit hot_keys to skip it."""
    keys = [key] if isinstance(key, str) else list(key)
    # block-randomized limit(): touches only as many blocks as the sample
    # needs (random_sample would scan everything to throw 95% away), while
    # randomize_block_order defeats key-clustered layouts
    total = right_ds.count()
    if total == 0:
        return []
    n_sample = min(max_sample, max(10_000, int(total * sample_frac)))
    # randomize BLOCK order before the limit: a plain limit() reads only
    # the first blocks, so inputs sorted/clustered by key would misreport
    # the prefix keys as hot and miss truly hot keys elsewhere
    pdf = right_ds.select_columns(keys).randomize_block_order(seed=17) \
        .limit(n_sample).to_pandas()
    if len(pdf) == 0:
        return []
    counts = pdf[keys[0]].value_counts() if len(keys) == 1 \
        else pdf.groupby(keys, sort=False, dropna=True).size()
    frac = counts / len(pdf)
    est_rows = frac * total
    hot = frac[(frac > factor / num_partitions) & (est_rows >= min_hot_rows)]
    return hot.index.tolist()  # scalars for 1 key, tuples for composites


# ------------------------------------------------------- partial emission


def partial_fields(parts: list[AggregationPart], right_schema: pa.Schema,
                   tie_break: Optional[str] = None) -> list[pa.Field]:
    """Mergeable per-query partial columns for the salted two-stage path.
    With a tie_break column configured, slice-family partials also carry
    the winning row's tie-break value (`__tb` / parallel `__otb` list) so
    cross-shard equal-ts collisions resolve by (ts, tb), not by shard
    iteration order (reference TimedAggregators.scala:74-112)."""
    tb_type = right_schema.field(tie_break).type if tie_break else None
    fields: list[pa.Field] = []
    for p in parts:
        name = p.output_name
        fam = "sawtooth" if _is_map_input(p, right_schema) \
            else _family(p, partials=True)
        if fam == "prefix":
            nm = _MOMENTS_NEEDED[p.operation]
            fields.append(pa.field(f"{name}__n", pa.float64()))
            for k in range(1, nm + 1):
                fields.append(pa.field(f"{name}__s{k}", pa.float64()))
        elif fam == "slice":
            in_type = right_schema.field(p.input_column).type
            if p.operation in (Operation.FIRST, Operation.LAST):
                fields.append(pa.field(f"{name}__ts", pa.float64()))
                fields.append(pa.field(f"{name}__payload", in_type))
                if tb_type is not None:
                    fields.append(pa.field(f"{name}__tb", tb_type))
            else:
                fields.append(pa.field(f"{name}__o", pa.list_(pa.int64())))
                fields.append(pa.field(f"{name}__p", pa.list_(in_type)))
                if tb_type is not None:
                    fields.append(pa.field(f"{name}__otb",
                                           pa.list_(tb_type)))
        else:
            fields.append(pa.field(f"{name}__pkl", pa.binary()))
    return fields


def _is_map_input(p: AggregationPart, right_schema: pa.Schema) -> bool:
    """Map-input parts always take the pickled-IR family: their IR is a
    {map_key: inner IR} dict (MapPyOp), never power sums or slice slots —
    matching TemporalPartition._map_part_idx routing."""
    return (p.input_column in right_schema.names
            and pa.types.is_map(right_schema.field(p.input_column).type))


def _tb_ord(tb):
    """Null-safe tie-break ordering slot: (is_missing, value). Missing
    (None/NaN) sorts AFTER any real value in ascending order — the same
    nulls-last convention as pandas sort_values and np.lexsort, which the
    within-shard partial emitters use — and never enters a raw comparison
    with a real value (None < str raises in py3; NaN comparisons are
    order-inconsistent).

    TWO missing tie-breaks at the same timestamp compare equal, so the
    winner among them stays arrival-order-dependent — exactly as in the
    unsalted path, where it depends on input row order. The tie_break
    contract delivers full determinism only when tie-break values are
    present (or at most one is missing) per (key, ts) collision group."""
    missing = tb is None or (isinstance(tb, float) and tb != tb)
    return (True, None) if missing else (False, tb)


class SaltedMerge:
    """Second stage: all S partial rows of each _qid → one finalized row.
    Vectorized across queries for the prefix family (grouped sums + formula);
    scalar merges only for slice-K and sawtooth parts of hot queries."""

    def __init__(self, parts: list[AggregationPart], left_cols: list[str],
                 out_fields: list[pa.Field],
                 left_types: Optional[dict] = None,
                 tb_slice: bool = False,
                 map_parts: frozenset = frozenset()):
        self.__name__ = type(self).__name__
        self.parts = parts
        self.left_cols = left_cols
        self.out_fields = out_fields
        self.left_types = left_types or {}
        # True when the partial emitter wrapped bucketed slice parts in
        # TieBreakSliceOp (tie_break configured): the pickled IRs carry a
        # (ts, tb)-comparable key and must be merged by the same wrapper
        self.tb_slice = tb_slice
        # output names of map-INPUT parts: their pickled IRs are
        # {map_key: inner IR} dicts and merge through MapPyOp
        self.map_parts = map_parts

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        pdf = pdf.reset_index(drop=True)
        # query identity = (_qid_hi, _qid_lo) pair (collision-free by
        # construction); vectorized 2-column factorize
        pairs = np.stack([pdf["_qid_hi"].to_numpy(dtype=np.int64),
                          pdf["_qid_lo"].to_numpy(dtype=np.int64)], axis=1)
        _, first_occ, codes = np.unique(pairs, axis=0, return_index=True,
                                        return_inverse=True)
        ng = len(first_occ)
        first_idx = first_occ.astype(np.int64)  # documented first occurrence
        out_cols: dict[str, Any] = {}
        for c in self.left_cols:
            t = self.left_types.get(c)
            if t is not None:
                # cast back to the declared type: the pandas round-trip
                # degrades nullable ints to float64/NaN, which would make
                # the union with cold-path rows schema-mismatch
                out_cols[c] = pa.array(pdf[c].iloc[first_idx], type=t,
                                       from_pandas=True)
            else:
                out_cols[c] = pdf[c].to_numpy()[first_idx]
        for p, f in zip(self.parts, self.out_fields):
            name = p.output_name
            fam = "sawtooth" if name in self.map_parts \
                else _family(p, partials=True)
            op = OPS[p.operation]
            if fam == "prefix":
                nm = _MOMENTS_NEEDED[p.operation]
                n = pdf[f"{name}__n"].fillna(0).groupby(codes).sum().to_numpy()
                s = [pdf[f"{name}__s{k}"].fillna(0).groupby(codes).sum().to_numpy()
                     for k in range(1, nm + 1)]
                vals = _finalize_prefix(p.operation, n, s)
                mask = n == 0
                if p.operation == Operation.SKEW:
                    mask = mask | (n < 3)
                if p.operation == Operation.KURTOSIS:
                    mask = mask | (n < 4)
                arr = pa.array(np.where(mask, 0, vals), mask=mask)
                out_cols[name] = arr.cast(f.type, safe=False)
            elif fam == "slice" and p.operation in (Operation.FIRST, Operation.LAST):
                ts = pdf[f"{name}__ts"].to_numpy(dtype=float)
                pay = pdf[f"{name}__payload"]
                # (ts, tb) ordering when the partials carry a tie-break
                # slot — cross-shard equal-ts winners must match the
                # unsalted path's (ts, tie_break)-ascending contract
                tbv = pdf[f"{name}__tb"].to_numpy() \
                    if f"{name}__tb" in pdf.columns else None
                pick = np.full(ng, -1, dtype=np.int64)
                best: list = [None] * ng
                is_first = p.operation == Operation.FIRST
                for i, c in enumerate(codes):
                    t = ts[i]
                    if np.isnan(t):
                        continue
                    cand = (t, _tb_ord(tbv[i])) if tbv is not None else (t,)
                    if pick[c] < 0 or (cand < best[c] if is_first
                                       else cand > best[c]):
                        best[c] = cand
                        pick[c] = i
                vals = [None if j < 0 else pay.iloc[j] for j in pick]
                out_cols[name] = pa.array([_np2py(v) for v in vals], type=f.type)
            elif fam == "slice":
                k = p.get_int("k")
                desc = p.operation == Operation.LAST_K
                merged: list = [None] * ng
                o_col, p_col = pdf[f"{name}__o"], pdf[f"{name}__p"]
                otb_col = pdf[f"{name}__otb"] \
                    if f"{name}__otb" in pdf.columns else None
                for i, c in enumerate(codes):
                    o = o_col.iloc[i]
                    if o is None or (isinstance(o, float) and np.isnan(o)):
                        continue
                    if otb_col is not None:
                        items = list(zip(
                            _aslist(o),
                            [_tb_ord(x) for x in _aslist(otb_col.iloc[i])],
                            _aslist(p_col.iloc[i])))
                    else:
                        items = list(zip(_aslist(o), _aslist(p_col.iloc[i])))
                    merged[c] = items if merged[c] is None else merged[c] + items
                vals = []
                for m in merged:
                    if m is None:
                        vals.append(None)
                    else:
                        # key = (ts[, tb]); payload is always the last slot
                        m.sort(key=lambda t: t[:-1], reverse=desc)
                        vals.append([_np2py(t[-1]) for t in m[:k]])
                out_cols[name] = pa.array(vals, type=f.type)
            else:
                from .temporal import BucketedPyOp, MapPyOp, TieBreakSliceOp

                if name in self.map_parts:
                    pop = MapPyOp(op)
                elif (self.tb_slice and p.bucket is not None
                        and p.operation in (Operation.FIRST, Operation.LAST,
                                            Operation.FIRST_K,
                                            Operation.LAST_K)):
                    pop = BucketedPyOp(TieBreakSliceOp(op))
                elif p.bucket is not None:
                    pop = BucketedPyOp(op)
                else:
                    pop = op
                irs: list = [None] * ng
                col = pdf[f"{name}__pkl"]
                from dataclasses import replace as _rep

                p0 = _rep(p, bucket=None)
                for i, c in enumerate(codes):
                    b = col.iloc[i]
                    if b is None or (isinstance(b, float) and np.isnan(b)):
                        continue
                    irs[c] = pop.py_merge(irs[c], pickle.loads(b), p0)
                vals = [None if ir is None else pop.py_finalize(ir, p0) for ir in irs]
                out_cols[name] = pa.array(vals, type=f.type)
        return pa.table(out_cols)


def _finalize_prefix(op: Operation, n: np.ndarray, s: list[np.ndarray]) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        if op == Operation.COUNT:
            return n
        if op == Operation.SUM:
            return s[0]
        if op == Operation.AVERAGE:
            return s[0] / n
        if op == Operation.VARIANCE:
            return np.maximum((s[1] - s[0] * s[0] / n) / n, 0.0)
        mean = s[0] / n
        m2 = s[1] - n * mean**2
        if op == Operation.SKEW:
            m3 = s[2] - 3 * mean * s[1] + 2 * n * mean**3
            out = np.sqrt(n) * m3 / np.power(m2, 1.5)
            return np.where((n < 3) | (m2 <= 0), np.nan, out)
        m4 = s[3] - 4 * mean * s[2] + 6 * mean**2 * s[1] - 3 * n * mean**4
        out = n * m4 / (m2 * m2) - 3.0
        return np.where((n < 4) | (m2 <= 0), np.nan, out)


def _np2py(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, np.generic):
        return v.item()
    return v


def _aslist(v):
    return v.tolist() if isinstance(v, np.ndarray) else list(v)
