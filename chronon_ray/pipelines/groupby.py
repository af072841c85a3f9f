"""Snapshot GroupBy: partial-aggregate per batch, shuffle partials, merge+finalize.

The physical pattern mirrors the reference's `aggregateByKey(init)(seqOp,
combOp)` (reference: spark/GroupBy.scala:128-133, 364-378) as the classic Ray
Data combiner: a stateless `map_batches` stage computes one IR row per key per
batch (vectorized pandas/numpy via RowAggregator), carrying the canonical
64-bit hash of its keys as the route column ``_route``; ONE co-partition
(``pipelines/copartition.py``) on ``_route`` co-locates every partial of a
key, and one kernel per partition merges them **vectorized across keys** (no
per-key python call) and finalizes. Only the small partial-IR rows cross the
shuffle — the raw input never does.

Bucketed aggregations (map output per bucket value — reference
aggregator/row/BucketedColumnAggregator.scala:1-94) compute their partials at
(keys + bucket) granularity, routed by hash(keys) only: each granularity is
one side of the same co-partition, and the kernel pivots each bucket to a map
column and outer-merges the granularities on the keys. A bucketed GroupBy is
one exchange, like a plain one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..api import AggregationPart, GroupByConf
from ..aggregators.row import RowAggregator

DEFAULT_NUM_PARTITIONS = 200
_ROUTE = "_route"  # a snapshot partial's canonical key hash


def stable_key_hash(df: pd.DataFrame, keys: Sequence[str]) -> np.ndarray:
    """Deterministic 64-bit hash of the key columns (process-independent —
    pandas hash_pandas_object uses a fixed siphash key). The explicit analog
    of the reference's murmur3 KeyWithHash (spark/FastHashing.scala:44-119)."""
    h = pd.util.hash_pandas_object(df[list(keys)], index=False).to_numpy()
    return h


def canon_key_table(t: pa.Table, keys, types_by_name) -> pa.Table:
    """Key columns cast to the UNION field types, with int nulls parked on
    a sentinel so the pandas conversion keeps a stable int64 dtype — both
    sides of a co-partition MUST hash identical representations (a raw
    float64 left key vs int64 event key would land in different
    partitions and silently produce all-null features)."""
    import pyarrow.compute as pc

    cols = {}
    for k in keys:
        c = t[k]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        ft = types_by_name[k]
        if c.type != ft:
            c = pc.cast(c, ft)
        if pa.types.is_integer(c.type) and c.null_count:
            sent = np.iinfo(c.type.to_pandas_dtype()).min + 1
            c = pc.fill_null(c, pa.scalar(sent, type=c.type))
        elif pa.types.is_boolean(c.type) and c.null_count:
            # bool-with-null promotes to object dtype in pandas and
            # hash(True as object) != hash(True as bool) — fill so every
            # block hashes the same dtype (null routes like False; a
            # routing collision is harmless)
            c = pc.fill_null(c, False)
        cols[k] = c
    return pa.table(cols)


def canon_key_hash(t: pa.Table, keys, types_by_name,
                   num_partitions: int) -> np.ndarray:
    """Partition ids from canonicalized key columns (see canon_key_table)."""
    kdf = canon_key_table(t, keys, types_by_name).to_pandas()
    return (stable_key_hash(kdf, keys) % num_partitions).astype(np.int64)


def block_part_hash(t: pa.Table, keys, num_partitions: int,
                    types_by_name=None) -> np.ndarray:
    """Partition ids from a raw Arrow block, canonicalized so the SAME key
    hashes identically in EVERY block: to_pandas float-promotes an int key
    column whenever the block carries any null, and hash(5.0) != hash(5)
    would split one key's rows across partitions (duplicate groups, missed
    joins, bloom false negatives). Pass ``types_by_name`` when blocks from
    multiple sources may disagree on declared key dtypes."""
    types = types_by_name or {k: t.schema.field(k).type for k in keys}
    return canon_key_hash(t, keys, types, num_partitions)


def left_field_type(left_fields, name: str):
    for f in left_fields:
        if f.name == name:
            return f.type
    return None


def left_column_array(left_fields, name: str, vals: list) -> pa.Array:
    """Left/passthrough column values → Arrow, cast back to the declared
    query schema (NaN→null via from_pandas; integral float64 — pandas
    promotes an int column holding a null — casts back safely). Shared by
    the serve and mutation-replay partitions."""
    import pyarrow.compute as pc

    arr = pa.array(vals, from_pandas=True)
    ft = left_field_type(left_fields, name)
    if ft is not None and arr.type != ft:
        arr = pc.cast(arr, ft)
    return arr


def _factorize_keys(pdf: pd.DataFrame, keys: Sequence[str]):
    if len(keys) == 1:
        codes, uniques = pd.factorize(pdf[keys[0]], use_na_sentinel=False)
        kdf = pd.DataFrame({keys[0]: uniques})
    else:
        idx = pd.MultiIndex.from_frame(pdf[list(keys)])
        codes, uniques = idx.factorize(use_na_sentinel=False)
        kdf = uniques.to_frame(index=False)
        kdf.columns = list(keys)
    return codes.astype(np.int64), kdf


class PartialAgg:
    """Stage-1 callable: Arrow batch in → Arrow IR-partials out, routed by
    the canonical hash of ``part_keys`` (``_route``, never null)."""

    def __init__(self, conf_keys: Sequence[str], parts: list[AggregationPart],
                 input_schema: pa.Schema, tie_break: Optional[str] = None,
                 part_keys: Optional[Sequence[str]] = None):
        self.keys = list(conf_keys)  # granularity of aggregation (may incl. bucket)
        self.part_keys = list(part_keys or conf_keys)  # granularity of routing
        self.agg = RowAggregator(parts, input_schema, tie_break_column=tie_break)
        self.schema = pa.schema(
            [input_schema.field(k) for k in self.keys]
            + [pa.field(_ROUTE, pa.uint64())] + self.agg.ir_fields())

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_cols = batch.select(self.keys).to_pandas()
        # drop rows where ALL conf keys are null (reference
        # GroupBy.scala:510-512) — judged over part_keys, i.e. the conf key
        # columns: in the bucketed pipeline self.keys additionally carries
        # the bucket column, which must NOT rescue a null-keyed row. A null
        # bucket value can't become a map key (and would form a NaN group at
        # keys+bucket granularity): drop it, matching the temporal path's
        # valid &= is_valid(bucket)
        buckets = [k for k in self.keys if k not in self.part_keys]
        valid = ~key_cols[self.part_keys].isna().all(axis=1) \
            & key_cols[buckets].notna().all(axis=1)
        if not valid.all():
            batch = batch.filter(pa.array(valid.to_numpy()))
            key_cols = key_cols[valid.to_numpy()].reset_index(drop=True)
        if len(batch) == 0:
            return self.schema.empty_table()
        codes, kdf = _factorize_keys(key_cols, self.keys)
        irf = self.agg.partial_frame(batch, codes, len(kdf))
        # irf 'g' indexes into kdf rows
        sel = irf["g"].to_numpy()
        key_arrays = {}
        for k in self.keys:
            # from_pandas: factorize renders a null key as float NaN in its
            # uniques, which must serialize as an Arrow null (a partially-
            # null multi-key or null-key-in-bucketed group is kept)
            key_arrays[k] = pa.array(kdf[k].to_numpy(dtype=object)[sel],
                                     type=batch.schema.field(k).type,
                                     from_pandas=True)
        # hash the CANONICAL Arrow representation, never the pandas frame:
        # to_pandas float-promotes an int key column whenever the batch has
        # any null, and hash(5.0) != hash(5) would split one key's partials
        # across partitions → duplicate output rows per key. Not reduced
        # mod P: the co-partition re-hashes the route over every partition
        key_tbl = pa.table({k: key_arrays[k] for k in self.part_keys})
        types = {k: batch.schema.field(k).type for k in self.part_keys}
        key_arrays[_ROUTE] = pa.array(stable_key_hash(
            canon_key_table(key_tbl, self.part_keys, types).to_pandas(),
            self.part_keys))
        return self.agg.ir_frame_to_arrow(irf, key_arrays)


class MergeFinalize:
    """Stage-2 callable: all partial rows of one hash partition (pandas) →
    finalized feature rows. Vectorized across every key in the partition."""

    def __init__(self, keys: Sequence[str], parts: list[AggregationPart],
                 input_schema: pa.Schema, tie_break: Optional[str] = None,
                 pivot_bucket: Optional[str] = None, out_keys: Optional[Sequence[str]] = None):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        self.keys = list(keys)
        self.agg = RowAggregator(parts, input_schema, tie_break_column=tie_break)
        self.pivot_bucket = pivot_bucket  # bucket column to pivot into map outputs
        self.out_keys = list(out_keys or self.keys)
        self.input_schema = input_schema
        out = self.agg.output_fields()
        if pivot_bucket is not None:
            # bucketed output name carries the _by_ suffix
            out = [pa.field(f"{f.name}_by_{pivot_bucket}",
                            pa.map_(pa.string(), f.type)) for f in out]
        self.schema = pa.schema(
            [input_schema.field(k) for k in self.out_keys] + out)

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        pdf = pdf.reset_index(drop=True)
        codes, kdf = _factorize_keys(pdf, self.keys)
        irf = self.agg.ir_frame_from_pandas(pdf)
        irf = irf.drop(columns=[c for c in (*self.keys, _ROUTE) if c in irf.columns])
        irf["g"] = codes
        # reindex to EVERY key present in the input: a key whose inputs are
        # all null still gets an output row with null features (SQL GROUP BY
        # / Spark aggregateByKey semantics) — merge_frame alone would drop it
        merged = self.agg.merge_frame(irf).set_index("g") \
            .reindex(np.unique(codes)).reset_index()
        fin = self.agg.finalize_frame(merged)
        sel = fin["g"].to_numpy()
        out_cols: dict[str, pa.Array] = {}
        if self.pivot_bucket is None:
            for k in self.keys:
                out_cols[k] = pa.array(kdf[k].to_numpy(dtype=object)[sel],
                                       type=self.input_schema.field(k).type,
                                       from_pandas=True)
            for f in self.agg.output_fields():
                out_cols[f.name] = pa.array(fin[f.name].tolist(), type=f.type)
            return pa.table(out_cols)
        # pivot: keys = out_keys + [bucket]; one output row per out_keys combo,
        # each part becomes map<bucket, value>
        fin_keys = kdf.iloc[sel].reset_index(drop=True)
        fin = pd.concat([fin_keys, fin.drop(columns="g").reset_index(drop=True)], axis=1)
        grouped = fin.groupby(self.out_keys, dropna=False, sort=True)
        out_rows = {k: [] for k in self.out_keys}
        maps: dict[str, list] = {f.name: [] for f in self.agg.output_fields()}
        for gk, gdf in grouped:
            if not isinstance(gk, tuple):
                gk = (gk,)
            for k, v in zip(self.out_keys, gk):
                out_rows[k].append(v)
            for f in self.agg.output_fields():
                # null bucket values can't be map keys — drop them, matching
                # the temporal path's valid &= is_valid(bucket) semantics
                entries = [
                    (b, v) for b, v in zip(gdf[self.pivot_bucket], gdf[f.name])
                    if v is not None and b is not None
                    and not (isinstance(b, float) and np.isnan(b))
                ]
                entries.sort(key=lambda t: str(t[0]))
                maps[f.name].append(entries if entries else None)
        for k in self.out_keys:
            out_cols[k] = pa.array(out_rows[k],
                                   type=self.input_schema.field(k).type,
                                   from_pandas=True)
        for f, o in zip(self.agg.output_fields(),
                        list(self.schema)[len(self.out_keys):]):
            out_cols[o.name] = pa.array(maps[f.name], type=o.type)
        return pa.table(out_cols)


class _SnapshotMerge:
    """Per-partition kernel of ``aggregate_snapshot``: each granularity's
    ``MergeFinalize`` over its side, outer-merged on the keys — null keys
    match null keys there, as GroupBy groups do."""

    def __init__(self, keys: Sequence[str], sides: list[pa.Schema],
                 merges: list[MergeFinalize]):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        self.keys = list(keys)
        self.sides = sides  # each side's own schema (copartition.side)
        self.merges = merges

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from .copartition import side

        out = None
        for i, (schema, fin) in enumerate(zip(self.sides, self.merges)):
            rows = side(tbl, i, schema)
            t = fin(rows.to_pandas()) if len(rows) \
                else fin.schema.empty_table()
            out = t if out is None else _outer_merge(out, t, self.keys)
        return out


def _outer_merge(a: pa.Table, b: pa.Table, keys: Sequence[str]) -> pa.Table:
    """``a`` ⟗ ``b`` on their leading ``keys``, every column in its own
    type: pandas pairs the rows (null matches null), Arrow takes them."""
    import pyarrow.compute as pc

    pairs = a.select(keys).to_pandas().assign(_a=np.arange(len(a))).merge(
        b.select(keys).to_pandas().assign(_b=np.arange(len(b))),
        on=list(keys), how="outer")
    ta, tb = (t.take(pa.array(pairs[c].to_numpy(), from_pandas=True)
                     .cast(pa.int64())) for t, c in ((a, "_a"), (b, "_b")))
    n = len(keys)
    return pa.table({**{k: pc.coalesce(ta[k], tb[k]) for k in keys},
                     **{c: ta[c] for c in a.column_names[n:]},
                     **{c: tb[c] for c in b.column_names[n:]}})


def aggregate_snapshot(
    ds: ray.data.Dataset,
    conf: GroupByConf,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    input_schema: Optional[pa.Schema] = None,
) -> ray.data.Dataset:
    """GroupBy with no windows/time dimension: one output row per key, as
    one exchange (module docstring): the plain parts and each bucket
    column's parts are the sides of one co-partition."""
    from ..util import dataset_schema
    from .copartition import Side, copartition

    schema = input_schema or dataset_schema(ds)
    keys = list(conf.key_columns)
    tie_break = getattr(conf, "tie_break_column", None)
    parts = conf.parts()
    sides, merges = [], []
    for bcol in [None, *sorted({p.bucket for p in parts if p.bucket})]:
        # bucketed parts compute as plain parts at keys+bucket granularity
        gparts = [replace(p, bucket=None) for p in parts if p.bucket == bcol]
        if not gparts:
            continue
        gran = [*keys, bcol] if bcol else keys
        partial = PartialAgg(gran, gparts, schema, tie_break=tie_break,
                             part_keys=keys)
        sides.append(Side(ds.map_batches(partial, batch_format="pyarrow"),
                          partial.schema))
        # tie_break crosses the IR shuffle: FIRST/LAST IRs carry a tb slot
        # (RowAggregator._ircs) so equal-ts rows split across blocks merge
        # by (ts, tb), matching the temporal path
        merges.append(MergeFinalize(gran, gparts, schema, tie_break=tie_break,
                                    pivot_bucket=bcol, out_keys=keys))
    out_schema = pa.schema([schema.field(k) for k in keys] + [
        f for m in merges for f in m.schema if f.name not in keys])
    kernel = _SnapshotMerge(keys, [s.schema for s in sides], merges)
    return copartition(sides, {_ROUTE: pa.uint64()}, [_ROUTE],
                       num_partitions, kernel, out_schema)
