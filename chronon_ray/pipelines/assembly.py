"""Co-partitioned multi-dataset join on key columns.

The final-assembly pattern of the reference's Join (reference:
spark/JoinUtils.scala:137-172 coalescedJoin; spark/Join.scala:241-260 final
fold of left ⟕ part tables): instead of N sequential shuffle joins, every
input is tagged, padded to the union schema with typed nulls (the analog of
Join.scala:74-133 padFields), unioned, hash-partitioned **once** on the join
keys, and merged per partition with vectorized pandas merges. One shuffle
regardless of the number of sides.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .groupby import block_part_hash

DEFAULT_NUM_PARTITIONS = 200


def pandas_to_arrow(df: pd.DataFrame, fields: dict[str, pa.DataType]) -> pa.Table:
    """Build an Arrow table with explicit types (object/NaN-safe)."""
    arrays = {}
    for col in df.columns:
        t = fields.get(col)
        vals = df[col]
        if t is None:
            arrays[col] = pa.array(vals)
        elif pa.types.is_integer(t):
            arrays[col] = _int_with_nulls(vals.to_numpy(dtype="float64", na_value=np.nan), t)
        elif pa.types.is_floating(t):
            arr = vals.to_numpy(dtype="float64", na_value=np.nan)
            arrays[col] = pa.array(arr, from_pandas=True).cast(t, safe=False)
        else:
            lst = [None if _is_nan(v) else v for v in vals.tolist()]
            arrays[col] = pa.array(lst, type=t)
    return pa.table(arrays)


def _is_nan(v) -> bool:
    return v is None or (isinstance(v, float) and np.isnan(v))


def _int_with_nulls(arr: np.ndarray, t: pa.DataType) -> pa.Array:
    mask = np.isnan(arr)
    out = np.where(mask, 0, arr).astype(np.int64)
    return pa.array(out, type=t, mask=mask) if mask.any() else pa.array(out).cast(t, safe=False)


class _TagPad:
    def __init__(self, src: int, union_fields: list[pa.Field], num_partitions: int,
                 keys: Sequence[str]):
        self.src = src
        self.union_fields = union_fields
        self.num_partitions = num_partitions
        self.keys = list(keys)  # hash/partition columns (present in every src)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {}
        for f in self.union_fields:
            if f.name in batch.column_names:
                cols[f.name] = batch[f.name]
            else:
                cols[f.name] = pa.nulls(n, type=f.type)
        # hash the UNION key types: every source must land the same key in
        # the same partition even when their declared dtypes differ or a
        # null-bearing block would float-promote in pandas
        ktypes = {f.name: f.type for f in self.union_fields
                  if f.name in self.keys}
        part = block_part_hash(batch, self.keys, self.num_partitions,
                               types_by_name=ktypes)
        cols["_part"] = pa.array(part)
        cols["_src"] = pa.array(np.full(n, self.src, dtype=np.int8))
        return pa.table(cols)


class _MergePartition:
    def __init__(self, keys: Sequence[str], n_src: int, how: str,
                 fields_by_src: list[list[str]], types: dict[str, pa.DataType]):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        self.keys = list(keys)
        self.n_src = n_src
        self.how = how
        self.fields_by_src = fields_by_src  # value columns owned by each src
        self.types = types

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        base = None
        for s in range(self.n_src):
            sub = pdf[pdf["_src"] == s]
            sub = sub[self.keys + self.fields_by_src[s]].reset_index(drop=True)
            if base is None:
                base = sub
            else:
                base = base.merge(sub, on=self.keys, how=self.how)
        out_fields = {c: self.types[c] for c in base.columns if c in self.types}
        return pandas_to_arrow(base, out_fields)


def key_partitioned_join(
    left: ray.data.Dataset,
    rights: Sequence[ray.data.Dataset],
    keys: Sequence[str],
    how: str = "outer",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    schemas: Optional[list[pa.Schema]] = None,
) -> ray.data.Dataset:
    """left ⋈ each right on `keys` with a single hash shuffle.

    Null-key semantics: this is the join-ASSEMBLY primitive (fan per-key
    feature rows back onto left rows), so null keys match null keys —
    a null-keyed left question row re-attaches its own null-keyed feature
    row. Operators exposing SQL equi-join semantics must prune null-keyed
    RIGHT rows first (``util.drop_null_key_rows``): SQL NULL never
    matches."""
    all_ds = [left, *rights]
    from ..util import dataset_schema, with_schema

    schemas = schemas or [dataset_schema(d) for d in all_ds]
    union_fields: list[pa.Field] = []
    seen = set()
    for sch in schemas:
        for f in sch:
            if f.name not in seen:
                seen.add(f.name)
                union_fields.append(f)
    types = {f.name: f.type for f in union_fields}
    fields_by_src = [
        [f.name for f in sch if f.name not in keys] for sch in schemas
    ]
    tagged = [
        d.map_batches(_TagPad(i, union_fields, num_partitions, keys), batch_format="pyarrow")
        for i, d in enumerate(all_ds)
    ]
    unioned = tagged[0].union(*tagged[1:])
    # the merge order: the left's keys and fields, then each right's fields
    out_names = [*keys, *[c for cols in fields_by_src for c in cols]]
    return with_schema(unioned.groupby("_part").map_groups(
        _MergePartition(keys, len(all_ds), how, fields_by_src, types),
        batch_format="pandas",
    ), pa.schema([pa.field(c, types[c]) for c in out_names]))
