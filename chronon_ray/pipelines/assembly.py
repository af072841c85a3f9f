"""Co-partitioned multi-dataset join on key columns.

The final-assembly pattern of the reference's Join (reference:
spark/JoinUtils.scala:137-172 coalescedJoin; spark/Join.scala:241-260 final
fold of left ⟕ part tables): instead of N sequential shuffle joins, every
input is one side of ONE co-partition on the join keys
(``pipelines/copartition.py``; no side is padded to a union schema), and
each partition is merged with vectorized pandas merges. One shuffle
regardless of the number of sides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..util import dataset_schema
from .copartition import Side, copartition, side

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


class _MergePartition:
    """Per-partition left ⋈ each right on ``keys`` (pandas merges)."""

    def __init__(self, keys: Sequence[str], how: str,
                 sides: list[pa.Schema], out_schema: pa.Schema):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        self.keys = list(keys)
        self.how = how
        self.sides = sides  # each side's own schema (copartition.side)
        self.out_schema = out_schema

    def __call__(self, tbl: pa.Table) -> pa.Table:
        base = side(tbl, 0, self.sides[0]).to_pandas()
        for i, s in enumerate(self.sides[1:], start=1):
            base = base.merge(side(tbl, i, s).to_pandas(), on=self.keys,
                              how=self.how)
        return pandas_to_arrow(base[self.out_schema.names],
                               {f.name: f.type for f in self.out_schema})


def key_partitioned_join(
    left: ray.data.Dataset,
    rights: Sequence[ray.data.Dataset],
    keys: Sequence[str],
    how: str = "left",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """left ⋈ each right on `keys` (``how``: ``left`` or ``inner``) with a
    single co-partition exchange.

    Null-key semantics are SQL equality, the engine-wide join contract:
    a right row with a null key never matches, while a null-keyed left row
    survives a ``left`` join with null features."""
    if how not in ("left", "inner"):
        raise ValueError(f"key_partitioned_join: how must be 'left' or "
                         f"'inner', not {how!r}")
    sides = [Side(d, dataset_schema(d)) for d in (left, *rights)]
    key_types = {k: sides[0].schema.field(k).type for k in keys}
    own = [s.own(key_types) for s in sides]
    # the merge order: the keys, the left's fields, then each right's
    out_schema = pa.schema([own[0].field(k) for k in keys] + [
        f for sch in own for f in sch if f.name not in keys])
    return copartition(sides, key_types, keys, num_partitions,
                       _MergePartition(keys, how, own, out_schema),
                       out_schema)
