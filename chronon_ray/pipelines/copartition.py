"""One co-partition of several keyed inputs, then one kernel per partition.

Every plan that meets several inputs by key — ``join_step``,
``incremental.roll_serve_run``, ``upload.serve_with_events``,
``streaming.serve_with_tiles``, ``mutations.temporal_entities_join``,
``assembly.key_partitioned_join`` (and through it
``joins.entity_snapshot_join`` and the MinHash verification of
``functions/dedup.py``), ``joins.bootstrap_join``, ``extras.range_join``
and ``groupby.aggregate_snapshot`` (its granularities' partials, routed
on their key hash) — co-locates them with ONE exchange and runs one
kernel per partition, the way LMFAO computes a batch of aggregates over
co-located inputs:

1. ``tag``: each side keeps its columns under its own names, casts the
   shared columns it has (``key_types``: the keys, and ``ts`` where the
   sides share it) to one type per name, drops its null-key rows unless it
   is the query side 0 (reference removeNulls, GroupBy.scala:181 — null-key
   query rows stay and get null features), and adds the canonical key hash
   of ``hash_keys`` as the partition id ``_part`` and its side number
   ``_src``;
2. ``group``: the tagged sides are unioned and grouped on ``_part``; the
   kernel runs on each partition as one pyarrow table and reads each side
   through ``side``.

No side is padded to a union schema. Side 0 and the shared columns keep
their names; every other column of side ``i`` crosses as ``_<i>:<name>``,
and the exchange's merge fills the other sides' columns with nulls. So two
sides may hold columns of one name and different types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..util import drop_null_key_rows, with_schema
from .groupby import canon_key_hash

_SRC, _PART = "_src", "_part"


def _physical(i: int, name: str) -> str:
    return f"_{i}:{name}"


@dataclass(frozen=True)
class Side:
    """One input of a co-partition: the columns of ``schema`` (names and
    types in ``data``, in the order the kernel reads them), ``rename``
    giving some of them another name on the side (source → own name)."""

    data: ray.data.Dataset
    schema: pa.Schema
    rename: dict = field(default_factory=dict)

    def own(self, key_types: dict) -> pa.Schema:
        """The side's rows as ``side`` returns them: renamed, and each
        shared column in its ``key_types`` type."""
        fields = []
        for f in self.schema:
            name = self.rename.get(f.name, f.name)
            fields.append(pa.field(name, key_types.get(name, f.type)))
        return pa.schema(fields)


class _TagAlignStep:
    """Tag one side (module docstring, step 1)."""

    def __init__(self, src: int, rename: dict, shared_types: dict,
                 hash_keys: Sequence[str], num_partitions: int):
        self.src = src
        self.rename = rename  # source column → column crossing the exchange
        self.shared_types = shared_types
        self.hash_keys = list(hash_keys)
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch.select(list(self.rename)).rename_columns(
            list(self.rename.values()))
        for name, typ in self.shared_types.items():
            if name in t.column_names and t.schema.field(name).type != typ:
                t = t.set_column(t.column_names.index(name), name,
                                 pc.cast(t[name], typ))
        if self.src:
            t = drop_null_key_rows(t, self.hash_keys)
        part = canon_key_hash(t, self.hash_keys, self.shared_types,
                              self.num_partitions)
        return t.append_column(_PART, pa.array(part)).append_column(
            _SRC, pa.array(np.full(len(t), self.src, dtype=np.int8)))


def tag(sides: Sequence[Side], key_types: dict, hash_keys: Sequence[str],
        num_partitions: int) -> list[ray.data.Dataset]:
    """Each side of ``sides`` tagged for the exchange (module docstring)."""
    tagged = []
    for i, s in enumerate(sides):
        rename = {src: name if i == 0 or name in key_types
                  else _physical(i, name)
                  for src, name in zip(s.schema.names,
                                       s.own(key_types).names)}
        tagged.append(s.data.map_batches(
            _TagAlignStep(i, rename, key_types, hash_keys, num_partitions),
            batch_format="pyarrow"))
    return tagged


def group(tagged: Sequence[ray.data.Dataset], kernel,
          out_schema: pa.Schema) -> ray.data.Dataset:
    """``kernel`` over every partition of the ``tagged`` sides, declared
    as ``out_schema``."""
    unioned = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return with_schema(
        unioned.groupby(_PART).map_groups(kernel, batch_format="pyarrow"),
        out_schema)


def copartition(sides: Sequence[Side], key_types: dict,
                hash_keys: Sequence[str], num_partitions: int, kernel,
                out_schema: pa.Schema) -> ray.data.Dataset:
    """``kernel`` over every partition of ``sides`` co-partitioned on
    ``hash_keys`` (module docstring), declared as ``out_schema``."""
    return group(tag(sides, key_types, hash_keys, num_partitions), kernel,
                 out_schema)


def side(tbl: pa.Table, i: int, schema: pa.Schema) -> pa.Table:
    """Side ``i``'s rows of partition ``tbl`` under their own names:
    ``schema`` is ``Side.own`` of the side; an empty table of it when the
    partition holds none of its rows (its columns are then absent). A
    column of side ``i`` > 0 is its ``_<i>:<name>`` column where the
    partition has one, else the shared ``<name>``."""
    rows = pc.equal(tbl[_SRC], i)
    if not pc.any(rows).as_py():
        return schema.empty_table()
    names = [_physical(i, n) if i and _physical(i, n) in tbl.column_names
             else n for n in schema.names]
    return tbl.select(names).filter(rows).rename_columns(schema.names)
