"""One co-partitioned plan for an as-of join of one or more parts.

A Join is an as-of join of one left table against the windowed aggregates
of every joinPart (reference: spark/JoinBase.scala:132-227
computeJoinOpt). ``join_step`` plans it as ONE exchange, the way LMFAO
computes a batch of group-by aggregates with shared work. It is the only
as-of join plan; its callers are
``temporal.temporal_join`` (one computed part), ``joins.compute_join``
(every part computed), ``joins.compute_join_bootstrapped`` (every part
computed where a bootstrap left a gap) and ``backfill.backfill_join`` (per
step: the parts missing a day computed, the others read from their
caches).

1. the left rows (side 0) and one side per part are co-partitioned on
   the left keys (``pipelines/copartition.py``): a part that must be
   computed brings its pruned events, a complete part its cached feature
   rows, each with its keys renamed to the left's and its keys and ts cast
   to the left's types;
2. the sides are unioned and grouped on the partition id;
3. per partition, ``StepTemporalPartition`` factorizes (keys, ts) once,
   null-safe — that is the distinct — asks each computed part's
   ``TemporalPartition`` one query per distinct (keys, ts), attaches each
   cached part by (keys, ts), and fans the features back onto every left
   row. Two kinds of computed part ask fewer queries:

   - a SNAPSHOT-accuracy part (``GroupByConf.accuracy``) has "features as
     of the end of ds-1": it asks at the row's day boundary
     ``floor(ts/1d)*1d``, one query per distinct (keys, day), with daily
     tail hops (reference: spark/JoinBase.scala:142-156 snapshotEvents);
   - a part with ``covered`` left columns (a bootstrap already holds its
     features) asks only for a (keys, ts) with a null in one of them on
     some left row (reference CoveringSet, Join.scala:135-216); the other
     rows get null features.

The output holds the left rows, keys and ts first, then the other left
columns, then each part's features (``<prefix>_<name>``, the bare name
under an empty prefix), plus the ``FIRST`` flag, which marks one row of
each (keys, ts): the rows a part cache keeps, however Ray splits the
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import MILLIS_DAY, Accuracy, AggregationPart, GroupByConf
from ..util import dataset_schema
from .copartition import Side, group, side, tag
from .temporal import TemporalPartition, pruned_events_schema

#: output flag: the first left row of its (keys, ts)
FIRST = "_first"
#: suffix of a covered part's features, beside the left's own columns
COMPUTED = "__c"
_QID = "_qid"


@dataclass(frozen=True)
class StepPart:
    """One joinPart of a step. ``data`` holds the part's events when
    ``computed``, else its cached feature rows (left keys, ``ts`` and the
    prefixed feature columns). ``covered`` names the left columns that
    already hold a computed part's features: the part is then asked only
    where one of them is null, and its features come out under their
    prefixed names plus ``COMPUTED``. ``exact`` computes a computed part
    over per-event exact windows (``temporal_join(exact_windows=True)``)."""

    prefix: str
    conf: GroupByConf
    data: ray.data.Dataset
    computed: bool
    covered: tuple = ()
    exact: bool = False


def uncovered_rows(t: pa.Table, columns: Sequence[str]) -> np.ndarray:
    """The rows of ``t`` that still need a part computed: a null in one of
    the part's feature ``columns`` — every row when ``t`` lacks one
    (reference CoveringSet analysis, Join.scala:135-216)."""
    need = np.zeros(len(t), dtype=bool)
    for c in columns:
        if c not in t.column_names:
            return np.ones(len(t), dtype=bool)
        need |= t[c].is_null().to_numpy(zero_copy_only=False)
    return need


def unique_parts(gb: GroupByConf) -> list[AggregationPart]:
    """``gb``'s parts, one per output name: identical parts collapse into
    one, and two different parts under one name raise (``output_name``
    leaves ``arg_map`` out for every op but the ``_k`` ops)."""
    by_name: dict[str, AggregationPart] = {}
    for p in gb.parts():
        if by_name.setdefault(p.output_name, p) != p:
            raise ValueError(f"group_by {gb.name}: two different parts "
                             f"share the output column {p.output_name!r}")
    return list(by_name.values())


def _part_kernel(part: StepPart, events: pa.Schema) -> TemporalPartition:
    """The kernel of a computed part over its pruned ``events``, answering
    queries of (keys, ts, ``_QID``); daily hops for SNAPSHOT accuracy."""
    gb = part.conf
    return TemporalPartition(
        list(gb.key_columns), unique_parts(gb), events,
        [*gb.key_columns, "ts", _QID], tie_break=gb.tie_break_column,
        daily=gb.accuracy == Accuracy.SNAPSHOT, exact=part.exact)


def _feature_name(prefix: str, name: str) -> str:
    return f"{prefix}_{name}" if prefix else name


def feature_fields(part: StepPart) -> list[pa.Field]:
    """The prefixed feature fields a computed part adds, typed as its
    ``TemporalPartition`` declares them."""
    events = pruned_events_schema(part.conf, dataset_schema(part.data))
    return [f.with_name(_feature_name(part.prefix, f.name))
            for f in _part_kernel(part, events).out_fields]


@dataclass(frozen=True)
class _KernelPart:
    src: int
    schema: pa.Schema  # the side's columns, shared names first
    features: tuple  # (name in the side or kernel output, output name)
    proc: Optional[TemporalPartition]  # None: a cached part
    covered: tuple  # left columns: ask only where one is null


class StepTemporalPartition:
    """Per-partition kernel of a join step (see the module docstring)."""

    def __init__(self, left_schema: pa.Schema, keys: Sequence[str],
                 parts: Sequence[_KernelPart], out_schema: pa.Schema):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        self.left_schema = left_schema
        self.keys = list(keys)  # left keys, then ts
        self.parts = list(parts)
        self.out_schema = out_schema

    def __call__(self, tbl: pa.Table) -> pa.Table:
        left = side(tbl, 0, self.left_schema)
        n_left = len(left)
        if n_left == 0:
            return self.out_schema.empty_table()
        cached = [(p, side(tbl, p.src, p.schema))
                  for p in self.parts if p.proc is None]
        tables = [left, *(t for _, t in cached)]
        codes = _row_codes([pa.chunked_array([c for t in tables
                                              for c in t[k].chunks],
                                             type=left.schema.field(k).type)
                            for k in self.keys])
        # codes number rows by first appearance, left rows first: the left
        # (keys, ts) are 0..n_q-1 and their first rows are the distinct
        lcodes = codes[:n_left]
        _, first = np.unique(lcodes, return_index=True)
        n_q = len(first)
        queries = left.take(pa.array(first)).select(self.keys)

        cols = {k: left[k] for k in self.keys}
        cols.update({f.name: left[f.name] for f in self.left_schema
                     if f.name not in self.keys})
        offset = n_left
        cached_at = {}
        for p, t in cached:
            cached_at[p.src] = (t, codes[offset:offset + len(t)])
            offset += len(t)
        for p in self.parts:
            if p.proc is not None:
                # back to the part's own key names
                e = side(tbl, p.src, p.schema).rename_columns(
                    [*p.proc.keys, *p.schema.names[len(p.proc.keys):]])
                t, row = self._ask(p, left, lcodes, queries, e)
            else:
                t, c = cached_at[p.src]
                at = np.full(len(codes), -1, dtype=np.int64)
                at[c] = np.arange(len(t))
                row = at[lcodes]
            idx = pa.array(row, mask=row < 0)
            for name, out_name in p.features:
                cols[out_name] = t[name].take(idx)
        flag = np.zeros(n_left, dtype=bool)
        flag[first] = True
        cols[FIRST] = pa.array(flag)
        return pa.table(cols, schema=self.out_schema)

    @staticmethod
    def _ask(p: _KernelPart, left: pa.Table, lcodes: np.ndarray,
             queries: pa.Table, events: pa.Table):
        """Run computed part ``p`` on the distinct ``queries`` it needs
        (see the module docstring). Returns its output and, per left row,
        the output row that answers it (-1: not asked)."""
        n_q = len(queries)
        if p.covered:
            asked = np.zeros(n_q, dtype=bool)
            asked[lcodes[uncovered_rows(left, p.covered)]] = True
            sel = np.flatnonzero(asked)
            q = queries.take(pa.array(sel))
        else:
            sel, q = np.arange(n_q), queries
        if p.proc.daily:
            ts = q["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
            day = pa.array(ts // MILLIS_DAY * MILLIS_DAY).cast(q["ts"].type)
            q = q.set_column(q.num_columns - 1, "ts", day)
            q_row = _row_codes(q.columns)
            _, first = np.unique(q_row, return_index=True)
            q = q.take(pa.array(first))
        else:
            q_row = np.arange(len(sel))
        q = q.rename_columns([*p.proc.keys, "ts"]).append_column(
            _QID, pa.array(np.arange(len(q))))
        out = p.proc.join(q, events)
        out_row = np.empty(len(q), dtype=np.int64)
        out_row[out[_QID].to_numpy(zero_copy_only=False)] = np.arange(len(q))
        at = np.full(n_q, -1, dtype=np.int64)
        at[sel] = out_row[q_row]
        return out, at[lcodes]


def _row_codes(columns: Sequence[pa.ChunkedArray]) -> np.ndarray:
    """One int64 code per row, equal for rows equal on every column (nulls
    equal to nulls), numbered by first appearance."""
    codes = None
    for col in columns:
        enc = pc.dictionary_encode(col.combine_chunks(),
                                   null_encoding="encode")
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        codes = idx if codes is None else codes * len(enc.dictionary) + idx
        codes = pd.factorize(codes)[0].astype(np.int64)
    return codes


def _plan(left: ray.data.Dataset, left_keys: Sequence[str],
          parts: Sequence[StepPart], num_partitions: int):
    """The tagged sides of a join step and its per-partition kernel."""
    keys = [*left_keys, "ts"]
    hash_keys = list(left_keys) or keys  # a join without parts
    left_schema = dataset_schema(left)
    shared = {k: left_schema.field(k).type for k in keys}
    sides = [Side(left, left_schema)]
    kernel_parts = []
    out_fields = [left_schema.field(k) for k in keys] + [
        f for f in left_schema if f.name not in keys]
    for i, part in enumerate(parts, start=1):
        gb = part.conf
        schema = dataset_schema(part.data)
        if part.computed:
            events = pruned_events_schema(gb, schema)
            own = [f for f in events if f.name not in (*gb.key_columns, "ts")]
            s = Side(part.data, pa.schema(
                [events.field(k) for k in (*gb.key_columns, "ts")] + own),
                dict(zip(gb.key_columns, left_keys)))
            proc = _part_kernel(part, events)
            suffix = COMPUTED if part.covered else ""
            feats = [(f.name, _feature_name(part.prefix, f.name) + suffix)
                     for f in proc.out_fields]
            out_fields += [f.with_name(o)
                           for f, (_, o) in zip(proc.out_fields, feats)]
        else:
            own = [f for f in schema if f.name not in keys and f.name != "ds"]
            s = Side(part.data, pa.schema([schema.field(k) for k in keys]
                                          + own))
            proc = None
            feats = [(f.name, f.name) for f in own]
            out_fields += own
        sides.append(s)
        kernel_parts.append(_KernelPart(i, s.own(shared), tuple(feats), proc,
                                        tuple(part.covered)))
    out_schema = pa.schema([*out_fields, pa.field(FIRST, pa.bool_())])
    return (tag(sides, shared, hash_keys, num_partitions),
            StepTemporalPartition(left_schema, keys, kernel_parts,
                                  out_schema))


def join_step(left: ray.data.Dataset, left_keys: Sequence[str],
              parts: Sequence[StepPart],
              num_partitions: int) -> ray.data.Dataset:
    """Every left row with the features of every part in ``parts``, as
    one exchange (see the module docstring). ``left_keys`` are the left
    columns each part's keys map to, in the parts' key order."""
    tagged, kernel = _plan(left, left_keys, parts, num_partitions)
    return group(tagged, kernel, kernel.out_schema)
