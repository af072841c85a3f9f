"""One co-partitioned plan per incremental backfill run.

``backfill_incremental`` serves day D's left rows from the rolling
checkpoint ck@D — the FinalBatchIr state of every key at midnight of D —
plus day D's head events, and ck@D = merge(ck@D−1, upload(day D−1
events)). ``roll_serve_run`` plans a run of consecutive days as ONE
exchange (the way ``join_step`` plans a Join backfill step):

1. three sides are co-partitioned on the keys
   (``pipelines/copartition.py``): the left rows of the run (side 0), the
   run's events (side 1, read once over [lo, last]) and, when one exists,
   the base checkpoint (side 2);
2. per partition, ``RollServeRun`` walks the days in order. ck@first is
   the base (``"cached"``), the base ck@first−1 rolled one day
   (``"rolled"``), or a merge from nothing over the lookback events
   (``"bootstrapped"``); every later ck@D rolls ck@D−1 one day. Each ck@D
   stays in memory for the serve of day D and the roll to D+1.

Day membership follows the ``ds`` partition of the events: the roll to D
uses partition D−1 cut to [end(D−1), end(D)), the head of D is partition
D, and the bootstrap uses partitions [lo, D−1] with ``ts < end(D)``.

The kernel's rows are the output rows (the left columns and the
features) and the checkpoint rows of every day listed in ``ck_days``,
their columns namespaced ``_ck:<name>`` and their day in ``CK_DAY``;
``CheckpointRows`` and ``OutputRows`` select each target's rows for the
lineage sink.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import GroupByConf
from ..state.partitions import shift_ds
from ..util import dataset_schema
from .copartition import Side, copartition, side
from .upload import CheckpointAgg, _ServePartition, _add_bucket_maps

#: output column: the day of a checkpoint row (null on output rows)
CK_DAY = "_ck_day"
_MS_DAY = 86_400_000


def _ck(name: str) -> str:
    return f"_ck:{name}"


def _days(t: pa.Table) -> np.ndarray:
    """Each row's day: its ``ds`` partition, else the UTC day of ``ts``."""
    if "ds" in t.column_names:
        return np.asarray(pc.cast(t["ds"], pa.string()).to_pylist(),
                          dtype=str)
    ts = t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    return np.datetime_as_string((ts // _MS_DAY).astype("datetime64[D]"),
                                 unit="D")


class CheckpointRows:
    """``Target.rows`` of ck@``day``: its rows, un-namespaced."""

    def __init__(self, day: str, names: Sequence[str]):
        self.day = day
        self.names = list(names)

    def __call__(self, t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t[CK_DAY], self.day))
        return t.select([_ck(n) for n in self.names]) \
            .rename_columns(self.names)


class OutputRows:
    """``Target.rows`` of the output: the rows that are not checkpoint
    rows, in the output columns."""

    def __init__(self, names: Sequence[str]):
        self.names = list(names)

    def __call__(self, t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t[CK_DAY])).select(self.names)


class RollServeRun:
    """Per-partition kernel of an incremental run (module docstring)."""

    def __init__(self, conf: GroupByConf, left_schema: pa.Schema,
                 ev_schema: pa.Schema, ck_schema: pa.Schema,
                 base_schema: Optional[pa.Schema], days: Sequence[str],
                 ends: Sequence[int], how: str, ck_days: Sequence[str]):
        self.__name__ = type(self).__name__  # ray map_groups wraps fn.__name__
        keys = list(conf.key_columns)
        self.left_schema = left_schema
        self.ev_schema = ev_schema
        self.base_schema = base_schema
        self.ck_schema = ck_schema
        self.days, self.ends = list(days), list(ends)
        self.how = how
        self.ck_days = set(ck_days)
        # the kernel works in the left's key types; checkpoint rows are
        # written in the checkpoint's
        self.ir = CheckpointAgg(conf, ev_schema, {
            k: left_schema.field(k).type for k in keys})
        self.serve = _ServePartition(
            keys, self.ir.parts, self.ir.schema, left_schema.names,
            self.ends[0], full_hops=True, left_fields=list(left_schema),
            out_names=self.ir.out_names)
        self.out_schema = pa.schema(
            [*left_schema, *self.serve.out_fields,
             pa.field(CK_DAY, pa.string()),
             *(f.with_name(_ck(f.name)) for f in ck_schema)])

    def _roll(self, base: Optional[pa.Table], events: pa.Table,
              end: int) -> pa.Table:
        """The checkpoint at ``end``: ``base`` merged with the partials
        of ``events`` (``ts < end``)."""
        rows = self.ir.partials(events, end, full_hops=True)
        if base is not None:
            rows = pa.concat_tables(
                [base.drop_columns(["_batch_end_ts", "_full_hops"]), rows],
                promote_options="default")
        return self.ir.merge(rows.to_pandas(), end, True)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        left = side(tbl, 0, self.left_schema)
        events = side(tbl, 1, self.ev_schema)
        base = None
        if self.base_schema is not None:
            base = side(tbl, 2, self.base_schema)
            if pc.any(pc.invert(base["_full_hops"])).as_py():
                raise ValueError(
                    "backfill_incremental needs checkpoints built with "
                    "groupby_upload(..., full_hops=True); this one is "
                    "collapsed-only")
        if self.ir.synth:
            events = _add_bucket_maps(self.ir.synth)(events)
        ev_day, left_day = _days(events), _days(left)
        ts = events["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        pieces = []
        ck = None
        for i, (day, end) in enumerate(zip(self.days, self.ends)):
            if i == 0 and self.how == "cached":
                ck = base
            elif i == 0 and self.how == "bootstrapped":
                ck = self._roll(None, events.filter(pa.array(ev_day < day)),
                                end)
            else:
                rows = (ev_day == shift_ds(day, -1)) \
                    & (ts >= end - _MS_DAY) & (ts < end)
                ck = self._roll(base if i == 0 else ck,
                                events.filter(pa.array(rows)), end)
            if day in self.ck_days:
                pieces.append(self._checkpoint_rows(ck, day))
            on_day = left_day == day
            if on_day.any():
                queries = left.filter(pa.array(on_day)).to_pandas()
                heads = events.filter(pa.array(ev_day == day)).to_pandas()
                pieces.append(self.serve.serve(
                    self.serve._load_checkpoint(ck.to_pandas()),
                    self.serve._group_events(heads), queries, end, True))
        if not pieces:
            return self.out_schema.empty_table()
        return pa.concat_tables([self._fill(p) for p in pieces])

    def _checkpoint_rows(self, ck: pa.Table, day: str) -> pa.Table:
        ck = ck.cast(self.ck_schema)
        t = pa.table({_ck(n): ck[n] for n in ck.column_names})
        return t.append_column(
            CK_DAY, pa.array(np.full(len(t), day, dtype=object),
                             type=pa.string()))

    def _fill(self, t: pa.Table) -> pa.Table:
        """``t`` in the output schema, absent columns null."""
        return pa.table(
            [t[f.name] if f.name in t.column_names
             else pa.nulls(len(t), f.type) for f in self.out_schema],
            schema=self.out_schema)


def roll_serve_run(left: ray.data.Dataset, events: ray.data.Dataset,
                   base: Optional[ray.data.Dataset], conf: GroupByConf,
                   days: Sequence[str], how: str, ck_days: Sequence[str],
                   num_partitions: int):
    """Plan one incremental run (module docstring): ``days`` are the
    run's consecutive days, ``how`` says where ck@first comes from
    (``base`` is ck@first when ``"cached"``, ck@first−1 when
    ``"rolled"``, None when ``"bootstrapped"``), and ``ck_days`` lists
    the days whose checkpoint rows the plan emits.

    Returns ``(dataset, output schema, checkpoint schema)``: the output
    schema is the left columns then the features, the checkpoint schema
    is the one ``groupby_upload`` declares for the conf, keyed in the
    base's key types (else the events')."""
    import pandas as pd

    if (base is None) != (how == "bootstrapped"):
        raise ValueError(f"a {how!r} run needs "
                         f"{'no' if base is None else 'a'} base checkpoint")
    keys = list(conf.key_columns)
    left_schema = dataset_schema(left)
    if "ds" not in left_schema.names:
        raise ValueError("backfill_incremental needs a ds column on the "
                         "left table: output days are its partitions")
    ev_schema = dataset_schema(events)
    shared = {k: left_schema.field(k).type for k in keys}
    sides = [Side(left, left_schema), Side(events, ev_schema)]
    if base is not None:
        sides.append(Side(base, dataset_schema(base)))
    ck_key = sides[-1].schema  # the base's, else the events'
    ck_schema = CheckpointAgg(conf, ev_schema, {
        k: ck_key.field(k).type for k in keys}).empty().schema
    ends = [int(pd.Timestamp(d).value // 10**6) for d in days]
    kernel = RollServeRun(conf, left_schema, sides[1].own(shared), ck_schema,
                          None if base is None else sides[2].own(shared),
                          days, ends, how, ck_days)
    return (copartition(sides, shared, keys, num_partitions, kernel,
                        kernel.out_schema),
            pa.schema([*left_schema, *kernel.serve.out_fields]), ck_schema)
