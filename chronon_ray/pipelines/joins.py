"""Join orchestration: multi-part PITC joins, bootstraps, snapshot
unrolling, label joins, derivations.

Re-expression of the reference's Join lifecycle (reference: spark/Join.scala
computeJoin; spark/JoinBase.scala:70-130 joinWithLeft; spark/GroupBy.scala:
143-168 snapshotEvents multi-day unrolling; api/Extensions.scala:1069-1120
derivations), Ray-Data-first:

- a multi-part join is ONE ``join_step`` plan (one exchange): the left
  rows and every part's events are co-partitioned on the left keys, and
  per partition each part answers the distinct (keys, ts) once and its
  features fan back onto every left row (pipelines/join_step.py);
- SNAPSHOT-accuracy parts run in the same kernel with DailyResolution hops
  and day-boundary queries, and a bootstrapped join asks a part only where
  the bootstrap left a feature null — no separate code path for either;
- the multi-day snapshot GroupBy and label joins run the temporal engine
  (``temporal_join``) directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import Accuracy, GroupByConf, JoinConf
from ..sources import (read_parquet as _read_parquet, scan_groupby_events,
                       scan_source)
from ..util import dataset_schema, map_typed, with_schema
from .assembly import key_partitioned_join, pandas_to_arrow
from .copartition import Side, copartition, side
from .groupby import block_part_hash
from .join_step import COMPUTED, FIRST, StepPart, feature_fields, join_step
from .temporal import temporal_join

MILLIS_DAY = 86_400_000
DEFAULT_NUM_PARTITIONS = 64


class Derive:
    """The derivation projection as a table function (see
    ``apply_derivations``); ``typed`` when no expr is a callable, so its
    output types do not depend on the rows."""

    def __init__(self, derivations: Sequence[tuple]):
        self.derivations = tuple(derivations)
        self.typed = all(isinstance(e, str) for _n, e in self.derivations)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, pa.Array] = {}
        for name, expr in self.derivations:
            if name == "*" or expr == "*":
                for c in batch.column_names:
                    out.setdefault(c, batch[c])
            elif isinstance(expr, str):
                out[name] = batch[expr]
            else:
                arr = expr(batch)
                if isinstance(arr, np.ndarray):
                    arr = pa.array(arr)
                out[name] = arr
        return pa.table(out)


def apply_derivations(ds: ray.data.Dataset, derivations: Sequence[tuple],
                      base_columns: Optional[Sequence[str]] = None) -> ray.data.Dataset:
    """Post-agg projection (reference derivationProjection, Extensions.scala:
    1069-1120): entries are (out_name, expr) with expr ∈ {"*" passthrough,
    source column name, callable(batch)->Array}.

    The output schema is declared only when no expr is a callable: a
    user callable's output type may depend on its rows."""
    if not derivations:
        return ds
    derive = Derive(derivations)
    if derive.typed:
        return map_typed(ds, derive)
    return ds.map_batches(derive, batch_format="pyarrow")


def skew_filter(ds: ray.data.Dataset, skew_keys: Sequence[tuple]) -> ray.data.Dataset:
    """Drop rows whose key is a declared hot key (reference skewFilter,
    api/Extensions.scala:950-1000) — those keys are excluded outright."""
    if not skew_keys:
        return ds

    def f(batch: pa.Table) -> pa.Table:
        mask = None
        for col, values in skew_keys:
            if col not in batch.column_names:
                continue
            m = pc.invert(pc.is_in(batch[col], value_set=pa.array(list(values))))
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask) if mask is not None else batch

    return map_typed(ds, f)


def distinct_rows(ds: ray.data.Dataset, cols: Sequence[str],
                  num_partitions: int = DEFAULT_NUM_PARTITIONS) -> ray.data.Dataset:
    """Distinct over `cols`: per-batch unique → hash shuffle → per-partition
    unique. Only the already-deduped rows cross the exchange."""
    cols = list(cols)
    col_schema = pa.schema([dataset_schema(ds).field(c) for c in cols])

    def local(batch: pa.Table) -> pa.Table:
        sub = batch.select(cols)
        pdf = sub.to_pandas().drop_duplicates()
        # rebuild with the DECLARED schema: a null-bearing block's pandas
        # float promotion would otherwise hash (and emit) a different key
        # representation than null-free blocks — splitting one key's rows
        # across partitions so the global dedup misses duplicates
        t = pa.Table.from_pandas(pdf, schema=col_schema,
                                 preserve_index=False)
        t = t.replace_schema_metadata(None)
        part = block_part_hash(t, cols, num_partitions)
        return t.append_column("_part", pa.array(part))

    def global_(pdf: pd.DataFrame) -> pa.Table:
        out = pdf.drop_duplicates(cols)[cols]
        return pa.Table.from_pandas(out, schema=col_schema,
                                    preserve_index=False).replace_schema_metadata(None)

    global_.__name__ = "distinct_merge"
    return with_schema(ds.map_batches(local, batch_format="pyarrow")
                       .groupby("_part").map_groups(global_,
                                                    batch_format="pandas"),
                       col_schema)


def snapshot_events_unrolled(
    events: ray.data.Dataset,
    conf: GroupByConf,
    ds_values: Sequence[str],
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Multi-day snapshot GroupBy: one row per (key, ds) with end-of-day
    accuracy — the reference's snapshotEventsBase unrolling (GroupBy.scala:
    143-168) expressed as a temporal join against a synthesized left grid of
    (distinct keys × requested days) with EOD query timestamps and
    DailyResolution tails."""
    keys = list(conf.key_columns)
    keys_ds = distinct_rows(events, keys, num_partitions)
    eods = {ds_val: (int(pd.Timestamp(ds_val).timestamp()) // 86400 + 1) * MILLIS_DAY
            for ds_val in ds_values}

    def explode_days(batch: pa.Table) -> pa.Table:
        n = len(batch)
        reps = len(eods)
        cols = {k: pa.concat_arrays([batch[k].combine_chunks()
                                     if isinstance(batch[k], pa.ChunkedArray)
                                     else batch[k]] * reps)
                for k in keys}
        ds_arr, ts_arr = [], []
        for ds_val, eod in sorted(eods.items()):
            ds_arr.extend([ds_val] * n)
            ts_arr.extend([eod] * n)
        cols["ds"] = pa.array(ds_arr, type=pa.string())
        cols["ts"] = pa.array(ts_arr, type=pa.int64())
        return pa.table(cols)

    grid = map_typed(keys_ds, explode_days)
    return temporal_join(grid, events,
                         replace(conf, accuracy=Accuracy.SNAPSHOT),
                         num_partitions=num_partitions)


def left_key_columns(jc: JoinConf) -> list[str]:
    """The left columns every part's keys map to (keyMapping,
    JoinBase.scala:87-101), in the parts' key order."""
    keys = None
    for part in jc.parts:
        r2l = part.right_to_left()
        cols = [r2l.get(k, k) for k in part.group_by.key_columns]
        if keys is None:
            keys = cols
        elif keys != cols:
            raise NotImplementedError(
                "parts with different left key sets need one join per key "
                "set; split the join")
    return keys or []


def compute_join(
    jc: JoinConf,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Full multi-part join: left ⟕ features of every joinPart, PITC, as
    one ``join_step`` plan."""
    keys = left_key_columns(jc)
    left = skew_filter(scan_source(jc.left), jc.skew_keys)
    parts = [StepPart(p.full_prefix, p.group_by,
                      scan_groupby_events(p.group_by), True)
             for p in jc.parts]
    out = join_step(left, keys, parts, num_partitions)
    return apply_derivations(
        map_typed(out, lambda t: t.drop_columns([FIRST])), jc.derivations)


def entity_snapshot_join(
    left: ray.data.Dataset,
    snapshots: ray.data.Dataset,
    keys: Sequence[str],
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    snapshot_lag_days: int = 1,
) -> ray.data.Dataset:
    """Events × daily entity snapshots: each left row (key, ts) joins the
    snapshot row of ``date(ts) − lag`` — "features as of yesterday end-of-day"
    (reference: spark/JoinBase.scala:70-130 joinWithLeft key matrix — events ×
    SNAPSHOT entities join on keys + ts_ds with the right shifted one day;
    spark/Extensions.scala:249-274 ts_ds derivation).

    Null-key contract: snapshot rows with a null key (or null ds) never
    match — SQL equality — while null-keyed LEFT rows survive with null
    features (``key_partitioned_join`` drops the snapshot side's null-key
    rows in its co-partition)."""
    lag_ms = snapshot_lag_days * MILLIS_DAY

    def add_join_ds(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        days = ((ts - lag_ms) // MILLIS_DAY).astype("datetime64[D]")
        return t.append_column("_join_ds", pa.array(
            np.datetime_as_string(days, unit="D"), pa.string()))

    def rename_ds(t: pa.Table) -> pa.Table:
        return t.rename_columns(["_join_ds" if c == "ds" else c
                                 for c in t.column_names])

    out = key_partitioned_join(map_typed(left, add_join_ds),
                               [map_typed(snapshots, rename_ds)],
                               keys=[*keys, "_join_ds"], how="left",
                               num_partitions=num_partitions)
    return map_typed(out, lambda t: t.drop_columns(["_join_ds"]))


def label_join(
    features: ray.data.Dataset,
    label_events: ray.data.Dataset,
    conf: GroupByConf,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    features_schema: Optional[pa.Schema] = None,
    labels_schema: Optional[pa.Schema] = None,
) -> ray.data.Dataset:
    """Forward-looking label attachment (reference: spark/LabelJoin.scala:
    35-284 — label GroupBys joined back to feature rows over a future
    window): for each feature row (key, ts) and each AggregationPart with
    window W, aggregate label events with ``ts < e.ts ≤ hop_round_up(ts+W)``.

    Implemented by **time reversal** of the PITC engine: negate both sides'
    timestamps and run the strict as-of join — "strictly before" in negated
    time is "strictly after" in real time, and the hop-rounded tail becomes
    the hop-rounded end of the label window. No second engine.

    Order-dependent ops are **mirrored** before running the negated engine
    (FIRST↔LAST, FIRST_K↔LAST_K): "latest label" = smallest negated ts =
    FIRST in negated time. The mirrored K-list ordering also comes out
    right: FIRST_K ascending on −ts == LAST_K descending on ts. Numeric
    tie-break columns are negated alongside ts; TOP_K/BOTTOM_K order by
    value and are unaffected.
    """
    from ..api import Operation
    from ..util import dataset_schema as _ds

    features_schema = features_schema or _ds(features)
    labels_schema = labels_schema or _ds(label_events)
    # negated time has no day boundaries: label windows stay event-accurate
    conf = replace(conf, accuracy=Accuracy.TEMPORAL)

    _MIRROR = {Operation.FIRST: Operation.LAST,
               Operation.LAST: Operation.FIRST,
               Operation.FIRST_K: Operation.LAST_K,
               Operation.LAST_K: Operation.FIRST_K}
    order_dep = any(a.operation in _MIRROR for a in conf.aggregations)
    rename_back: dict[str, str] = {}
    neg_cols = ["ts"]
    if order_dep:
        new_aggs = []
        for a in conf.aggregations:
            if a.operation in _MIRROR:
                m = replace(a, operation=_MIRROR[a.operation])
                for orig_p, mir_p in zip(a.unpack(), m.unpack()):
                    rename_back[mir_p.output_name] = orig_p.output_name
                new_aggs.append(m)
            else:
                new_aggs.append(a)
        conf = replace(conf, aggregations=tuple(new_aggs))
        tb = conf.tie_break_column
        if tb is not None:
            f = labels_schema.field(tb)
            if not (pa.types.is_integer(f.type) or pa.types.is_floating(f.type)):
                raise NotImplementedError(
                    "label_join with FIRST/LAST parts needs a numeric "
                    f"tie_break_column to mirror ordering (got {f.type})")
            if any(a.input_column == tb for a in conf.aggregations):
                raise NotImplementedError(
                    "label_join: aggregating the tie_break column itself is "
                    "not supported with FIRST/LAST parts (its values are "
                    "negated to mirror ordering)")
            neg_cols.append(tb)

    def negate(t: pa.Table, cols=tuple(neg_cols)) -> pa.Table:
        for c in cols:
            if c not in t.column_names:
                continue
            v = t[c].to_numpy(zero_copy_only=False)
            idx = t.column_names.index(c)
            t = t.set_column(idx, c, pa.array(-v))
        return t

    # the tie-break column is only mirrored on the label (event) side —
    # a same-named passthrough column on the left must come out untouched
    f_neg = features.map_batches(
        lambda t: negate(t, cols=("ts",)), batch_format="pyarrow")
    l_neg = label_events.map_batches(negate, batch_format="pyarrow")
    out = temporal_join(f_neg, l_neg, conf, num_partitions=num_partitions,
                        left_schema=features_schema,
                        right_schema=labels_schema)

    def unnegate(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = t.column_names.index("ts")
        t = t.set_column(idx, "ts", pa.array(-ts))
        if rename_back:
            t = t.rename_columns([rename_back.get(c, c)
                                  for c in t.column_names])
        return t

    return out.map_batches(unnegate, batch_format="pyarrow")


def pad_external_parts(ds: ray.data.Dataset,
                       fields: Sequence[pa.Field]) -> ray.data.Dataset:
    """Offline stand-in for online-only external/contextual parts: append the
    declared fields as typed NULL columns (reference: spark/Join.scala:93-123
    — external parts are fetch-time lookups; offline output pads them)."""

    def pad(t: pa.Table) -> pa.Table:
        for f in fields:
            if f.name not in t.column_names:
                t = t.append_column(f.name, pa.nulls(len(t), type=f.type))
        return t

    return map_typed(ds, pad)


class _CoalescedMerge:
    """Per-partition left⟕right merge that COALESCES same-named value
    columns (left value wins when present) and records which bootstrap rows
    matched — the reference's coalescedJoin + matched_hashes lineage
    (spark/JoinUtils.scala:137-172; spark/Join.scala:588-593)."""

    __name__ = "CoalescedMerge"

    def __init__(self, keys: Sequence[str], left: pa.Schema,
                 right: pa.Schema, out_schema: pa.Schema, part_hash: str):
        self.keys = list(keys)
        self.left, self.right = left, right  # each side's own schema
        self.out_schema = out_schema
        self.part_hash = part_hash

    def __call__(self, tbl: pa.Table) -> pa.Table:
        left = side(tbl, 0, self.left).to_pandas()
        right = side(tbl, 1, self.right).to_pandas()
        right = right.drop_duplicates(self.keys)
        shared = [c for c in self.right.names
                  if c in self.left.names and c not in self.keys]
        merged = left.merge(right, on=self.keys, how="left",
                            suffixes=("", "__bs"), indicator="_matched")
        hit = (merged["_matched"] == "both").to_numpy()
        for c in shared:
            bs = merged[f"{c}__bs"]
            merged[c] = merged[c].combine_first(bs)
            merged = merged.drop(columns=[f"{c}__bs"])
        merged = merged.drop(columns=["_matched"])
        # matched_hashes: accumulate this bootstrap's hash on covered rows
        prev = merged["matched_hashes"] if "matched_hashes" in merged \
            else [None] * len(merged)
        merged["matched_hashes"] = [
            ((list(p) if isinstance(p, (list, np.ndarray)) else [])
             + ([self.part_hash] if h else [])) or None
            for p, h in zip(prev, hit)
        ]
        return pandas_to_arrow(merged[self.out_schema.names],
                               {f.name: f.type for f in self.out_schema})


def bootstrap_join(
    left: ray.data.Dataset,
    bootstrap: ray.data.Dataset,
    row_ids: Sequence[str],
    part_hash: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """left ⟕ one bootstrap table on row_ids, coalescing shared columns and
    recording ``matched_hashes`` lineage (reference Join.scala:517-609).
    A bootstrap row with a null row id never matches (the reference's
    equi-join), so a left row with one stays uncovered."""
    sides = [Side(left, dataset_schema(left)),
             Side(bootstrap, dataset_schema(bootstrap))]
    key_types = {k: sides[0].schema.field(k).type for k in row_ids}
    ls, rs = (s.own(key_types) for s in sides)
    # the merge's columns: the left's, the bootstrap's own, the lineage
    out = [*ls, *(f for f in rs if f.name not in ls.names)]
    if "matched_hashes" not in ls.names:
        out.append(pa.field("matched_hashes", pa.list_(pa.string())))
    out = pa.schema(out)
    return copartition(sides, key_types, row_ids, num_partitions,
                       _CoalescedMerge(row_ids, ls, rs, out, part_hash), out)


def compute_join_bootstrapped(
    jc: JoinConf,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """compute_join with the bootstrap lifecycle (reference Join.computeJoin
    steps 4-6, Join.scala:48-63, 135-216, 517-635):

    1. the left, with a typed null column per feature, ⟕ each bootstrap
       table on row_ids (coalesce + matched_hashes);
    2. one ``join_step`` over the booted left computes each part only for
       the (keys, ts) of rows whose bootstrap columns are incomplete
       (covering-set analysis, in the kernel), under ``COMPUTED`` names;
    3. computed features coalesce INTO the bootstrap columns (bootstrap
       wins where present).
    """
    import hashlib

    if not jc.bootstrap_parts:
        return compute_join(jc, num_partitions)
    if not jc.row_ids:
        raise ValueError(f"bootstrap join {jc.name!r} needs JoinConf.row_ids")
    keys = left_key_columns(jc)
    parts = [StepPart(p.full_prefix, p.group_by,
                      scan_groupby_events(p.group_by), True,
                      covered=tuple(f"{p.full_prefix}_{a.output_name}"
                                    for a in p.group_by.parts()))
             for p in jc.parts]
    # the left carries typed columns for every feature so coalescing is
    # well-defined even for rows no bootstrap covers
    fields = [f for p in parts for f in feature_fields(p)]
    booted = pad_external_parts(
        skew_filter(scan_source(jc.left), jc.skew_keys), fields)
    for bp in jc.bootstrap_parts:
        bds = bp.table if isinstance(bp.table, ray.data.Dataset) \
            else _read_parquet(bp.table)
        h = hashlib.md5(repr(bp).encode()).hexdigest()[:12]
        booted = bootstrap_join(booted, bds,
                                row_ids=list(bp.row_ids or jc.row_ids),
                                part_hash=h, num_partitions=num_partitions)
    out = join_step(booted, keys, parts, num_partitions)

    def coalesce(t: pa.Table, names=tuple(f.name for f in fields)):
        for c in names:
            t = t.set_column(t.column_names.index(c), c,
                             pc.coalesce(t[c], t[c + COMPUTED]))
        return t.drop_columns([FIRST, *(c + COMPUTED for c in names)])

    return apply_derivations(map_typed(out, coalesce), jc.derivations)


# ------------------------------------------------- label lifecycle


def label_join_versioned(
    features: ray.data.Dataset,
    label_events: ray.data.Dataset,
    conf: GroupByConf,
    label_ds: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    **kw,
) -> ray.data.Dataset:
    """One label-table VERSION (reference spark/LabelJoin.scala:35-120 —
    labels computed as of a label_ds land in a label_ds-stamped partition):
    label events are truncated to those visible by end of ``label_ds`` and
    the output rows are stamped with the version column, so successive
    label_ds runs materialize side by side and can be compared/upgraded."""
    eod = (int(pd.Timestamp(label_ds).timestamp()) // 86_400 + 1) * 86_400_000

    def visible(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(ts < eod))

    labels_cut = label_events.map_batches(visible, batch_format="pyarrow")
    out = label_join(features, labels_cut, conf,
                     num_partitions=num_partitions, **kw)
    return out.map_batches(
        lambda t: t.append_column("label_ds",
                                  pa.array([label_ds] * len(t))),
        batch_format="pyarrow")


def latest_label_view(
    versions: Sequence[ray.data.Dataset],
    keys: Sequence[str],
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> ray.data.Dataset:
    """The LATEST label per feature row across label_ds versions
    (reference LabelJoin's labeled-latest view): union the version tables,
    hash-partition on the row identity (keys + ts) and keep the row with
    the max label_ds. One shuffle; versions can be lazily-read partitions."""
    ident = [*keys, "ts"]
    unioned = versions[0].union(*versions[1:]) if len(versions) > 1 \
        else versions[0]

    # hash UNIFIED identity types: independently-persisted versions may
    # disagree on declared dtypes for the same column (e.g. one written
    # from a null-padded pandas frame as double) — without this, the same
    # identity lands in different partitions and keep_latest never
    # compares the versions
    ident_types = {c: dataset_schema(versions[0]).field(c).type
                   for c in ident}

    def tag(t: pa.Table) -> pa.Table:
        # canonical block hash: a null-bearing block must not split an
        # identity across partitions (keep_latest would emit duplicates)
        part = block_part_hash(t, ident, num_partitions,
                               types_by_name=ident_types)
        return t.append_column("_part", pa.array(part))

    def keep_latest(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("label_ds", kind="stable")
        # dropna=False: a null-keyed feature identity is still an identity
        # — the default pandas groupby would silently drop the row from
        # the latest view entirely
        out = pdf.groupby(ident, sort=False, as_index=False,
                          dropna=False).tail(1)
        return out.drop(columns=["_part"])

    keep_latest.__name__ = "keep_latest"
    return unioned.map_batches(tag, batch_format="pyarrow") \
        .groupby("_part").map_groups(keep_latest, batch_format="pandas")
