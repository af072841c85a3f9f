"""Source scanning: Parquet → ray.data.Dataset with query rendering.

Analog of the reference's rendered source query (reference:
spark/src/main/scala/ai/chronon/spark/GroupBy.scala:608-680
renderDataSourceQuery; api/QueryUtils.scala:20-57) re-expressed as: partition
pruning by path selection → `ray.data.read_parquet(columns=...)` → vectorized
`map_batches` projection/filter. For SNAPSHOT event sources without a time
column the end-of-day timestamp `(epoch(ds)+1d)*1000-1` is synthesized
(GroupBy.scala:640-652).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.datasource.parquet_meta_provider import (
    ParquetMetadataProvider, _fetch_metadata)

from .api import EntitySource, EventSource, Source, TQuery
from .util import dataset_schema, map_typed, known_schema, with_schema

#: reserved column names (reference api/Constants.scala:22-28)
TS_COL = "ts"
DS_COL = "ds"
#: a table's archived partitions: ``<table>/_archived/<run>/ds=YYYY-MM-DD/``
#: (``state.lineage.archive_mismatched``); no scan or listing reads them
ARCHIVE_DIR = "_archived"

MILLIS_DAY = 86_400_000


def _strip_schema_metadata(t: pa.Table) -> pa.Table:
    """Drop schema-level metadata (zero-copy). Parquet written by pandas
    carries a `pandas` metadata blob that makes `hash(pa.Schema)` raise in
    this pyarrow version, which defeats Ray Data's schema-dedup fast path
    on EVERY block unify (and spams 'Failed to hash the schemas' from sort
    reduce workers where no driver-side logging filter can reach)."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


class _DriverFooters(ParquetMetadataProvider):
    """Reads every parquet footer on the driver, as Ray itself does for up
    to 24 files. Above that Ray fetches them in tasks of 0.5 CPU, two of
    which run at once on one CPU: each such read then starts a second
    worker process, whose life (and ~200 MB resident set) follows the
    worker pool's timing, not the plan."""

    def prefetch_file_metadata(self, fragments, **ray_remote_args):
        return _fetch_metadata(fragments)


def _read_parquet(*args, **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with the footers read on the driver."""
    with warnings.catch_warnings():
        # ``meta_provider`` is deprecated upstream but still honoured
        warnings.simplefilter("ignore", DeprecationWarning)
        return ray.data.read_parquet(*args, meta_provider=_DriverFooters(),
                                     **kwargs)


def read_parquet(*args, **kwargs) -> ray.data.Dataset:
    """`ray.data.read_parquet` + schema-metadata strip (fuses with the
    read task; ~free). Use this everywhere instead of the raw reader so
    downstream exchanges unify hashable schemas.

    The stripped schema, which the reader knows from the parquet footers
    without executing anything, is stashed on the returned Dataset
    (``util.dataset_schema``)."""
    raw = _read_parquet(*args, **kwargs)
    out = raw.map_batches(_strip_schema_metadata, batch_format="pyarrow")
    sch = known_schema(raw)
    return with_schema(out, sch) if sch is not None else out


def clip_ds_range(ds: ray.data.Dataset,
                  start: Optional[str],
                  end: Optional[str]) -> ray.data.Dataset:
    """Row-level [start, end] day clip: by the ``ds`` column if present,
    else by the ``ts`` day.  Hive-partitioned scans already prune at the
    path level — this makes the same bounds hold for FLAT parquet files,
    where ``scan_table`` has no path to prune (a no-op when both bounds
    are None or neither column exists)."""
    if start is None and end is None:
        return ds
    names = dataset_schema(ds).names
    lo_ms = (None if start is None
             else int(np.datetime64(start, "ms").astype(np.int64)))
    hi_ms = (None if end is None
             else int(np.datetime64(end, "ms").astype(np.int64)) + MILLIS_DAY)

    if "ds" in names:
        def clip(t: pa.Table, _s=start, _e=end) -> pa.Table:
            vals = t["ds"].to_pylist()
            mask = [(v is not None
                     and (_s is None or v >= _s)
                     and (_e is None or v <= _e)) for v in vals]
            return t.filter(pa.array(mask))
    elif TS_COL in names:
        def clip(t: pa.Table, _l=lo_ms, _h=hi_ms) -> pa.Table:
            import pyarrow.compute as pc
            col = t[TS_COL]
            if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
                # datetime64[ns] → astype(int64) would be NANOseconds and
                # the millis bounds would silently keep everything (or
                # nothing) — canonicalize through timestamp('ms') first,
                # as consistency_job.after_start does; the cast truncates
                # sub-ms parts (a safe cast raises on them)
                col = pc.cast(pc.cast(col, pa.timestamp("ms"), safe=False),
                              pa.int64())
            ts = col.to_numpy(zero_copy_only=False).astype(np.int64)
            mask = np.ones(len(t), dtype=bool)
            if _l is not None:
                mask &= ts >= _l
            if _h is not None:
                mask &= ts < _h
            return t.filter(pa.array(mask))
    else:
        return ds
    clip.__name__ = "clip_ds_range"
    return with_schema(ds.map_batches(clip, batch_format="pyarrow"),
                       dataset_schema(ds))


def partition_paths(
    table: str,
    start: Optional[str] = None,
    end: Optional[str] = None,
    partition_col: str = DS_COL,
) -> list[str]:
    """Resolve a table path to concrete parquet paths with ds-range pruning.

    A table is either a single parquet file or a directory of
    ``ds=YYYY-MM-DD/`` subdirs (the Hive-partitioned layout the reference
    assumes everywhere — spark/TableUtils.scala:291-295). Pruning == path
    selection; no footer is touched for out-of-range days. Archived
    partitions are never selected, so a table whose every partition is
    archived selects nothing.
    """
    if os.path.isfile(table) or table.endswith(".parquet"):
        return [table]
    entries = os.listdir(table)
    subdirs = sorted(d for d in entries if d.startswith(f"{partition_col}="))
    if not subdirs and ARCHIVE_DIR not in entries:
        return [table]
    picked = []
    for d in subdirs:
        ds_val = d.split("=", 1)[1]
        if start is not None and ds_val < start:
            continue
        if end is not None and ds_val > end:
            continue
        picked.append(os.path.join(table, d))
    return picked


def _footer_schema(table: str, partition_col: str) -> Optional[pa.Schema]:
    """Arrow schema from ONE parquet footer of a table: the file itself,
    or the first file of the first ``partition_col=`` directory of a
    hive-layout table (of the newest archived one when every partition is
    archived), or the first parquet file under a flat directory."""
    import glob

    import pyarrow.parquet as pq

    if os.path.isfile(table):
        return pq.read_schema(table)
    roots = partition_paths(table, partition_col=partition_col) or sorted(
        glob.glob(os.path.join(glob.escape(table), ARCHIVE_DIR, "*",
                               f"{partition_col}=*")), reverse=True)
    for root in roots:
        for f in sorted(os.listdir(root)):
            if f.endswith(".parquet") and not f.startswith(("_", ".")):
                return pq.read_schema(os.path.join(root, f))
    return None


def list_partitions(table: str, partition_col: str = DS_COL) -> list[str]:
    if os.path.isfile(table) or table.endswith(".parquet"):
        return []
    return sorted(
        d.split("=", 1)[1] for d in os.listdir(table) if d.startswith(f"{partition_col}=")
    )


class _Render:
    """Vectorized select/where application, one call per Arrow batch."""

    def __init__(self, query: TQuery, keep_columns: Optional[Sequence[str]] = None,
                 synthesize_eod_ts: bool = False):
        self.query = query
        self.keep = list(keep_columns) if keep_columns else None
        self.synthesize_eod_ts = synthesize_eod_ts

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _strip_schema_metadata(batch)
        q = self.query
        if getattr(q, "setups", ()):
            from .expr import ensure_setups

            ensure_setups(q.setups)
        for where in q.wheres:
            mask = where(batch)
            if isinstance(mask, np.ndarray):
                mask = pa.array(mask)
            batch = batch.filter(mask)
        if q.selects is not None:
            arrays, names = [], []
            for out_name, expr in q.selects:
                if isinstance(expr, str):
                    arr = batch[expr]
                else:
                    arr = expr(batch)
                    if isinstance(arr, np.ndarray):
                        arr = pa.array(arr)
                arrays.append(arr)
                names.append(out_name)
            batch = pa.table(dict(zip(names, arrays)))
        if q.time_column != TS_COL and q.time_column in batch.column_names:
            idx = batch.column_names.index(q.time_column)
            batch = batch.set_column(idx, TS_COL, batch.column(idx))
        if TS_COL in batch.column_names:
            ts = batch[TS_COL]
            if pa.types.is_timestamp(ts.type):
                ts = pc.cast(pc.cast(ts, pa.int64()), pa.int64())
                unit = batch[TS_COL].type.unit
                div = {"s": 0.001, "ms": 1, "us": 1000, "ns": 1_000_000}[unit]
                if div != 1:
                    ts = pc.cast(pc.divide(ts, int(div)) if div > 1 else pc.multiply(ts, 1000),
                                 pa.int64())
                batch = batch.set_column(batch.column_names.index(TS_COL), TS_COL, ts)
        elif self.synthesize_eod_ts and DS_COL in batch.column_names:
            # EOD ts for snapshot/cumulative event tables (GroupBy.scala:640-652)
            days = pc.cast(pc.strptime(batch[DS_COL], format="%Y-%m-%d", unit="ms"), pa.int64())
            eod = pc.add(days, MILLIS_DAY - 1)
            batch = batch.append_column(TS_COL, eod)
        if self.keep:
            keep = [c for c in self.keep if c in batch.column_names]
            batch = batch.select(keep)
        return batch


TARGET_BLOCK_BYTES = 32 << 20  # ~32 MiB input per block


def _estimate_blocks(paths: Sequence[str]) -> int:
    """Block count sized to data volume. Ray's default parallelism creates
    ~200 blocks even for tiny files, and each downstream sort/groupby task
    then pays fixed overhead per near-empty block — measurably dominating
    small-to-medium scans. One block per ~32 MiB, capped."""
    total = 0
    for p in paths:
        if os.path.isfile(p):
            total += os.path.getsize(p)
        else:
            for root, _dirs, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(root, f))
                             for f in files if f.endswith(".parquet"))
    return max(1, min(1000, total // TARGET_BLOCK_BYTES + 1))


def scan_table(
    table: str,
    query: TQuery = TQuery(),
    columns: Optional[Sequence[str]] = None,
    keep_columns: Optional[Sequence[str]] = None,
    synthesize_eod_ts: bool = False,
    override_num_blocks: Optional[int] = None,
) -> ray.data.Dataset:
    """read_parquet with partition pruning + column pruning, then render.

    A ds-partitioned dir is read as the partition dirs ``partition_paths``
    selects (pruned at the path level: no out-of-range or archived footer
    is touched), and the partition column is injected by Ray's hive
    partitioning. A requested column the table lacks raises ``KeyError``.

    The output schema is stashed at plan time (``util.dataset_schema``):
    the read's footer schema, projected to ``columns``, rendered through
    the query on a zero-row table. Empty and non-empty ranges share that
    typing path."""
    part_col = query.partition_column
    paths = partition_paths(table, query.start_partition, query.end_partition,
                            part_col)
    read_cols = list(columns) if columns else None
    blocks = override_num_blocks or _estimate_blocks(paths)
    is_partitioned_dir = paths != [table]
    render = _Render(query, keep_columns, synthesize_eod_ts)
    if is_partitioned_dir and not paths:
        # the range matched NO partitions: read_parquet over zero files
        # yields a dataset with UNKNOWN schema. Return an empty dataset
        # typed from one footer, so an empty day range behaves like any
        # other empty-but-typed scan — e.g. an incremental-backfill
        # bootstrap window before the first event day
        sch = _footer_schema(table, part_col)
        if sch is not None:
            if part_col not in sch.names:
                sch = sch.append(pa.field(part_col, pa.string()))
            if read_cols:
                missing = [c for c in read_cols if c not in sch.names]
                if missing:
                    raise KeyError(f"Column {missing[0]} does not exist in "
                                   f"schema of {table}")
                sch = pa.schema([sch.field(c) for c in read_cols])
            rendered = render(_hive_order(sch, part_col).empty_table())
            return with_schema(ray.data.from_arrow(rendered),
                               rendered.schema)
    # the selected partition dirs are listed without pyarrow's "_"-prefix
    # ignore rule: file_extensions keeps their lineage _MANIFEST.json
    # files out of the read. Ray's hive partitioning injects the column.
    raw = _read_parquet(
        paths, columns=read_cols, override_num_blocks=blocks,
        file_extensions=["parquet"] if is_partitioned_dir else None)
    out = raw.map_batches(render, batch_format="pyarrow")
    sch = known_schema(raw)
    if sch is None:
        return out
    if read_cols and is_partitioned_dir:
        sch = _hive_order(sch, part_col)
    return with_schema(out, render(sch.empty_table()).schema)


def _hive_order(sch: pa.Schema, part_col: str) -> pa.Schema:
    """The hive partition column comes last in every block, whatever the
    order of ``columns=`` (the reader's declared schema keeps the
    requested order)."""
    if part_col not in sch.names:
        return sch
    i = sch.get_field_index(part_col)
    return sch.remove(i).append(sch.field(i))


def scan_source(
    source: Source,
    columns: Optional[Sequence[str]] = None,
    keep_columns: Optional[Sequence[str]] = None,
) -> ray.data.Dataset:
    if isinstance(source, EventSource):
        query = source.query
        if source.is_cumulative:
            # cumulative/snapshot-style event table: the latest partition
            # holds all history — scan only it (reference GroupBy.scala:
            # 565-606 getIntersectedRange cumulative branch)
            parts = list_partitions(source.table, query.partition_column)
            if parts:
                latest = parts[-1] if query.end_partition is None else \
                    max(p for p in parts if p <= query.end_partition)
                query = TQuery(selects=query.selects, wheres=query.wheres,
                               time_column=query.time_column,
                               start_partition=latest, end_partition=latest,
                               partition_column=query.partition_column)
        return scan_table(source.table, query, columns, keep_columns,
                          synthesize_eod_ts=True)
    from .api import JoinSource

    if isinstance(source, JoinSource):
        # chained join: the upstream Join computes lazily and its output
        # streams through this source's select/where rendering
        from .pipelines.joins import compute_join

        return map_typed(compute_join(source.join),
                         _Render(source.query, keep_columns))
    return scan_table(source.snapshot_table, source.query, columns, keep_columns)


def scan_groupby_events(conf, partition_range: Optional[tuple] = None
                        ) -> ray.data.Dataset:
    """The union of every source of GroupBy ``conf``, each read with only
    the columns its aggregation needs (``required_columns``), typed as the
    first source. ``partition_range`` (start, end) — start None for all
    history — replaces each source's own range."""
    from dataclasses import replace

    out = None
    for src in conf.sources:
        if partition_range is not None:
            q = replace(src.query or TQuery(),
                        start_partition=partition_range[0],
                        end_partition=partition_range[1])
            src = replace(src, query=q)
        s = scan_source(src, columns=required_columns(src, conf))
        out = s if out is None else with_schema(out.union(s),
                                                dataset_schema(out))
    return out


def groupby_columns(conf) -> set[str]:
    """Columns a GroupBy's aggregation reads from its rendered source:
    keys, ``ts``, part inputs, buckets and the tie-break column."""
    cols = {*conf.key_columns, TS_COL}
    for p in conf.parts():
        cols.add(p.input_column)
        if p.bucket is not None:
            cols.add(p.bucket)
    if conf.tie_break_column:
        cols.add(conf.tie_break_column)
    return cols


def required_columns(source: Source, conf) -> Optional[list[str]]:
    """Physical columns a scan of GroupBy ``conf``'s ``source`` must read:
    the key, time, part input, bucket and tie-break columns — or, when the
    query has selects, every column its string selects read. None (read
    every column) when a select or where is a callable, whose inputs are
    unknown. Pushed into ``read_parquet(columns=...)`` so payload columns
    no aggregation reads are never read.

    Optional columns are checked against one footer: the tie-break and
    time columns are read only where present, and an event table without
    its time column reads the partition column instead (its end-of-day ts
    is synthesized from it)."""
    if not isinstance(source, (EventSource, EntitySource)):
        return None
    query = source.query
    if query.wheres:
        return None
    if query.selects is not None:
        if not all(isinstance(e, str) for _o, e in query.selects):
            return None
        return sorted({e for _o, e in query.selects})
    table = source.table if isinstance(source, EventSource) \
        else source.snapshot_table
    footer = _footer_schema(table, query.partition_column)
    if footer is None:
        return None
    cols = groupby_columns(conf) - {TS_COL, conf.tie_break_column}
    if conf.tie_break_column in footer.names:
        cols.add(conf.tie_break_column)
    if query.time_column in footer.names:
        cols.add(query.time_column)
    elif isinstance(source, EventSource):
        cols.add(query.partition_column)
    return sorted(cols)
