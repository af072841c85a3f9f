"""Per-partition lineage + metrics records and atomic partitioned writes.

The filesystem replaces the reference's Hive metastore: each output day
partition is a ``ds=YYYY-MM-DD/`` directory written atomically (tmp dir +
rename) with a ``_MANIFEST.json`` recording the input range, the semantic
config hash, row counts and wall metrics — the resume unit (reference analog:
TableUtils.scala:480-534 insertPartitions + TBLPROPERTIES semantic hashes,
spark/SemanticHashUtils.scala; JoinBase.scala:59-68). A re-run with the same
config hash skips complete partitions; a changed hash archives them.

Every write goes through one Ray Data sink, ``LineageSink``: its write
tasks run fused into the plan's last operator and may fill several
target directories from one execution (a Join backfill step writes its
left cache, part caches and output this way).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockAccessor
from ray.data.datasource.datasink import Datasink, WriteResult

from ..sources import ARCHIVE_DIR
from ..util import known_schema

MANIFEST = "_MANIFEST.json"


def partition_dir(out_dir: str, ds: str, partition_col: str = "ds") -> str:
    return os.path.join(out_dir, f"{partition_col}={ds}")


def read_manifest(out_dir: str, ds: str, partition_col: str = "ds") -> Optional[dict]:
    p = os.path.join(partition_dir(out_dir, ds, partition_col), MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def completed_partitions(out_dir: str, config_hash: Optional[str] = None,
                         partition_col: str = "ds") -> list[str]:
    """ds values whose manifest exists (and matches config_hash if given)."""
    if not os.path.isdir(out_dir):
        return []
    out = []
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith(f"{partition_col}="):
            continue
        ds = d.split("=", 1)[1]
        m = read_manifest(out_dir, ds, partition_col)
        if m is None:
            continue
        if config_hash is not None and m.get("config_hash") != config_hash:
            continue
        out.append(ds)
    return out


def archive_mismatched(out_dir: str, config_hash: str,
                       partition_col: str = "ds") -> list[str]:
    """Partitions written under a different config hash are moved aside
    (semantic-hash invalidation — reference JoinBase.scala:502-518), to
    ``<out_dir>/_archived/<run>/``: one run dir per call, outside the
    partition namespace every scan and listing reads."""
    archived = []
    if not os.path.isdir(out_dir):
        return archived
    run = os.path.join(out_dir, ARCHIVE_DIR,
                       f"{int(time.time())}-{uuid.uuid4().hex[:12]}")
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith(f"{partition_col}="):
            continue
        ds = d.split("=", 1)[1]
        m = read_manifest(out_dir, ds, partition_col)
        if m is not None and m.get("config_hash") != config_hash:
            os.makedirs(run, exist_ok=True)
            shutil.move(partition_dir(out_dir, ds, partition_col), run)
            archived.append(ds)
    return archived


@dataclass(frozen=True)
class Target:
    """One directory a lineage write fills: one ``<partition_col>=<value>/``
    dir per partition, each with a manifest.

    ``days`` keeps only the rows whose partition value it lists (None:
    every row); ``rows`` then maps the kept rows (a projection, a row
    selection, derivations). ``schema`` declares what ``rows`` returns:
    every written file's footer must carry it, without the partition
    column; None checks every file against the target's first one.

    With ``day`` set every row goes to that one partition and carries no
    partition column, and a write that returns no file writes
    ``schema``'s empty table there."""

    out_dir: str
    config_hash: Optional[str] = None
    input_range: Optional[tuple] = None
    metrics: Optional[dict] = None
    days: Optional[tuple] = None
    rows: Optional[Callable[[pa.Table], pa.Table]] = None
    schema: Optional[pa.Schema] = None
    day: Optional[str] = None


class LineageSink(Datasink):
    """Writes every target of one plan from the plan's own write tasks.

    Each write task applies every target's ``days``/``rows`` to its blocks,
    writes one parquet file per (target, partition) into the target's tmp
    dir and returns one record per file: (target index, partition value,
    path, rows, footer schema read back from the file). ``commit`` runs on
    the driver: it checks every footer before it moves anything, and it
    moves only the files the tasks returned — a file a failed or retried
    attempt left in a tmp dir never reaches a partition."""

    def __init__(self, targets: Sequence[Target], partition_col: str = "ds"):
        self.targets = list(targets)
        self.partition_col = partition_col
        tag = uuid.uuid4().hex[:8]
        self.tmp_dirs = [os.path.join(t.out_dir, f"_tmp.{tag}")
                         for t in self.targets]
        self.records: list[tuple] = []

    def on_write_start(self) -> None:
        for d in self.tmp_dirs:
            os.makedirs(d, exist_ok=True)

    def write(self, blocks: Iterable, ctx) -> list[tuple]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if tables and all(t.schema == tables[0].schema for t in tables):
            tables = [pa.concat_tables(tables)]
        task = getattr(ctx, "task_idx", 0)
        out = []
        for tbl in tables:
            for i, target in enumerate(self.targets):
                for day, part in self._partitions(target, tbl):
                    d = os.path.join(self.tmp_dirs[i],
                                     f"{self.partition_col}={day}")
                    os.makedirs(d, exist_ok=True)
                    path = os.path.join(
                        d, f"part-{task:05d}-{uuid.uuid4().hex[:8]}.parquet")
                    pq.write_table(part, path)
                    pf = pq.ParquetFile(path)
                    out.append((i, day, path, pf.metadata.num_rows,
                                pf.schema_arrow))
        return out

    def _partitions(self, target: Target, tbl: pa.Table):
        """(partition value, rows without the partition column) of
        ``target`` in ``tbl``."""
        pcol = self.partition_col
        if target.days is not None:
            tbl = tbl.filter(pc.is_in(
                pc.cast(tbl[pcol], pa.string()),
                value_set=pa.array(target.days, pa.string())))
        if target.rows is not None:
            tbl = target.rows(tbl)
        if not tbl.num_rows:
            return []
        if target.day is not None:
            return [(target.day, tbl)]
        col = tbl[pcol]
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if col.null_count:
            raise ValueError(f"{col.null_count} rows have a null "
                             f"{pcol!r}: no partition can hold them")
        rest = tbl.drop_columns([pcol])
        return [(str(v.as_py()), rest.filter(pc.equal(col, v)))
                for v in pc.unique(col)]

    def on_write_complete(self, write_result: WriteResult) -> None:
        self.records = [r for rs in write_result.write_returns
                        for r in rs or ()]

    def commit(self, records: Sequence[tuple], wall: float,
               step_start: Optional[float] = None) -> list[dict[str, dict]]:
        """Check the footers of every target, then move each (target,
        partition)'s returned files into place with a manifest. Returns
        ``{partition value: manifest}`` per target."""
        pcol = self.partition_col
        expected = [None if t.schema is None else
                    [(f.name, f.type) for f in t.schema
                     if t.day is not None or f.name != pcol]
                    for t in self.targets]
        files: list[dict[str, list]] = [{} for _ in self.targets]
        for i, day, path, rows, schema in sorted(records,
                                                 key=lambda r: r[:3]):
            got = [(f.name, f.type) for f in schema]
            if expected[i] is None:
                expected[i] = got
            elif got != expected[i]:
                raise ValueError(
                    f"written file {pcol}={day}/{os.path.basename(path)} "
                    f"of {self.targets[i].out_dir} has schema {got}, but the "
                    f"dataset declared {expected[i]} — the plan-time schema "
                    "of the pipeline that produced it is wrong")
            files[i].setdefault(day, []).append((path, rows))

        step_wall = {} if step_start is None else {
            "step_wall_sec": round(time.perf_counter() - step_start, 3)}
        out = []
        for i, t in enumerate(self.targets):
            if t.day is not None and not files[i] and t.schema is not None:
                path = os.path.join(self.tmp_dirs[i], "part-0.parquet")
                pq.write_table(t.schema.empty_table(), path)
                files[i][t.day] = [(path, 0)]
            manifests: dict[str, dict] = {}
            for day, fs in sorted(files[i].items()):
                stage = os.path.join(self.tmp_dirs[i], f"_{pcol}={day}")
                os.makedirs(stage)
                for path, _ in fs:
                    os.replace(path, os.path.join(stage,
                                                  os.path.basename(path)))
                man = {
                    "ds": day,
                    "config_hash": t.config_hash,
                    "rows": sum(n for _, n in fs),
                    "input_range": (list(t.input_range) if t.input_range
                                    else None),
                    "write_wall_sec": round(wall, 3),
                    "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                time.gmtime()),
                    **(t.metrics or {}),
                    **step_wall,
                }
                with open(os.path.join(stage, MANIFEST), "w") as f:
                    json.dump(man, f)
                dst = partition_dir(t.out_dir, day, pcol)
                if os.path.exists(dst):
                    shutil.rmtree(dst)
                os.replace(stage, dst)
                manifests[day] = man
            out.append(manifests)
        return out

    def cleanup(self) -> None:
        for d in self.tmp_dirs:
            shutil.rmtree(d, ignore_errors=True)


def write_partitioned(
    data,
    out_dir: Union[str, Sequence[Target]],
    config_hash: Optional[str] = None,
    input_range: Optional[tuple] = None,
    partition_col: str = "ds",
    metrics: Optional[dict] = None,
    step_start: Optional[float] = None,
):
    """Write a Dataset/Table with a ``partition_col`` column into per-day
    dirs, atomically, each with a lineage manifest. Returns {ds: manifest}.

    ``out_dir`` is one directory — every row, ``config_hash``,
    ``input_range`` and ``metrics`` in its manifests — or a sequence of
    :class:`Target`; then one execution of ``data`` writes every target
    and the result is one {ds: manifest} per target.

    Write path: one :class:`LineageSink` — for a Dataset its write fuses
    into the plan's last operator, so ``write_wall_sec`` covers the fused
    compute and write; a Table goes through the same task code on the
    driver. Files land in tmp dirs, then each partition is renamed into
    place — a crashed run leaves either the old complete partition or
    nothing, never a torn one. Completed partitions are the resume unit.

    Every written file's footer must carry the schema its target declared
    (for one directory, the one the Dataset declared at plan time,
    ``util.dataset_schema``; without a declared schema, the first file's)
    minus ``partition_col``, by column names and types — a mismatch in
    any target raises before any partition of any target is marked
    complete.

    ``step_start`` (a ``time.perf_counter()`` value) records the caller's
    step wall time, taken after the write executed, as ``step_wall_sec``."""
    t0 = time.perf_counter()
    single = isinstance(out_dir, str)
    if single:
        declared = data.schema if isinstance(data, pa.Table) \
            else known_schema(data)
        targets = [Target(out_dir, config_hash, input_range, metrics,
                          schema=declared)]
    else:
        targets = list(out_dir)
    sink = LineageSink(targets, partition_col)
    try:
        if isinstance(data, pa.Table):
            sink.on_write_start()
            records = sink.write([data], None)
        else:
            data.write_datasink(sink)
            records = sink.records
        manifests = sink.commit(records, time.perf_counter() - t0,
                                step_start)
    finally:
        sink.cleanup()
    return manifests[0] if single else manifests
