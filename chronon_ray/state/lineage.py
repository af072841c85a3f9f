"""Per-partition lineage + metrics records and atomic partitioned writes.

The filesystem replaces the reference's Hive metastore: each output day
partition is a ``ds=YYYY-MM-DD/`` directory written atomically (tmp dir +
rename) with a ``_MANIFEST.json`` recording the input range, the semantic
config hash, row counts and wall metrics — the resume unit (reference analog:
TableUtils.scala:480-534 insertPartitions + TBLPROPERTIES semantic hashes,
spark/SemanticHashUtils.scala; JoinBase.scala:59-68). A re-run with the same
config hash skips complete partitions; a changed hash archives them.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

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
    (semantic-hash invalidation — reference JoinBase.scala:502-518)."""
    archived = []
    if not os.path.isdir(out_dir):
        return archived
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith(f"{partition_col}="):
            continue
        ds = d.split("=", 1)[1]
        m = read_manifest(out_dir, ds, partition_col)
        if m is not None and m.get("config_hash") != config_hash:
            src = partition_dir(out_dir, ds, partition_col)
            dst = f"{src}.archived.{int(time.time())}"
            shutil.move(src, dst)
            archived.append(ds)
    return archived


def write_partitioned(
    ds_or_table,
    out_dir: str,
    config_hash: str,
    input_range: Optional[tuple] = None,
    partition_col: str = "ds",
    metrics: Optional[dict] = None,
    step_start: Optional[float] = None,
) -> dict[str, dict]:
    """Write a Dataset/Table with a `ds` column into per-day dirs, atomically,
    each with a lineage manifest. Returns {ds: manifest}.

    Write path: stream into a tmp dir (ray write_parquet with partition_cols
    keeps it distributed), then per-partition rename into place — a crashed
    run leaves either the old complete partition or nothing, never a torn
    one. Completed partitions are the resume unit.

    Every written file's footer must carry the schema the Dataset declared
    at plan time (``util.dataset_schema``; without a declared schema, the
    first file's) minus ``partition_col``, by column names and types — a
    mismatch raises before any partition is marked complete.

    ``step_start`` (a ``time.perf_counter()`` value) records the caller's
    step wall time, taken after the write executed, as ``step_wall_sec``."""
    t0 = time.perf_counter()
    tmp = os.path.join(out_dir, f"_tmp.{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    if isinstance(ds_or_table, pa.Table):
        tbl = ds_or_table
        declared = tbl.schema
        ds_vals = tbl[partition_col].to_pandas().unique()
        for v in ds_vals:
            import pyarrow.compute as pc

            sub = tbl.filter(pc.equal(tbl[partition_col], v))
            pdir = os.path.join(tmp, f"{partition_col}={v}")
            os.makedirs(pdir, exist_ok=True)
            pq.write_table(sub.drop_columns([partition_col]),
                           os.path.join(pdir, "part-0.parquet"))
    else:
        declared = known_schema(ds_or_table)
        ds_or_table.write_parquet(tmp, partition_cols=[partition_col])
    wall = time.perf_counter() - t0
    expected = None if declared is None else [
        (f.name, f.type) for f in declared if f.name != partition_col]

    staged: list[tuple[str, str, int]] = []
    try:
        for d in sorted(os.listdir(tmp)):
            if not d.startswith(f"{partition_col}="):
                continue
            src = os.path.join(tmp, d)
            rows = 0
            for f in sorted(os.listdir(src)):
                if not f.endswith(".parquet"):
                    continue
                pf = pq.ParquetFile(os.path.join(src, f))
                rows += pf.metadata.num_rows
                got = [(fld.name, fld.type) for fld in pf.schema_arrow]
                if expected is None:
                    expected = got
                elif got != expected:
                    raise ValueError(
                        f"written file {d}/{f} has schema {got}, but the "
                        f"dataset declared {expected} — the plan-time "
                        "schema of the pipeline that produced it is wrong")
            staged.append((d.split("=", 1)[1], src, rows))
    except ValueError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    manifests: dict[str, dict] = {}
    step_wall = {} if step_start is None else {
        "step_wall_sec": round(time.perf_counter() - step_start, 3)}
    for ds_val, src, rows in staged:
        man = {
            "ds": ds_val,
            "config_hash": config_hash,
            "rows": rows,
            "input_range": list(input_range) if input_range else None,
            "write_wall_sec": round(wall, 3),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **(metrics or {}),
            **step_wall,
        }
        with open(os.path.join(src, MANIFEST), "w") as f:
            json.dump(man, f)
        dst = partition_dir(out_dir, ds_val, partition_col)
        if os.path.exists(dst):
            shutil.rmtree(dst)
        os.replace(src, dst)
        manifests[ds_val] = man
    shutil.rmtree(tmp, ignore_errors=True)
    return manifests
