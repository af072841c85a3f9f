"""Small shared helpers."""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray.data


def drop_null_key_rows(t: pa.Table, keys) -> pa.Table:
    """Data-side removeNulls (reference GroupBy.scala:181): drop rows
    where ANY key column is null. Shared by every operator with the
    engine-wide join contract — data-side null keys never match, while
    LEFT rows with null keys survive with null features."""
    import pyarrow.compute as pc

    mask = None
    for k in keys:
        if k in t.column_names:
            m = pc.is_valid(t[k])
            mask = m if mask is None else pc.and_(mask, m)
    return t.filter(mask) if mask is not None else t


def with_schema(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """Stash the plan-time output schema of ``ds`` (see
    :func:`dataset_schema`) and return ``ds``."""
    ds._chronon_schema = schema.remove_metadata()
    return ds


def known_schema(ds) -> Optional[pa.Schema]:
    """The schema of ``ds`` known without executing anything: the one a
    pipeline function declared, else the Arrow schema Ray knows from
    metadata (a parquet read, an in-memory Arrow dataset), else None."""
    stash = getattr(ds, "_chronon_schema", None)
    if isinstance(stash, pa.Schema):
        return stash
    base = getattr(ds.schema(fetch_if_missing=False), "base_schema", None)
    return base if isinstance(base, pa.Schema) else None


def map_typed(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    """``ds.map_batches(fn, batch_format="pyarrow")`` whose output schema
    is known at plan time: ``fn`` is applied once to a zero-row table of
    the input schema. For the engine's own column plumbing (select,
    rename, drop, filter, derived ``ds``), whose output types do not
    depend on the data. Executes nothing: an input of unknown schema
    gives an output of unknown schema."""
    out = ds.map_batches(fn, batch_format="pyarrow")
    sch = known_schema(ds)
    return out if sch is None else with_schema(out,
                                               fn(sch.empty_table()).schema)


def dataset_schema(ds: ray.data.Dataset) -> pa.Schema:
    """Arrow schema of a Dataset, known at plan time.

    Schema contract: every public pipeline function declares the schema
    of the Dataset it returns (``with_schema``), derived from its inputs'
    schemas and its declared output types — never from executing the
    plan. This returns that schema (or one Ray knows from metadata) first.
    Only a Dataset nothing typed falls back to ``Dataset.schema()``, which
    executes the plan up to its first block (all of it behind an
    exchange). ``state.lineage.write_partitioned`` checks the declared
    schema against the footer of every file it writes and raises on any
    difference, so a wrong declaration fails loudly at the first write.
    Zero-row pipelines, for which Ray reports no schema at all, keep
    their real one."""
    sch = known_schema(ds)
    if sch is None:
        sch = _arrow_schema(ds.schema())
    if sch is None:
        raise ValueError(
            "dataset has unknown schema (a zero-row pipeline?) — read "
            "inputs through chronon_ray.sources.read_parquet / scan_table "
            "so empty ranges stay typed")
    return sch


def _arrow_schema(sch) -> Optional[pa.Schema]:
    """A Ray ``Schema`` (Arrow- or pandas-backed) as an Arrow schema."""
    if sch is None:
        return None
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    # PandasBlockSchema — reconstruct from names/types
    fields = []
    for name, typ in zip(sch.names, sch.types):
        if isinstance(typ, pa.DataType):
            fields.append(pa.field(name, typ))
        else:
            try:
                fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append(pa.field(name, pa.string()))
    return pa.schema(fields)


def auto_partitions(*datasets: ray.data.Dataset, expansion: float = 1.0,
                    target_bytes: int = 256 << 20,
                    floor_per_cpu: int = 2) -> int:
    """Size a hash exchange over ``datasets`` without executing anything:
    enough partitions that one partition (~target_bytes after an
    `expansion`-fold blowup from the map stage) fits a worker heap at any
    input scale, floored at a multiple of the cluster CPU count so the
    straggler tail can pack. Sizes come from the plan's metadata, else from
    its read and in-memory leaves (parquet footers, block metadata); an
    input of unknown size gets the CPU floor."""
    import math

    import ray as _ray

    total = int(sum(_plan_size_bytes(d) for d in datasets) * expansion)
    cpus = int(_ray.cluster_resources().get("CPU", 8)) \
        if _ray.is_initialized() else 8
    return max(floor_per_cpu * cpus, math.ceil(total / target_bytes))


def _plan_size_bytes(ds: ray.data.Dataset) -> int:
    """Bytes of ``ds`` known from logical-plan metadata — the whole plan's
    if known (a read, materialized blocks), else the sum over its leaves.
    ``Dataset.size_bytes()`` would execute the plan in the second case."""
    dag = ds._logical_plan.dag
    size = dag.infer_metadata().size_bytes
    if size is not None:
        return size
    total, stack, seen = 0, [dag], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if op.input_dependencies:
            stack.extend(op.input_dependencies)
        else:
            total += op.infer_metadata().size_bytes or 0
    return total


def arrow_type_of(t) -> pa.DataType:
    """Coerce a ray Schema type entry (arrow DataType for arrow-backed
    datasets, numpy dtype / python type for pandas-backed ones) to an
    arrow DataType; object-ish types fall back to string."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()
