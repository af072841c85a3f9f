"""Historical backfill driver: range planning → per-step compute → atomic
partitioned write with lineage; resumable by partition diff.

The offline lifecycle of the reference's GroupBy/Join backfill (reference:
spark/GroupBy.scala:682-767 computeBackfill; spark/JoinBase.scala:478-549
computeJoin range planning; TableUtils.scala:779-858 unfilledRanges):

1. requested range ∩ available input partitions − already-written output
   partitions (same semantic hash) → contiguous unfilled chunks;
2. chunks sliced to ``step_days``;
3. per step: window-aware input scan ([step.start − max_window, step.end] —
   GroupBy.scala:565-606 getIntersectedRange), pipeline, atomic write with
   per-partition manifests (state/lineage.py);
4. a re-run recomputes nothing that is already complete; a config change
   (semantic hash) archives stale partitions first.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional, Sequence

import ray.data

from ..api import GroupByConf, UNBOUNDED
from ..sources import list_partitions, read_parquet as _read_parquet, scan_table
from ..state.lineage import archive_mismatched, completed_partitions, write_partitioned
from ..state.partitions import PartitionRange, shift_ds, unfilled_ranges
from ..util import map_typed

MILLIS_DAY = 86_400_000


def _partition_files(base_dir: str, days) -> list[str]:
    """Parquet files under ``base_dir/ds=<d>`` for every day PRESENT —
    the one cache-listing loop shared by the left-table and part-table
    readers (two hand-rolled copies could drift)."""
    files = []
    for d in days:
        sub = os.path.join(base_dir, f"ds={d}")
        if os.path.isdir(sub):
            files.extend(os.path.join(sub, f)
                         for f in sorted(os.listdir(sub))
                         if f.endswith(".parquet"))
    return files


def max_window_days(conf: GroupByConf) -> Optional[int]:
    """None = some window unbounded → scan all history (Extensions.scala
    WindowOps; GroupBy.scala:565-580)."""
    days = 0
    for p in conf.parts():
        if p.window.unbounded:
            return None
        days = max(days, math.ceil(p.window.millis / MILLIS_DAY))
    return days


def backfill_temporal_join(
    left_table: str,
    right_table: str,
    conf: GroupByConf,
    out_dir: str,
    start: str,
    end: str,
    step_days: int = 30,
    num_partitions: int = 64,
) -> dict:
    """Backfill PITC features for left rows with ds in [start, end].

    Returns a summary dict {steps, partitions_written, skipped, metrics}.
    """
    from .temporal import temporal_join

    config_hash = conf.semantic_hash()
    archived = archive_mismatched(out_dir, config_hash)
    done = completed_partitions(out_dir, config_hash)
    left_parts = list_partitions(left_table)
    requested = PartitionRange(start, end)
    chunks = unfilled_ranges(requested, done,
                             input_partitions=left_parts or None,
                             skip_first_hole=False)
    steps = [s for c in chunks for s in c.steps(step_days)]
    summary = {"steps": len(steps), "partitions_written": [], "archived": archived,
               "skipped": sorted(set(done) & set(requested.partitions())),
               "metrics": {}}
    w_days = max_window_days(conf)
    for step in steps:
        t0 = time.perf_counter()
        from ..api import TQuery
        from dataclasses import replace as _rep

        left = scan_table(left_table, TQuery(start_partition=step.start,
                                             end_partition=step.end))
        right_start = None if w_days is None else shift_ds(step.start, -w_days)
        right = scan_table(right_table, TQuery(start_partition=right_start,
                                               end_partition=step.end))
        out = temporal_join(left, right, conf, num_partitions=num_partitions)
        manifests = write_partitioned(out, out_dir, config_hash,
                                      input_range=(step.start, step.end),
                                      step_start=t0)
        summary["partitions_written"].extend(sorted(manifests))
        summary["metrics"][f"{step.start}..{step.end}"] = {
            "wall_sec": round(time.perf_counter() - t0, 3),
            "rows": sum(m["rows"] for m in manifests.values()),
        }
    return summary


def backfill_snapshot_groupby(
    source_table: str,
    conf: GroupByConf,
    out_dir: str,
    start: str,
    end: str,
    step_days: int = 30,
    num_partitions: int = 64,
) -> dict:
    """Daily-snapshot GroupBy backfill: one output row per (key, ds) with
    end-of-day accuracy (reference GroupBy.scala:143-168 snapshotEvents).

    Single-pass multi-day unrolling per chunk through
    ``snapshot_events_unrolled`` (one temporal-join execution computes every
    day of the chunk) and a STREAMED partitioned write — the pipeline never
    executes twice and nothing is concatenated on the driver."""
    import pyarrow as pa

    from ..api import TQuery
    from .joins import snapshot_events_unrolled

    config_hash = conf.semantic_hash()
    archive_mismatched(out_dir, config_hash)
    done = completed_partitions(out_dir, config_hash)
    requested = PartitionRange(start, end)
    chunks = unfilled_ranges(requested, done, skip_first_hole=False)
    w_days = max_window_days(conf)
    summary = {"partitions_written": [], "skipped": sorted(done)}
    feat_names = [p.output_name for p in conf.parts()]
    for chunk in chunks:
        for step in chunk.steps(step_days):
            t0 = time.perf_counter()
            src_start = None if w_days is None \
                else shift_ds(step.start, -(w_days - 1))
            src = scan_table(source_table,
                             TQuery(start_partition=src_start,
                                    end_partition=step.end))
            out = snapshot_events_unrolled(src, conf, step.partitions(),
                                           num_partitions=num_partitions)

            def drop_empty(t: pa.Table, names=tuple(feat_names)) -> pa.Table:
                """The unrolled grid emits every (key, day) pair; keep the
                per-day aggregate contract (a key appears only when it has
                rows in that day's window)."""
                import pyarrow.compute as pc

                mask = None
                for n in names:
                    v = pc.is_valid(t[n])
                    mask = v if mask is None else pc.or_(mask, v)
                return t.filter(mask) if mask is not None else t

            out = map_typed(out, drop_empty)
            # the unrolled grid carries the synthetic EOD ts — not part of
            # the snapshot output contract
            out = map_typed(out, lambda t: t.drop_columns(["ts"])
                            if "ts" in t.column_names else t)
            manifests = write_partitioned(
                out, out_dir, config_hash,
                input_range=(src_start, step.end), step_start=t0)
            summary["partitions_written"].extend(sorted(manifests))
    return summary


# ----------------------------------------------- multi-part Join backfill


def _part_hash(jc, part) -> str:
    """Cache key for one joinPart's intermediate table: the part's own
    config + the left source (its key/ts distribution defines the rows).
    Reference: spark/SemanticHashUtils + JoinBase.scala:132-227 part tables."""
    import hashlib

    return hashlib.md5(repr((part, jc.left)).encode()).hexdigest()[:16]


def backfill_join(
    jc,
    out_dir: str,
    start: str,
    end: str,
    step_days: int = 30,
    num_partitions: int = 64,
    phase: str = "all",
    selected_parts: Optional[Sequence[str]] = None,
) -> dict:
    """Range-planned multi-part Join backfill with per-part cached
    intermediate tables (reference: spark/JoinBase.scala:132-227
    computeJoinOpt — each joinPart computes into its own table with
    independent unfilledRanges, the final assembly reads the caches).

    Layout:
        out_dir/left/ds=YYYY-MM-DD/                 cached left table
        out_dir/parts/<full_prefix>/ds=YYYY-MM-DD/  per-part features
        out_dir/ds=YYYY-MM-DD/                      assembled join output

    A re-run recomputes only missing part ranges and missing output
    partitions; a config change on one part invalidates only that part's
    cache (semantic hash archive).

    ``phase`` mirrors the reference's split-phase orchestration
    (Driver.scala:1045-1048 join-left-table / join-final, scheduled as
    separate DAG nodes by repo/join_backfill.py:28-139):

    - ``"left"``: materialize ONLY the shared left table cache
      (``run_left_table`` / mode=backfill-left analog).
    - ``"parts"``: compute ONLY the per-part feature caches —
      ``selected_parts`` (full prefixes) restricts to a subset, the
      ``selected_join_parts`` + ``use_cached_left`` analog.  Reads the
      left cache when complete, else scans the left source.
    - ``"final"``: ONLY the final assembly from the existing caches
      (mode=backfill-final analog); raises loudly if a needed part cache
      is missing rather than silently emitting fewer feature columns.
    - ``"all"`` (default): everything in one run, same resume semantics.

    Running left → parts → final as three separate invocations produces
    byte-identical output to one ``phase="all"`` run."""
    import os
    from dataclasses import replace as _rep

    import pyarrow as pa

    from ..api import Accuracy, TQuery
    from ..sources import required_columns, scan_source
    from ..util import dataset_schema
    from .assembly import key_partitioned_join
    from .joins import apply_derivations, distinct_rows
    from .temporal import temporal_join

    if phase not in ("all", "left", "parts", "final"):
        raise ValueError(f"phase must be all/left/parts/final, got {phase!r}")
    if selected_parts and phase != "parts":
        # restricting any other phase would either be silently ignored
        # (left/final) or — far worse — assemble final output MISSING the
        # unselected parts' feature columns and mark those partitions
        # complete forever (phase='all')
        raise ValueError(
            "selected_parts applies only to phase='parts' (the "
            "selected_join_parts analog computes part caches; the final "
            f"assembly always needs every part) — got phase={phase!r}")
    summary = {"parts": {}, "partitions_written": [], "skipped_output": [],
               "part_steps_computed": 0, "phase": phase,
               "left_partitions_written": []}
    requested = PartitionRange(start, end)
    # calendar days absent from the LEFT input are not backfillable work:
    # without this intersection a resume re-plans the hole forever and the
    # empty left scan (unknown schema) crashes downstream (reference
    # analog: unfilledRanges intersects inputPartitions,
    # TableUtils.scala:824-841)
    from ..sources import list_partitions as _list_parts

    _left_tbl = getattr(jc.left, "table", None) \
        or getattr(jc.left, "snapshot_table", None)
    left_input = (_list_parts(_left_tbl) or None) if _left_tbl else None

    def _left_for(rng: PartitionRange):
        q = jc.left.query or TQuery()
        q = _rep(q, start_partition=rng.start, end_partition=rng.end)
        return scan_source(_rep(jc.left, query=q))

    def _add_ds(t: pa.Table) -> pa.Table:
        import numpy as np

        if "ds" in t.column_names:  # hive-partitioned scans inject it
            t = t.drop_columns(["ds"])
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("int64")
        days = (ts // MILLIS_DAY).astype("datetime64[D]")
        return t.append_column(
            "ds", pa.array(np.datetime_as_string(days, unit="D")))

    # ---- shared left-table cache (JoinBackfillLeft / backfill-left)
    import hashlib as _hl

    left_dir = os.path.join(out_dir, "left")
    left_hash = _hl.md5(repr(jc.left).encode()).hexdigest()[:16]

    def _left_cache_files(rng: PartitionRange):
        """Parquet files of the cached left for rng, or None unless EVERY
        requested day is cache-complete under the current left hash."""
        done_left = completed_partitions(left_dir, left_hash)
        days = rng.partitions()
        if any(d not in done_left for d in days):
            return None
        return _partition_files(left_dir, days) or None

    def _left_with_ds(rng: PartitionRange):
        # hive-partitioned cache files carry ds only in the dir name —
        # _add_ds re-derives it from ts (same values by construction)
        cached = _left_cache_files(rng)
        return map_typed(_read_parquet(cached) if cached is not None
                         else _left_for(rng), _add_ds)

    if phase in ("all", "left"):
        archive_mismatched(left_dir, left_hash)
        done_left = completed_partitions(left_dir, left_hash)
        left_chunks = unfilled_ranges(requested, done_left,
                                      input_partitions=left_input,
                                      skip_first_hole=False)
        for chunk in left_chunks:
            for step in chunk.steps(step_days):
                t0 = time.perf_counter()
                lt = map_typed(_left_for(step), _add_ds)
                manifests = write_partitioned(
                    lt, left_dir, left_hash,
                    input_range=(step.start, step.end), step_start=t0)
                summary["left_partitions_written"].extend(sorted(manifests))
        if phase == "left":
            return summary

    part_dirs = {}
    part_left_keys = None
    selected = set(selected_parts) if selected_parts else None
    if selected is not None:
        known = {p.full_prefix for p in jc.parts}
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown join parts {sorted(unknown)} "
                             f"(have {sorted(known)})")
    for part in jc.parts:
        gb = part.group_by
        if (gb.accuracy or Accuracy.TEMPORAL) == Accuracy.SNAPSHOT:
            raise NotImplementedError(
                "backfill_join caches TEMPORAL-accuracy parts; use "
                "compute_join for mixed-accuracy joins")
        prefix = part.full_prefix
        pdir = os.path.join(out_dir, "parts", prefix)
        part_dirs[part] = pdir
        phash = _part_hash(jc, part)
        archive_mismatched(pdir, phash)
        done = completed_partitions(pdir, phash)
        r2l = part.right_to_left()
        left_key_cols = [r2l.get(k, k) for k in gb.key_columns]
        if part_left_keys is None:
            part_left_keys = left_key_cols
        elif part_left_keys != left_key_cols:
            raise NotImplementedError(
                "backfill_join parts must share one left key set")
        if phase == "final" or (selected is not None
                                and prefix not in selected):
            summary["parts"][prefix] = {"steps": 0, "skipped": [],
                                        "selected": False}
            continue
        chunks = unfilled_ranges(requested, done,
                                 input_partitions=left_input,
                                 skip_first_hole=False)
        steps = [s for c in chunks for s in c.steps(step_days)]
        summary["parts"][prefix] = {
            "steps": len(steps),
            "skipped": sorted(set(done) & set(requested.partitions()))}
        w_days = max_window_days(gb)
        for step in steps:
            t0 = time.perf_counter()
            left = _left_with_ds(step)
            kt = map_typed(
                left,
                lambda t, cols=tuple([*left_key_cols, "ts"]),
                names=tuple([*gb.key_columns, "ts"]):
                    t.select(list(cols)).rename_columns(list(names)))
            kt = distinct_rows(kt, [*gb.key_columns, "ts"], num_partitions)
            right = None
            right_schema = None
            for src in gb.sources:
                r_start = None if w_days is None \
                    else shift_ds(step.start, -w_days)
                q = src.query or TQuery()
                q = _rep(q, start_partition=r_start, end_partition=step.end)
                s = scan_source(_rep(src, query=q),
                                columns=required_columns(src, gb))
                if right is None:
                    right, right_schema = s, dataset_schema(s)
                else:
                    right = right.union(s)
            f = temporal_join(kt, right, gb, num_partitions=num_partitions,
                              right_schema=right_schema)
            rename = {p.output_name: f"{prefix}_{p.output_name}"
                      for p in gb.parts()}
            rename.update(dict(zip(gb.key_columns, left_key_cols)))

            def fix_names(t: pa.Table, r=tuple(rename.items())):
                m = dict(r)
                return t.rename_columns(
                    [m.get(c, c) for c in t.column_names])

            f = map_typed(map_typed(f, fix_names), _add_ds)
            write_partitioned(f, pdir, phash,
                              input_range=(step.start, step.end),
                              step_start=t0)
            summary["part_steps_computed"] += 1

    if phase == "parts":
        return summary

    # ---- final assembly from cached part tables
    out_hash = jc.semantic_hash()
    archive_mismatched(out_dir, out_hash)
    done_out = completed_partitions(out_dir, out_hash)
    out_chunks = unfilled_ranges(requested, done_out,
                                 input_partitions=left_input,
                                 skip_first_hole=False)
    summary["skipped_output"] = sorted(
        set(done_out) & set(requested.partitions()))
    out_steps = [s for c in out_chunks for s in c.steps(step_days)]
    if phase == "final":
        # a final-only run must not assemble null features for days a part
        # cache lacks and mark them complete: every part must hold every
        # day first, or nothing is written
        need = [d for s in out_steps for d in s.partitions()]
        missing = {}
        for part in jc.parts:
            have = set(completed_partitions(part_dirs[part],
                                            _part_hash(jc, part)))
            lack = [d for d in need if d not in have]
            if lack:
                missing[part.full_prefix] = lack
        if missing:
            raise RuntimeError(
                "backfill --phase final: part caches are incomplete — "
                + "; ".join(f"{p!r} lacks {', '.join(days)}"
                            for p, days in missing.items())
                + " — run --phase parts (optionally --selected-parts) "
                "over these days first")
    join_keys = [*(part_left_keys or []), "ts"]
    for step in out_steps:
        t0 = time.perf_counter()
        left = _left_with_ds(step)
        feats = []
        for part in jc.parts:
            files = _partition_files(part_dirs[part], step.partitions())
            if files:
                feats.append(map_typed(
                    _read_parquet(files),
                    lambda t: t.drop_columns(
                        [c for c in ("ds",) if c in t.column_names])))
        out = key_partitioned_join(left, feats, keys=join_keys, how="left",
                                   num_partitions=num_partitions)
        out = apply_derivations(out, jc.derivations)
        manifests = write_partitioned(
            out, out_dir, out_hash, input_range=(step.start, step.end),
            step_start=t0)
        summary["partitions_written"].extend(sorted(manifests))
    return summary


def backfill_incremental(
    left_table: str,
    right_table: str,
    conf: GroupByConf,
    out_dir: str,
    checkpoint_dir: str,
    start: str,
    end: str,
    num_partitions: int = 64,
    serve_mode: str = "events",
) -> dict:
    """Day-by-day incremental backfill via rolling FinalBatchIr
    checkpoints: day D's features = serve(checkpoint@D, day-D events) and
    checkpoint@D = roll(checkpoint@(D-1), day-(D-1) events). After the
    first bootstrap (one max-window scan), every day touches ONE day of
    events instead of the whole window history — the O(1-day) daily
    backfill (reference upload semantics: GroupByUpload.scala:65-105).

    ``serve_mode="tiles"`` serves each day through the tiled lambda fetch
    (pipelines/streaming.py — the Flink/TileCodec analog): the day's
    events pre-aggregate into per-key tile IRs and only each query's own
    tile replays raw. Output is bit-equal to the default event-replay
    serve (tested); at a realistic fan-in the per-day raw replay shrinks
    from O(day of events × queries sharing a key) to O(one tile).

    Checkpoints persist as parquet under ``checkpoint_dir/ds=<D>`` with a
    config-hash manifest; output days under ``out_dir`` via the same
    atomic lineage writes as the other drivers. Resume: completed output
    days are skipped, and the newest usable checkpoint is rolled forward
    instead of re-bootstrapping."""
    import json

    from ..api import EventSource, TQuery
    from ..sources import required_columns
    from .upload import groupby_upload, roll_checkpoint, serve_with_events

    if serve_mode not in ("events", "tiles"):
        raise ValueError(f"serve_mode must be 'events' or 'tiles', "
                         f"got {serve_mode!r}")

    config_hash = conf.semantic_hash()
    archived = archive_mismatched(out_dir, config_hash)
    done = completed_partitions(out_dir, config_hash)
    days = PartitionRange(start, end).partitions()
    w_days = max_window_days(conf) or 3650

    def _ck_dir(ds: str) -> str:
        return os.path.join(checkpoint_dir, f"ds={ds}")

    def _ck_ok(ds: str) -> bool:
        mf = os.path.join(_ck_dir(ds), "_MANIFEST.json")
        if not os.path.exists(mf):
            return False
        with open(mf) as f:
            return json.load(f).get("config_hash") == config_hash

    def _midnight_ms(ds: str) -> int:
        import pandas as _pd

        return int(_pd.Timestamp(ds).value // 10**6)

    ev_cols = required_columns(
        EventSource(table=right_table, query=TQuery(time_column="ts")), conf)

    def _events_range(lo_ds: str, hi_ds: str):
        return scan_table(right_table, TQuery(start_partition=lo_ds,
                                              end_partition=hi_ds,
                                              time_column="ts"),
                          columns=ev_cols)

    def _ensure_checkpoint(ds: str):
        """Checkpoint AT midnight of `ds` (covers events < ds)."""
        if _ck_ok(ds):
            return _read_parquet(_ck_dir(ds)), "cached"
        prev = shift_ds(ds, -1)
        end_ms = _midnight_ms(ds)
        if _ck_ok(prev):
            old = _read_parquet(_ck_dir(prev))
            ck = roll_checkpoint(old, _events_range(prev, prev), conf,
                                 end_ms - 86_400_000, end_ms,
                                 num_partitions=num_partitions)
            how = "rolled"
        else:
            lo = shift_ds(ds, -w_days)
            ck = groupby_upload(_events_range(lo, prev), conf, end_ms,
                                num_partitions=num_partitions,
                                full_hops=True)
            how = "bootstrapped"
        tmp = _ck_dir(ds) + f".tmp.{os.getpid()}"
        ck.write_parquet(tmp)
        if not os.path.isdir(tmp) or not any(
                f.endswith(".parquet") for f in os.listdir(tmp)):
            # ZERO-ROW checkpoint (bootstrap/roll window holds no events
            # — e.g. a backfill starting before the first event day):
            # write_parquet creates nothing, so persist the typed empty
            # state explicitly; reads and next-day rolls then see the
            # normal checkpoint schema
            import pyarrow.parquet as _pq

            from ..util import dataset_schema

            os.makedirs(tmp, exist_ok=True)
            _pq.write_table(dataset_schema(ck).empty_table(),
                            os.path.join(tmp, "part-0.parquet"))
        with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
            json.dump({"config_hash": config_hash, "batch_end_ts": end_ms},
                      f)
        if os.path.exists(_ck_dir(ds)):
            import shutil

            shutil.rmtree(_ck_dir(ds))
        os.rename(tmp, _ck_dir(ds))
        return _read_parquet(_ck_dir(ds)), how

    os.makedirs(checkpoint_dir, exist_ok=True)
    summary = {"days": len(days), "partitions_written": [], "archived":
               archived, "skipped": [], "no_left": [], "checkpoints": {},
               "metrics": {}}
    # calendar days with no LEFT partition have nothing to serve — but the
    # checkpoint chain must still advance through them (it consumes the
    # EVENT side day by day), or the next served day would re-bootstrap a
    # full max-window scan instead of an O(1-day) roll
    left_days = set(list_partitions(left_table))
    for ds in days:
        if ds in done:
            summary["skipped"].append(ds)
            continue
        if left_days and ds not in left_days:
            ck, how = _ensure_checkpoint(ds)
            summary["checkpoints"][ds] = how
            summary["no_left"].append(ds)
            continue
        t0 = time.perf_counter()
        ck, how = _ensure_checkpoint(ds)
        summary["checkpoints"][ds] = how
        end_ms = _midnight_ms(ds)
        left = scan_table(left_table, TQuery(start_partition=ds,
                                             end_partition=ds,
                                             time_column="ts"))
        head = _events_range(ds, ds)
        if serve_mode == "tiles":
            from .streaming import make_tiles, serve_with_tiles

            tiles = make_tiles(head, conf, end_ms,
                               num_partitions=num_partitions)
            out = serve_with_tiles(ck, tiles, head, left, conf, end_ms,
                                   num_partitions=num_partitions,
                                   full_hops=True)
        else:
            out = serve_with_events(ck, head, left, conf, end_ms,
                                    num_partitions=num_partitions,
                                    full_hops=True)
        manifests = write_partitioned(
            out, out_dir, config_hash, input_range=(ds, ds),
            metrics={"checkpoint": how}, step_start=t0)
        summary["partitions_written"].extend(sorted(manifests))
        summary["metrics"][ds] = {
            "wall_sec": round(time.perf_counter() - t0, 3),
            "rows": sum(m["rows"] for m in manifests.values()),
            "checkpoint": how,
        }
    return summary
