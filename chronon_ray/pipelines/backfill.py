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
from .join_step import FIRST

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
    from ..api import TQuery
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


class _StepRows:
    """The rows a ``backfill_join`` target keeps of its step's kernel
    output: with ``first_only`` one per (keys, ts), in ``columns``
    (default: all but the ``FIRST`` flag), then ``derive``d."""

    def __init__(self, columns: Optional[Sequence[str]] = None,
                 first_only: bool = False, derive=None):
        self.columns = list(columns) if columns else None
        self.first_only = first_only
        self.derive = derive

    def __call__(self, t):
        if self.first_only:
            t = t.filter(t[FIRST])
        t = t.select(self.columns) if self.columns \
            else t.drop_columns([FIRST])
        return self.derive(t) if self.derive is not None else t

    def schema(self, step_schema):
        """The schema of these rows, or None when a derivation may type
        them by their values."""
        if self.derive is not None and not self.derive.typed:
            return None
        return self(step_schema.empty_table()).schema


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
    computeJoinOpt — each joinPart keeps its own table with independent
    unfilledRanges).

    Layout:
        out_dir/left/ds=YYYY-MM-DD/                 cached left table
        out_dir/parts/<full_prefix>/ds=YYYY-MM-DD/  per-part features
        out_dir/ds=YYYY-MM-DD/                      assembled join output

    Each of these targets has its own missing days. The steps are the
    union of every target's missing days, sliced to ``step_days``. A step
    is ONE co-partitioned plan (``join_step.join_step``, one exchange):
    the left rows, the events of every part missing a day of the step and
    the cached rows of every other part the output needs are hashed on the
    left keys together; per partition the distinct (keys, ts) queries get
    each computed part's features, cached parts attach by (keys, ts), and
    the features fan back onto every left row. The same execution writes
    the left cache, each computed part's cache and the derived output
    from the step's own write tasks (``state.lineage.LineageSink``) —
    each target only its missing days, and no target unless every one
    passed its footer check. A re-run recomputes nothing that is complete; a config change on one part invalidates
    only that part's cache (semantic hash archive).

    ``phase`` mirrors the reference's split-phase orchestration
    (Driver.scala:1045-1048 join-left-table / join-final, scheduled as
    separate DAG nodes by repo/join_backfill.py:28-139) by choosing the
    targets:

    - ``"left"``: ONLY the shared left table cache (``run_left_table`` /
      mode=backfill-left analog).
    - ``"parts"``: ONLY the per-part feature caches — ``selected_parts``
      (full prefixes) restricts to a subset, the ``selected_join_parts`` +
      ``use_cached_left`` analog.  Reads the left cache when complete,
      else scans the left source.
    - ``"final"``: ONLY the output, every part attached from its cache
      (mode=backfill-final analog); raises loudly, writing nothing, if a
      needed part cache day is missing rather than silently emitting null
      features.
    - ``"all"`` (default): every target in one run, same resume semantics.

    Every phase runs the same step plan, so running left → parts → final
    as separate invocations gives the same output as one ``phase="all"``
    run."""
    import hashlib
    from dataclasses import replace as _rep

    import pyarrow as pa

    from ..api import TQuery
    from ..sources import list_partitions as _list_parts
    from ..sources import scan_groupby_events, scan_source
    from ..state.partitions import collapse_to_ranges
    from ..state.lineage import Target
    from ..util import dataset_schema
    from .join_step import StepPart, join_step
    from .joins import Derive, left_key_columns

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
    _left_tbl = getattr(jc.left, "table", None) \
        or getattr(jc.left, "snapshot_table", None)
    left_input = (_list_parts(_left_tbl) or None) if _left_tbl else None
    want = set(requested.partitions())
    if left_input is not None:
        want &= set(left_input)

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

    # ---- targets and their missing days: the shared left-table cache
    # (JoinBackfillLeft / backfill-left), each part cache, the output
    left_dir = os.path.join(out_dir, "left")
    left_hash = hashlib.md5(repr(jc.left).encode()).hexdigest()[:16]
    missing: dict = {}  # target → missing days
    if phase in ("all", "left"):
        archive_mismatched(left_dir, left_hash)
        missing["left"] = want - set(completed_partitions(left_dir,
                                                          left_hash))

    part_dirs = {}
    part_left_keys = left_key_columns(jc)
    selected = set(selected_parts) if selected_parts else None
    if selected is not None:
        known = {p.full_prefix for p in jc.parts}
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown join parts {sorted(unknown)} "
                             f"(have {sorted(known)})")
    for part in (jc.parts if phase != "left" else ()):
        prefix = part.full_prefix
        pdir = os.path.join(out_dir, "parts", prefix)
        part_dirs[part] = pdir
        phash = _part_hash(jc, part)
        archive_mismatched(pdir, phash)
        if phase == "final" or (selected is not None
                                and prefix not in selected):
            summary["parts"][prefix] = {"steps": 0, "skipped": [],
                                        "selected": False}
            continue
        done = completed_partitions(pdir, phash)
        missing[part] = want - set(done)
        summary["parts"][prefix] = {
            "steps": 0,
            "skipped": sorted(set(done) & set(requested.partitions()))}

    out_hash = jc.semantic_hash()
    if phase in ("all", "final"):
        archive_mismatched(out_dir, out_hash)
        done_out = completed_partitions(out_dir, out_hash)
        missing["out"] = want - set(done_out)
        summary["skipped_output"] = sorted(
            set(done_out) & set(requested.partitions()))
    if phase == "final":
        # a final-only run must not assemble null features for days a part
        # cache lacks and mark them complete: every part must hold every
        # day first, or nothing is written
        lacking = {}
        for part in jc.parts:
            have = set(completed_partitions(part_dirs[part],
                                            _part_hash(jc, part)))
            lack = sorted(missing["out"] - have)
            if lack:
                lacking[part.full_prefix] = lack
        if lacking:
            raise RuntimeError(
                "backfill --phase final: part caches are incomplete — "
                + "; ".join(f"{p!r} lacks {', '.join(days)}"
                            for p, days in lacking.items())
                + " — run --phase parts (optionally --selected-parts) "
                "over these days first")

    def _left_with_ds(rng: PartitionRange):
        # the cached left when EVERY day of rng is complete; its
        # hive-partitioned files carry ds only in the dir name — _add_ds
        # re-derives it from ts (same values by construction)
        done_left = set(completed_partitions(left_dir, left_hash))
        days = rng.partitions()
        cached = _partition_files(left_dir, days) \
            if all(d in done_left for d in days) else []
        return map_typed(_read_parquet(cached) if cached
                         else _left_for(rng), _add_ds)

    def _events(gb: GroupByConf, step: PartitionRange):
        w_days = max_window_days(gb)
        r_start = None if w_days is None else shift_ds(step.start, -w_days)
        return scan_groupby_events(gb, (r_start, step.end))

    all_missing = set().union(*missing.values())
    for step in (s for r in collapse_to_ranges(all_missing)
                 for s in r.steps(step_days)):
        t0 = time.perf_counter()
        in_step = set(step.partitions())
        todo = {t: sorted(in_step & m) for t, m in missing.items()
                if in_step & m}
        out_days = todo.get("out", [])
        left = _left_with_ds(step)
        sides = []
        for part in jc.parts:
            if part in todo:
                sides.append(StepPart(part.full_prefix, part.group_by,
                                      _events(part.group_by, step), True))
            elif out_days:
                sides.append(StepPart(
                    part.full_prefix, part.group_by,
                    _read_parquet(_partition_files(part_dirs[part],
                                                   out_days)), False))
        ds = join_step(left, part_left_keys, sides, num_partitions)
        step_schema = dataset_schema(ds)

        def target(key):
            if key == "left":
                where, chash = left_dir, left_hash
                rows = _StepRows(dataset_schema(left).names)
            elif key == "out":
                where, chash = out_dir, out_hash
                rows = _StepRows(derive=Derive(jc.derivations)
                                 if jc.derivations else None)
            else:
                where, chash = part_dirs[key], _part_hash(jc, key)
                feats = [f"{key.full_prefix}_{p.output_name}"
                         for p in key.group_by.parts()]
                rows = _StepRows([*part_left_keys, "ts", *feats, "ds"],
                                 first_only=True)
            return Target(where, chash, (step.start, step.end),
                          days=tuple(todo[key]), rows=rows,
                          schema=rows.schema(step_schema))

        # one execution computes the step and writes every target — each
        # only its missing days — from the step's own write tasks
        written = write_partitioned(ds, [target(k) for k in todo],
                                    step_start=t0)
        for key, manifests in zip(todo, written):
            if key == "left":
                summary["left_partitions_written"].extend(sorted(manifests))
            elif key == "out":
                summary["partitions_written"].extend(sorted(manifests))
            else:
                summary["parts"][key.full_prefix]["steps"] += 1
                summary["part_steps_computed"] += 1
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
    step_days: int = 30,
) -> dict:
    """Day-by-day incremental backfill via rolling FinalBatchIr
    checkpoints: day D's features = serve(checkpoint@D, day-D events) and
    checkpoint@D = roll(checkpoint@(D-1), day-(D-1) events). After the
    first bootstrap (one max-window scan), every day touches ONE day of
    events instead of the whole window history — the O(1-day) daily
    backfill (reference upload semantics: GroupByUpload.scala:65-105).

    A run is a maximal stretch of consecutive days whose output is
    missing, sliced to ``step_days``. Each slice is ONE co-partitioned
    plan (``incremental.roll_serve_run``, one exchange): its base
    checkpoint — ck@first when complete (``"cached"``), else ck@first−1
    (``"rolled"``), else none (``"bootstrapped"`` from a max-window
    scan) — its events and its left rows are hashed on the keys
    together, and per partition the kernel rolls every day's checkpoint
    in memory and serves that day's left rows from it. The same
    execution writes every missing checkpoint day and every output day
    through the lineage sink, all or nothing. Days without a left
    partition (``no_left``) still advance and write the checkpoint chain.

    Checkpoints persist as parquet under ``checkpoint_dir/ds=<D>`` with a
    config-hash manifest carrying ``batch_end_ts``; output days under
    ``out_dir`` with ``checkpoint`` (how ck@D was obtained) in their
    manifests. Resume: completed output days are skipped, a complete
    checkpoint is read instead of recomputed, and a slice with nothing to
    write executes nothing. ``serve_mode`` is kept for callers that pass
    it: ``"events"`` (the event-replay serve) is its only value."""
    import json

    from ..api import EventSource, TQuery
    from ..sources import required_columns
    from ..state.lineage import Target
    from ..state.partitions import collapse_to_ranges
    from .incremental import CheckpointRows, OutputRows, roll_serve_run

    if serve_mode != "events":
        raise ValueError(f"serve_mode must be 'events', got {serve_mode!r}")

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
    if ev_cols is not None and list_partitions(right_table):
        # the kernel assigns events to days by their ds partition
        ev_cols = sorted({*ev_cols, "ds"})

    os.makedirs(checkpoint_dir, exist_ok=True)
    summary = {"days": len(days), "partitions_written": [], "archived":
               archived, "skipped": [d for d in days if d in done],
               "no_left": [], "checkpoints": {}, "metrics": {}}
    # calendar days with no LEFT partition have nothing to serve — but the
    # checkpoint chain must still advance through them (it consumes the
    # EVENT side day by day), or the next served day would re-bootstrap a
    # full max-window scan instead of an O(1-day) roll
    left_days = set(list_partitions(left_table))
    todo = [d for d in days if d not in done]
    for step in (s for r in collapse_to_ranges(todo)
                 for s in r.steps(step_days)):
        t0 = time.perf_counter()
        run = step.partitions()
        first, prev = run[0], shift_ds(run[0], -1)
        if _ck_ok(first):
            how, base, lo = "cached", _read_parquet(_ck_dir(first)), first
        elif _ck_ok(prev):
            how, base, lo = "rolled", _read_parquet(_ck_dir(prev)), prev
        else:
            how, base, lo = "bootstrapped", None, shift_ds(first, -w_days)
        hows = {d: "cached" if _ck_ok(d) else "rolled" for d in run[1:]}
        hows[first] = how
        ck_days = [d for d in run if hows[d] != "cached"]
        served = [d for d in run if not left_days or d in left_days]
        for d in run:
            summary["checkpoints"][d] = hows[d]
            if d not in served:
                summary["no_left"].append(d)
        if not ck_days and not served:
            continue
        left = scan_table(left_table, TQuery(start_partition=first,
                                             end_partition=run[-1],
                                             time_column="ts"))
        events = scan_table(right_table, TQuery(start_partition=lo,
                                                end_partition=run[-1],
                                                time_column="ts"),
                            columns=ev_cols)
        ds, out_schema, ck_schema = roll_serve_run(
            left, events, base, conf, run, how, ck_days, num_partitions)
        # one execution rolls, serves and writes every missing checkpoint
        # day and every output day of the slice
        targets = [Target(checkpoint_dir, config_hash,
                          metrics={"batch_end_ts": _midnight_ms(d)}, day=d,
                          rows=CheckpointRows(d, ck_schema.names),
                          schema=ck_schema) for d in ck_days]
        targets += [Target(out_dir, config_hash, (d, d),
                           metrics={"checkpoint": hows[d]}, days=(d,),
                           rows=OutputRows(out_schema.names),
                           schema=out_schema) for d in served]
        written = write_partitioned(ds, targets, step_start=t0)
        wall = round(time.perf_counter() - t0, 3)
        for d, manifests in zip(served, written[len(ck_days):]):
            summary["partitions_written"].extend(sorted(manifests))
            summary["metrics"][d] = {
                "wall_sec": wall,
                "rows": sum(m["rows"] for m in manifests.values()),
                "checkpoint": hows[d],
            }
    return summary
