"""Traced passes: spans around ``chronon_ray`` layer calls, per-operator
Ray Data stats for every executed Dataset, and the per-layer metrics.

While a traced pass runs, the ``Tracer``

- wraps each public layer function in ``TARGETS`` (in its defining module
  and in every ``chronon_ray`` module that imported it by name) and the
  ``Dataset`` methods in ``EXEC_METHODS`` with a span recorder. A span holds
  a name, start, end and its parent span; a pass's spans share its id;
- registers a Ray Data execution callback that keeps, for every executed
  Dataset, its start, end, scheduling-thread CPU time and the operator rows
  of ``opstats.operator_rows``.

Nothing is patched outside a traced pass. Spans stay in memory and are
written out once, at the end of the run (``Tracer.write``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

import pyarrow.parquet as pq

from . import opstats

#: (module, function) → span kind
TARGETS = {
    ("chronon_ray.sources", "scan_table"): "lazy",
    ("chronon_ray.sources", "scan_source"): "lazy",
    ("chronon_ray.sources", "read_parquet"): "lazy",
    ("chronon_ray.pipelines.temporal", "temporal_join"): "lazy",
    ("chronon_ray.pipelines.joins", "distinct_rows"): "lazy",
    ("chronon_ray.pipelines.joins", "apply_derivations"): "lazy",
    ("chronon_ray.pipelines.assembly", "key_partitioned_join"): "lazy",
    ("chronon_ray.pipelines.upload", "groupby_upload"): "lazy",
    ("chronon_ray.pipelines.upload", "roll_checkpoint"): "lazy",
    ("chronon_ray.pipelines.upload", "serve_with_events"): "lazy",
    ("chronon_ray.pipelines.backfill", "backfill_join"): "driver",
    ("chronon_ray.pipelines.backfill", "backfill_incremental"): "driver",
    ("chronon_ray.state.lineage", "write_partitioned"): "write",
    ("chronon_ray.state.lineage", "completed_partitions"): "plan",
    ("chronon_ray.state.lineage", "archive_mismatched"): "plan",
    ("chronon_ray.state.partitions", "unfilled_ranges"): "plan",
}
#: Dataset methods that execute a plan (``schema`` may run a probe)
EXEC_METHODS = ("count", "materialize", "write_parquet", "take", "take_all",
                "to_pandas", "schema")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    kind: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class Execution:
    start: float
    parent: int | None
    end: float = 0.0
    sched_cpu_s: float = 0.0
    rows: list = dataclasses.field(default_factory=list)
    ok: bool = True

    def has(self, layer: str) -> bool:
        return any(r.layer == layer for r in self.rows)


class _Callback:
    """Ray Data execution callback feeding one PassTrace. Datasets deep-copy
    their DataContext (and so its callbacks); the copy must stay this
    object."""

    def __init__(self, rec: "PassTrace"):
        self.rec = rec
        self.active = True
        self.live: dict[int, tuple[Execution, float, float]] = {}

    def __deepcopy__(self, memo):
        return self

    def before_execution_starts(self, executor):
        if not self.active:
            return
        e = Execution(start=time.perf_counter(), parent=self.rec.top())
        self.live[id(executor)] = (e, -1.0, -1.0)

    def on_execution_step(self, executor):
        e, first, _ = self.live.get(id(executor), (None, 0.0, 0.0))
        if e is not None:
            now = time.thread_time()
            self.live[id(executor)] = (e, now if first < 0 else first, now)

    def _end(self, executor, ok: bool):
        e, first, last = self.live.pop(id(executor), (None, 0.0, 0.0))
        if e is None:
            return
        e.end, e.ok = time.perf_counter(), ok
        e.sched_cpu_s = max(0.0, last - first)
        e.rows = opstats.operator_rows(executor)
        self.rec.execs.append(e)

    def after_execution_succeeds(self, executor):
        self._end(executor, True)

    def after_execution_fails(self, executor, error):
        self._end(executor, False)


class PassTrace:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.execs: list[Execution] = []
        #: (function name, args, kwargs, result) of calls the metrics need
        self.calls: list[tuple] = []
        self.layers: dict = {}
        self.disk: dict = {}

    def top(self) -> int | None:
        return self.stack[-1] if self.stack else None

    def open(self, name: str, kind: str) -> Span:
        s = Span(len(self.spans), name, kind, time.perf_counter(),
                 parent=self.top())
        self.spans.append(s)
        self.stack.append(s.id)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self.stack.pop()


def _wrap(rec: PassTrace, name: str, kind: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name, kind)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if name in KEEP_CALLS:
            rec.calls.append((name, args, kwargs, out))
        return out

    return traced


def _tree_bytes(dirs) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for d in dirs for r, _, fs in os.walk(d) for f in fs)


def _tree_files(dirs) -> int:
    return sum(len(fs) for d in dirs for _, _, fs in os.walk(d))


class Tracer:
    def __init__(self, info: dict):
        self.info = info
        self.passes: list[PassTrace] = []
        self.per_pass: list[dict] = []

    # ------------------------------------------------------------ patching

    @contextlib.contextmanager
    def pass_span(self, workload: str):
        import ray.data
        from ray.data import DataContext
        from ray.data._internal.execution import execution_callback as ecb

        rec = PassTrace(len(self.passes))
        undo = []
        for (mod, fname), kind in TARGETS.items():
            orig = getattr(importlib.import_module(mod), fname)
            wrapped = _wrap(rec, fname, kind, orig)
            for m in list(sys.modules.values()):
                if not getattr(m, "__name__", "").startswith("chronon_ray"):
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, orig))
        for meth in EXEC_METHODS:
            orig = getattr(ray.data.Dataset, meth)
            setattr(ray.data.Dataset, meth,
                    _wrap(rec, f"exec:{meth}", "exec", orig))
            undo.append((ray.data.Dataset, meth, orig))
        ctx = DataContext.get_current()
        saved = ctx.get_config(ecb.EXECUTION_CALLBACKS_CONFIG_KEY, None)
        callback = _Callback(rec)
        ctx.set_config(ecb.EXECUTION_CALLBACKS_CONFIG_KEY,
                       [*ecb.get_execution_callbacks(ctx), callback])
        top = rec.open(f"pass:{workload}", "pass")
        try:
            yield rec
        finally:
            rec.close(top)
            callback.active = False
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)
            if saved is None:
                ctx.remove_config(ecb.EXECUTION_CALLBACKS_CONFIG_KEY)
            else:
                ctx.set_config(ecb.EXECUTION_CALLBACKS_CONFIG_KEY, saved)

    def finish(self, rec: PassTrace, p) -> None:
        """Per-layer metrics of a traced pass, read before its output
        directory is removed."""
        rec.disk = {
            "lineage_bytes": _tree_bytes(p.out_dirs),
            "lineage_files": _tree_files(p.out_dirs),
            "checkpoint_bytes": _tree_bytes(p.checkpoint_dirs),
        }
        self.passes.append(rec)
        self.per_pass.append(self._pass_metrics(rec))
        rec.calls = []  # drop the Dataset handles

    # ------------------------------------------------------------- metrics

    def _pass_metrics(self, rec: PassTrace) -> dict:
        rows = [r for e in rec.execs for r in e.rows]
        layers = opstats.summarize(rows)
        rec.layers = layers

        def lay(name, key):
            return layers.get(name, {}).get(key, 0)

        spans = rec.spans
        by_id = {s.id: s for s in spans}

        def ancestor(s: Span, kinds) -> int | None:
            """Nearest enclosing span of one of `kinds`."""
            p = s.parent
            while p is not None and by_id[p].kind not in kinds:
                p = by_id[p].parent
            return p

        def outermost(kinds) -> list[Span]:
            return [s for s in spans
                    if s.kind in kinds and ancestor(s, kinds) is None]

        # lazy calls minus the plan executions they trigger; schema probes
        # stay in, they are planning work
        runs = [x for x in outermost({"exec"}) if x.name != "exec:schema"
                and ancestor(x, {"lazy"}) is not None]
        plan_s = (sum(s.dur for s in outermost({"lazy"}))
                  - sum(x.dur for x in runs))

        exchanges = [r for r in rows if r.layer == "exchange"]
        # executions a schema probe ran stop after one row
        probes = {id(e) for e in rec.execs if e.parent is not None
                  and by_id[e.parent].name == "exec:schema"}
        distinct_out = sum(r.rows_out for e in rec.execs
                           if id(e) not in probes for r in e.rows
                           if r.layer == "joins.distinct")
        shuffle_maps = [r for r in exchanges
                        if r.stage in opstats.EXCHANGE_MAP_STAGES]
        pad, cells, events_shuffled = self._padding(rec, rows)
        n_distinct = sum(1 for s in spans if s.name == "distinct_rows")
        left_rows = self.info.get("left_rows", 0)

        upload = {"upload.roll": 0.0, "upload.serve": 0.0,
                  "upload.merge": 0.0}
        for e in rec.execs:  # an execution belongs to its first match
            kind = next((k for k in upload if e.has(k)), None)
            if kind:
                upload[kind] += e.end - e.start
        scans = self._scanned(rec)
        return {
            "sources.scan_s": lay("sources.scan", "wall_s"),
            "sources.rows_read": scans[0],
            "sources.bytes_read": scans[1],
            "temporal.kernel_s": lay("temporal.kernel", "wall_s"),
            "temporal.kernel_tasks": lay("temporal.kernel", "tasks"),
            "temporal.kernel_task_max_s": lay("temporal.kernel",
                                              "task_max_s"),
            "temporal.kernel_skew": lay("temporal.kernel", "skew"),
            "temporal.tag_s": lay("temporal.tag", "wall_s"),
            "temporal.tag_bytes": lay("temporal.tag", "bytes_out"),
            "temporal.event_use_frac": (
                self.info.get("useful_events", 0) / events_shuffled
                if events_shuffled else 0.0),
            "exchange.count": len({r.op_id for r in exchanges}),
            "exchange.s": sum(r.wall_s for r in exchanges),
            "exchange.bytes": sum(r.bytes_out for r in shuffle_maps),
            "exchange.pad_frac": pad / cells if cells else 0.0,
            "joins.distinct_s": lay("joins.distinct", "wall_s"),
            "joins.distinct_keep_frac": (
                distinct_out / (n_distinct * left_rows)
                if n_distinct and left_rows else 0.0),
            "assembly.merge_s": lay("assembly.merge", "wall_s"),
            "assembly.bytes": lay("assembly.tag", "bytes_out"),
            "upload.bootstrap_s": upload["upload.merge"],
            "upload.roll_s": upload["upload.roll"],
            "upload.serve_s": upload["upload.serve"],
            "upload.checkpoint_bytes": rec.disk.get("checkpoint_bytes", 0),
            "lineage.write_s": sum(s.dur for s in spans
                                   if s.name == "write_partitioned"),
            "lineage.bytes_written": rec.disk.get("lineage_bytes", 0),
            "lineage.files_written": rec.disk.get("lineage_files", 0),
            "lineage.plan_s": sum(s.dur for s in outermost({"plan"})),
            "driver.plan_s": plan_s,
            "driver.tasks": sum(r.tasks for r in rows),
            "driver.sched_s": sum(e.sched_cpu_s for e in rec.execs),
        }

    @staticmethod
    def _padding(rec: PassTrace, rows) -> tuple[int, int, int]:
        """(null padding cells, all cells, event rows) that crossed the
        tagged co-partition exchanges of the pass."""
        from chronon_ray.util import dataset_schema

        sides: dict[int, tuple[int, int, bool]] = {}
        for name, args, kwargs, out in rec.calls:
            if name == "temporal_join":
                conf = args[2] if len(args) > 2 else kwargs["conf"]
                left = kwargs.get("left_schema") or dataset_schema(args[0])
                right = kwargs.get("right_schema") or dataset_schema(args[1])
                needed = {*conf.key_columns, "ts",
                          *(p.input_column for p in conf.parts()),
                          *(p.bucket for p in conf.parts() if p.bucket)}
                if conf.tie_break_column:
                    needed.add(conf.tie_break_column)
                present = {True: set(left.names),
                           False: {n for n in right.names if n in needed}}
                for fn in _udfs(out, "_TagAlign"):
                    sides[id(fn)] = _side(fn.union_fields,
                                          present[fn.is_q], not fn.is_q)
            elif name == "key_partitioned_join":
                srcs = [args[0], *args[1]]
                schemas = kwargs.get("schemas") or [dataset_schema(d)
                                                    for d in srcs]
                for fn in _udfs(out, "_TagPad"):
                    sides[id(fn)] = _side(fn.union_fields,
                                          set(schemas[fn.src].names), False)
        pad = cells = events = 0
        for r in rows:
            for fn in r.udfs:
                if id(fn) in sides:
                    n_cells, n_pad, is_event = sides[id(fn)]
                    cells += r.rows_out * n_cells
                    pad += r.rows_out * n_pad
                    events += r.rows_out if is_event else 0
        return pad, cells, events

    @staticmethod
    def _scanned(rec: PassTrace) -> tuple[int, int]:
        """Rows and on-disk bytes of the parquet files each scan call
        selects after partition pruning."""
        from chronon_ray.api import TQuery
        from chronon_ray.sources import partition_paths

        rows = nbytes = 0
        for name, args, kwargs, _ in rec.calls:
            if name == "scan_table":
                q = args[1] if len(args) > 1 else kwargs.get("query", TQuery())
                cols = args[2] if len(args) > 2 else kwargs.get("columns")
                paths = partition_paths(args[0], q.start_partition,
                                        q.end_partition, q.partition_column)
            elif name == "read_parquet":
                paths = args[0] if args else kwargs["paths"]
                cols = kwargs.get("columns")
            else:
                continue
            for f in _parquet_files(paths):
                meta = pq.ParquetFile(f).metadata
                rows += meta.num_rows
                if cols is None:
                    nbytes += os.path.getsize(f)
                    continue
                for g in range(meta.num_row_groups):
                    rg = meta.row_group(g)
                    nbytes += sum(rg.column(c).total_compressed_size
                                  for c in range(rg.num_columns)
                                  if rg.column(c).path_in_schema in cols)
        return rows, nbytes

    def metrics(self, plain_s: float, traced_s: float) -> dict:
        """Median of each per-pass metric over the traced passes, plus the
        tracing overhead against the untraced passes of the same run."""
        import statistics

        out = {}
        for k, unit in UNITS.items():
            vals = [m[k] for m in self.per_pass]
            out[k] = (statistics.median(vals) if vals else 0.0, unit)
        out["trace.overhead_frac"] = (
            traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """All spans (with self time), executions and per-layer rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        passes = []
        for rec, m in zip(self.passes, self.per_pass):
            child = {}
            for s in rec.spans:
                if s.parent is not None:
                    child[s.parent] = child.get(s.parent, 0.0) + s.dur
            passes.append({
                "pass": rec.pass_id,
                "spans": [{"id": s.id, "name": s.name, "kind": s.kind,
                           "parent": s.parent, "start": s.start,
                           "end": s.end,
                           "self_s": s.dur - child.get(s.id, 0.0)}
                          for s in rec.spans],
                "executions": [{
                    "parent": e.parent, "start": e.start, "end": e.end,
                    "sched_cpu_s": e.sched_cpu_s, "ok": e.ok,
                    "operators": [{
                        "operator": r.operator, "stage": r.stage,
                        "layer": r.layer, "rows_in": r.rows_in,
                        "rows_out": r.rows_out, "bytes_out": r.bytes_out,
                        "tasks": r.tasks, "wall_s": r.wall_s,
                        "task_max_s": max(r.task_wall_s, default=0.0),
                        "udf_s": r.udf_s} for r in e.rows]}
                    for e in rec.execs],
                "layers": rec.layers, "metrics": m})
        with open(path, "w") as f:
            json.dump({"info": self.info,
                       "passes": passes}, f, indent=1, default=str)


#: per-layer metric → unit
UNITS = {
    "sources.scan_s": "s", "sources.rows_read": "rows",
    "sources.bytes_read": "bytes",
    "temporal.kernel_s": "s", "temporal.kernel_tasks": "count",
    "temporal.kernel_task_max_s": "s", "temporal.kernel_skew": "ratio",
    "temporal.tag_s": "s", "temporal.tag_bytes": "bytes",
    "temporal.event_use_frac": "ratio",
    "exchange.count": "count", "exchange.s": "s", "exchange.bytes": "bytes",
    "exchange.pad_frac": "ratio",
    "joins.distinct_s": "s", "joins.distinct_keep_frac": "ratio",
    "assembly.merge_s": "s", "assembly.bytes": "bytes",
    "upload.bootstrap_s": "s", "upload.roll_s": "s", "upload.serve_s": "s",
    "upload.checkpoint_bytes": "bytes",
    "lineage.write_s": "s", "lineage.bytes_written": "bytes",
    "lineage.files_written": "count", "lineage.plan_s": "s",
    "driver.plan_s": "s", "driver.tasks": "count", "driver.sched_s": "s",
}
#: calls whose arguments and result the metrics read after the pass
KEEP_CALLS = {"scan_table", "read_parquet", "temporal_join",
              "key_partitioned_join"}


def _side(union_fields, present: set, is_event: bool) -> tuple:
    names = [f.name for f in union_fields]
    # +2: the partition id and side tag columns every tagged row carries
    return len(names) + 2, sum(1 for n in names if n not in present), is_event


def _udfs(ds, cls_name: str) -> list:
    """UDF objects of class `cls_name` in a Dataset's logical plan."""
    found, stack, seen = [], [ds._logical_plan.dag], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        fn = getattr(op, "_fn", None)
        if type(fn).__name__ == cls_name:
            found.append(fn)
        stack.extend(op.input_dependencies)
    return found


def _parquet_files(paths) -> list[str]:
    out = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            out.extend(str(f) for f in sorted(Path(p).rglob("*.parquet")))
        else:
            out.append(p)
    return out
