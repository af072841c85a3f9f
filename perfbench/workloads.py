"""The benchmark's three workloads: seeded inputs, one pass, the oracle.

Every workload reads inputs made by ``chronon_ray.testing.tokengen`` from the
benchmark's ``--seed`` and drives the public ``chronon_ray`` API. A pass
returns its wall time, its output row count and a way to read its output
for the oracle comparison (read after the timer stops).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from chronon_ray.api import (EventSource, GroupByConf, JoinConf, JoinPart,
                             UNBOUNDED, agg, window)
from chronon_ray.testing.tokengen import (gen_events, gen_queries,
                                          write_partitioned)

from . import oracle

NUM_PARTITIONS = 8
LIST_COLUMNS = {"tokens"}

# Input set A: flat token tables for the as-of kernel workload.
ASOF_EVENTS, ASOF_QUERIES, ASOF_KEYS = 4_000, 1_000, 200
ASOF_READ_BLOCKS = 4  # per side, so the exchange has 8 input blocks
# Input set B: ds-partitioned tables shared by both backfill workloads.
BF_EVENTS, BF_QUERIES, BF_KEYS, BF_SPAN_DAYS = 20_000, 4_000, 500, 30
JOIN_DAYS, JOIN_STEP_DAYS = 7, 7
INCREMENTAL_DAYS = 2  # one bootstrap day, then a daily roll


@dataclasses.dataclass
class Pass:
    seconds: float
    rows: int
    output: Callable[[], pa.Table]
    resume_clean: bool = True
    #: directories the pass wrote: lineage outputs and checkpoints
    out_dirs: tuple = ()
    checkpoint_dirs: tuple = ()
    #: CPU seconds of the driver and Ray processes, set by the harness
    cpu_s: float = 0.0


def _digest(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.sha256(sink.getvalue()).hexdigest()[:16]


def _describe(name: str, table: pa.Table, path: Path) -> dict:
    files = [p for p in path.rglob("*.parquet")] if path.is_dir() else [path]
    return {"name": name, "rows": table.num_rows,
            "bytes_on_disk": sum(f.stat().st_size for f in files),
            "files": len(files), "digest": _digest(table)}


def _listing(*dirs) -> dict:
    """path → (size, mtime_ns) of every file under dirs."""
    out = {}
    for d in dirs:
        for root, _, files in os.walk(d):
            for f in files:
                st = os.stat(os.path.join(root, f))
                out[os.path.join(root, f)] = (st.st_size, st.st_mtime_ns)
    return out


def _read_days(out_dir: Path) -> pa.Table:
    """The assembled ds=* partitions of a lineage output directory."""
    tables = []
    for d in sorted(out_dir.glob("ds=*")):
        for f in sorted(d.glob("*.parquet")):
            tables.append(pq.read_table(f).replace_schema_metadata(None))
    return pa.concat_tables(tables, promote_options="permissive")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _days_sql(table_dir: Path, cols: str, days: Optional[tuple] = None) -> str:
    where = f" where ds between '{days[0]}' and '{days[1]}'" if days else ""
    return (f"select {cols} from read_parquet('{table_dir}/*/*.parquet', "
            f"hive_partitioning = true, hive_types_autocast = false){where}")


def _bf_inputs(work: Path, seed: int) -> list[dict]:
    events = gen_events(BF_EVENTS, n_keys=BF_KEYS, seed=seed + 2,
                        span_days=BF_SPAN_DAYS)
    queries = gen_queries(BF_QUERIES, events, n_keys=BF_KEYS, seed=seed + 3)
    write_partitioned(events, str(work / "bf_events"))
    write_partitioned(queries, str(work / "bf_queries"))
    return [_describe("bf_events", events, work / "bf_events"),
            _describe("bf_queries", queries, work / "bf_queries")]


def _last_days(table_dir: Path, n: int) -> tuple[str, str]:
    days = sorted(p.name.split("=", 1)[1] for p in table_dir.glob("ds=*"))
    return days[-n], days[-1]


def _bf_expected(work: Path, days: tuple, specs: list[dict]):
    """Oracle output for the left rows of `days` over all events."""
    return oracle.run_oracle(oracle.oracle_sql(
        _days_sql(work / "bf_queries", "doc_id, ts", days),
        _days_sql(work / "bf_events", "doc_id, ts as ets, n_tok, source"),
        specs, LIST_COLUMNS))


class AsofKernel:
    name = "asof_kernel"
    conf = GroupByConf(
        name="asof_kernel", sources=(), key_columns=("doc_id",),
        aggregations=(
            agg("n_tok", "sum", [window(1, "h"), window(1, "d"),
                                 window(7, "d"), UNBOUNDED]),
            agg("n_tok", "average", [window(7, "d")]),
            agg("n_tok", "count", [window(1, "d")]),
            agg("tokens", "last_k", [window(7, "d")], k=2),
            agg("tokens", "last", [window(7, "d")]),
            agg("source", "unique_count", [window(7, "d")]),
            agg("tokens", "unique_count", [window(7, "d")]),
        ))

    def __init__(self, work: Path):
        self.work = work
        self.specs = oracle.feature_specs(self.conf)
        self.check_specs = self.specs

    def prepare(self, seed: int) -> dict:
        events = gen_events(ASOF_EVENTS, n_keys=ASOF_KEYS, seed=seed)
        queries = gen_queries(ASOF_QUERIES, events, n_keys=ASOF_KEYS,
                              seed=seed + 1).select(["doc_id", "ts"])
        pq.write_table(events, self.work / "asof_events.parquet")
        pq.write_table(queries, self.work / "asof_queries.parquet")
        left_keys = pc.unique(queries["doc_id"])
        useful = pc.sum(pc.is_in(events["doc_id"], left_keys)).as_py()
        expected = oracle.run_oracle(oracle.oracle_sql(
            f"select doc_id, ts from '{self.work / 'asof_queries.parquet'}'",
            f"select doc_id, ts as ets, n_tok, source, tokens "
            f"from '{self.work / 'asof_events.parquet'}'",
            self.specs, LIST_COLUMNS))
        return {"inputs": [
                    _describe("asof_events", events,
                              self.work / "asof_events.parquet"),
                    _describe("asof_queries", queries,
                              self.work / "asof_queries.parquet")],
                "useful_events": useful, "days": None,
                "expected": expected}

    def run_pass(self, pass_dir: Path, days: tuple) -> Pass:
        from chronon_ray.pipelines.temporal import temporal_join
        from chronon_ray.sources import scan_table

        def go():
            left = scan_table(str(self.work / "asof_queries.parquet"),
                              override_num_blocks=ASOF_READ_BLOCKS)
            right = scan_table(str(self.work / "asof_events.parquet"),
                               override_num_blocks=ASOF_READ_BLOCKS)
            out = temporal_join(left, right, self.conf,
                                num_partitions=NUM_PARTITIONS).materialize()
            return out, out.count()

        (out, rows), secs = _timed(go)

        def output() -> pa.Table:
            import ray

            return pa.concat_tables(ray.get(out.to_arrow_refs()),
                                    promote_options="permissive")

        return Pass(secs, rows, output)


def _thousandths(t: pa.Table) -> pa.Array:
    return pc.divide(pc.cast(t["sum7d_n_tok_sum_7d"], pa.float64()), 1000.0)


class JoinBackfill:
    name = "join_backfill"

    def __init__(self, work: Path):
        self.work = work
        events = EventSource(table=str(work / "bf_events"))
        parts = [GroupByConf(name=n, sources=(events,),
                             key_columns=("doc_id",), aggregations=(a,))
                 for n, a in (
                     ("sum7d", agg("n_tok", "sum", [window(7, "d")])),
                     ("cnt1d", agg("n_tok", "count", [window(1, "d")])),
                     ("src7d", agg("source", "last", [window(7, "d")])))]
        self.jc = JoinConf(
            name="join_backfill",
            left=EventSource(table=str(work / "bf_queries")),
            parts=tuple(JoinPart(group_by=g) for g in parts),
            derivations=(("*", "*"), ("n_tok_k_7d", _thousandths)))
        self.specs = [s for g in parts
                      for s in oracle.feature_specs(g, prefix=f"{g.name}_")]
        self.check_specs = self.specs + [
            {"name": "n_tok_k_7d", "kind": "float"}]

    def prepare(self, seed: int) -> dict:
        inputs = _bf_inputs(self.work, seed)
        days = _last_days(self.work / "bf_queries", JOIN_DAYS)
        expected = _bf_expected(self.work, days, self.specs)
        expected["n_tok_k_7d"] = expected["sum7d_n_tok_sum_7d"] / 1000.0
        return {"inputs": inputs, "days": days, "expected": expected,
                "left_rows": len(expected),
                "useful_events": self._useful_events(days)}

    def _useful_events(self, days: tuple) -> int:
        """Events each part's scan selects whose key is on the left: the
        rows its as-of exchange needs."""
        from chronon_ray.pipelines.backfill import max_window_days
        from chronon_ray.state.partitions import shift_ds

        def read(name, lo):
            t = pq.read_table(self.work / name, columns=["doc_id", "ds"])
            ds = pc.cast(t["ds"], pa.string())
            keep = pc.and_(pc.greater_equal(ds, lo),
                           pc.less_equal(ds, days[1]))
            return t.filter(keep)["doc_id"]

        left = pc.unique(read("bf_queries", days[0]))
        return sum(
            pc.sum(pc.is_in(read("bf_events", shift_ds(
                days[0], -max_window_days(p.group_by))), left)).as_py()
            for p in self.jc.parts)

    def run_pass(self, pass_dir: Path, days: tuple) -> Pass:
        from chronon_ray.pipelines.backfill import backfill_join

        out = pass_dir / "join"

        def call():
            return backfill_join(self.jc, str(out), days[0], days[1],
                                 step_days=JOIN_STEP_DAYS,
                                 num_partitions=NUM_PARTITIONS)

        _, secs = _timed(call)
        before = _listing(out)
        again, resume_secs = _timed(call)
        clean = (again["part_steps_computed"] == 0
                 and not again["partitions_written"]
                 and not again["left_partitions_written"]
                 and _listing(out) == before)
        rows = sum(pq.ParquetFile(f).metadata.num_rows
                   for f in out.glob("ds=*/*.parquet"))
        return Pass(secs + resume_secs, rows, lambda: _read_days(out),
                    resume_clean=clean, out_dirs=(out,))


class DailyIncremental:
    name = "daily_incremental"
    conf = GroupByConf(
        name="daily_incremental", sources=(), key_columns=("doc_id",),
        aggregations=(
            agg("n_tok", "sum", [window(7, "d"), UNBOUNDED]),
            agg("n_tok", "count", [window(1, "d")]),
            agg("source", "unique_count", [window(7, "d")]),
        ))

    def __init__(self, work: Path):
        self.work = work
        self.specs = oracle.feature_specs(self.conf)
        self.check_specs = self.specs

    def prepare(self, seed: int) -> dict:
        inputs = _bf_inputs(self.work, seed)
        days = _last_days(self.work / "bf_queries", INCREMENTAL_DAYS)
        expected = _bf_expected(self.work, days, self.specs)
        return {"inputs": inputs, "days": days, "expected": expected}

    def run_pass(self, pass_dir: Path, days: tuple) -> Pass:
        from chronon_ray.pipelines.backfill import backfill_incremental

        out, ck = pass_dir / "out", pass_dir / "checkpoints"

        def call():
            return backfill_incremental(
                str(self.work / "bf_queries"), str(self.work / "bf_events"),
                self.conf, str(out), str(ck), days[0], days[1],
                num_partitions=NUM_PARTITIONS, serve_mode="events")

        _, secs = _timed(call)
        before = _listing(out, ck)
        again, resume_secs = _timed(call)
        clean = (not again["partitions_written"] and not again["checkpoints"]
                 and _listing(out, ck) == before)
        rows = sum(pq.ParquetFile(f).metadata.num_rows
                   for f in out.glob("ds=*/*.parquet"))
        return Pass(secs + resume_secs, rows, lambda: _read_days(out),
                    resume_clean=clean, out_dirs=(out,),
                    checkpoint_dirs=(ck,))


WORKLOADS = {w.name: w for w in (AsofKernel, JoinBackfill, DailyIncremental)}


def prepare(name: str, work: str, seed: int) -> None:
    """Make the inputs and the oracle's expected output under ``work``."""
    wl = WORKLOADS[name](Path(work))
    info = wl.prepare(seed)
    info.pop("expected").to_parquet(Path(work) / "expected.parquet")
    with open(Path(work) / "inputs.json", "w") as f:
        json.dump(info, f)
