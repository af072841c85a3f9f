"""Plan-time schemas and read projections.

Every public pipeline function declares the schema of the Dataset it
returns (``util.dataset_schema``), so a backfill step executes a plan only
to write data:

1. a ``backfill_join`` step of 3 or 5 parts and an incremental run are
   one execution each: one exchange whose write tasks write every
   target; ``compute_join`` and ``temporal_join`` are one exchange, and a
   bootstrapped join one more for its bootstrap merge; planning merged
   tile tables and sizing an exchange execute nothing (counted with a Ray
   Data execution callback);
2. the declared schema equals the executed one, for non-empty and zero-row
   inputs alike, and ``write_partitioned`` raises on a wrong one — for a
   step, before any target is written; only files a write task returned
   reach a partition;
3. no UDF the engine passes to ``map_batches``/``map_groups`` and no sink
   it passes to ``write_datasink`` captures a driver-side Dataset;
4. GroupBy source scans read only the columns the aggregation needs, and a
   requested column the table lacks raises on empty and non-empty ranges;
5. a final-only join run over a partial part cache raises and writes
   nothing; every manifest's step wall covers its write.
"""

import contextlib
import dataclasses
import glob
import inspect
import json
import os
import shutil
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from chronon_ray.api import (EventSource, GroupByConf, JoinConf, JoinPart,
                             TQuery, UNBOUNDED, agg, window)
from chronon_ray.sources import list_partitions, required_columns, scan_table
from chronon_ray.testing.tokengen import (gen_events, gen_queries,
                                          write_partitioned as wp)
from chronon_ray.util import dataset_schema, known_schema, with_schema

DAY = 86_400_000


@pytest.fixture(scope="module")
def tables(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("plan_schemas")
    ev = gen_events(3000, n_keys=40, seed=11, span_days=10)
    q = gen_queries(600, ev, n_keys=40, seed=12)
    wp(ev, str(base / "events"))
    wp(q, str(base / "queries"))
    return {"events": str(base / "events"), "queries": str(base / "queries"),
            "days": list_partitions(str(base / "queries"))}


def _parts(events_dir, n=3):
    src = EventSource(table=events_dir)
    return [GroupByConf(name=n, sources=(src,), key_columns=("doc_id",),
                        aggregations=(a,))
            for n, a in (("sum7d", agg("n_tok", "sum", [window(7, "d")])),
                         ("cnt1d", agg("n_tok", "count", [window(1, "d")])),
                         ("src7d", agg("source", "last", [window(7, "d")])),
                         ("max3d", agg("n_tok", "max", [window(3, "d")])),
                         ("uniq7d", agg("source", "unique_count",
                                        [window(7, "d")])))[:n]]


def _join_conf(t, n_parts=3):
    return JoinConf(name="ps", left=EventSource(table=t["queries"]),
                    parts=tuple(JoinPart(group_by=g)
                                for g in _parts(t["events"], n_parts)))


INC_CONF = GroupByConf(
    name="inc", sources=(), key_columns=("doc_id",),
    aggregations=(agg("n_tok", "sum", [window(7, "d"), UNBOUNDED]),
                  agg("n_tok", "count", [window(1, "d")]),
                  agg("source", "unique_count", [window(7, "d")])))


SNAP_CONF = GroupByConf(
    name="snap", sources=(), key_columns=("doc_id",),
    aggregations=(agg("n_tok", "sum"), agg("source", "last")))


# plain parts and two bucket columns: three granularities, one exchange
BUCKET_CONF = dataclasses.replace(SNAP_CONF, aggregations=(
    *SNAP_CONF.aggregations, agg("n_tok", "sum", buckets=("source", "ds"))))


ENT_CONF = GroupByConf(
    name="ent", sources=(), key_columns=("doc_id",),
    aggregations=(agg("n_tok", "sum", [window(7, "d"), UNBOUNDED]),
                  agg("n_tok", "count", [window(1, "d")])))


class _CountExecutions:
    """Ray Data execution callback that counts plan executions and keeps,
    for each finished one, (exchange operators, has a write operator).
    Operators are classified by type and name as the benchmark's per-layer
    stats classify them. Datasets deep-copy their DataContext (and its
    callbacks): the copy must stay this object. Tasks receive the context
    pickled, where the callback is never called (and this test module is
    not importable)."""

    def __init__(self):
        self.n = 0
        self.kinds = []

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return object, ()

    def before_execution_starts(self, executor):
        self.n += 1

    def on_execution_step(self, executor):
        pass

    def after_execution_succeeds(self, executor):
        ops = [op for op in executor._topology
               if type(op).__name__ != "InputDataBuffer"]
        self.kinds.append((
            sum(1 for op in ops if "AllToAll" in type(op).__name__
                or "HashShuffle" in type(op).__name__),
            any("Write" in op.name for op in ops)))

    def after_execution_fails(self, executor, error):
        pass


@contextlib.contextmanager
def count_executions():
    from ray.data import DataContext
    from ray.data._internal.execution import execution_callback as ecb

    ctx = DataContext.get_current()
    key = ecb.EXECUTION_CALLBACKS_CONFIG_KEY
    saved = ctx.get_config(key, None)
    cb = _CountExecutions()
    ctx.set_config(key, [*ecb.get_execution_callbacks(ctx), cb])
    try:
        yield cb
    finally:
        if saved is None:
            ctx.remove_config(key)
        else:
            ctx.set_config(key, saved)


def _manifests(root):
    for f in glob.glob(os.path.join(root, "**", "_MANIFEST.json"),
                       recursive=True):
        with open(f) as fh:
            yield f, json.load(fh)


def _assert_step_wall_covers_write(root):
    seen = 0
    for f, m in _manifests(root):
        if "write_wall_sec" not in m:  # checkpoint manifests
            continue
        assert m["step_wall_sec"] >= m["write_wall_sec"], f
        seen += 1
    assert seen


# ------------------------------------------------------- executions per step


def _check_step_executions(tables, tmp_path, n_parts):
    from chronon_ray.pipelines.backfill import backfill_join

    jc = _join_conf(tables, n_parts)
    start, end = tables["days"][-3], tables["days"][-1]
    out = str(tmp_path / "join")
    with count_executions() as cb:
        # steps [d-3, d-2] and [d-1]
        s = backfill_join(jc, out, start, end, step_days=2, num_partitions=4)
    assert len(s["partitions_written"]) == 3
    assert s["part_steps_computed"] == 2 * n_parts
    # per step: one execution runs the step's only exchange and writes
    # the left cache, the n part caches and the output from its own
    # write tasks
    assert cb.n == len(cb.kinds) == 2
    assert cb.kinds == [(1, True)] * 2
    with count_executions() as cb:
        again = backfill_join(jc, out, start, end, step_days=2,
                              num_partitions=4)
    assert again["partitions_written"] == [] and cb.n == 0
    _assert_step_wall_covers_write(out)


def test_backfill_join_step_executes_only_its_writes(tables, tmp_path):
    _check_step_executions(tables, tmp_path, 3)


def test_backfill_join_five_part_step_runs_one_exchange(tables, tmp_path):
    _check_step_executions(tables, tmp_path, 5)


def test_compute_join_runs_one_exchange(tables):
    """Three parts, and a TEMPORAL + SNAPSHOT pair, each in one exchange."""
    from chronon_ray.api import Accuracy
    from chronon_ray.pipelines.joins import compute_join

    three = _join_conf(tables)
    sum7d, cnt1d = _parts(tables["events"], 2)
    mixed = dataclasses.replace(three, parts=(
        JoinPart(group_by=sum7d),
        JoinPart(group_by=dataclasses.replace(cnt1d,
                                              accuracy=Accuracy.SNAPSHOT))))
    for jc in (three, mixed):
        with count_executions() as cb:
            out = compute_join(jc, num_partitions=4).materialize()
        assert out.count() > 0
        assert cb.n == 1 and cb.kinds == [(1, False)]


def test_temporal_join_runs_one_exchange(tables):
    """A TEMPORAL and a SNAPSHOT conf, each one execution of one
    exchange."""
    from chronon_ray.api import Accuracy
    from chronon_ray.pipelines.temporal import temporal_join

    gb = _parts(tables["events"])[0]
    for conf in (gb, dataclasses.replace(gb, accuracy=Accuracy.SNAPSHOT)):
        with count_executions() as cb:
            out = temporal_join(_scan(tables, "queries", False),
                                _events(tables, False), conf,
                                num_partitions=4).materialize()
        assert out.count() > 0
        assert cb.n == 1 and cb.kinds == [(1, False)]


def test_merge_tiles_plans_without_executing(tables):
    """Merging two tile tables declares its schema from theirs, so
    planning it executes neither tile plan."""
    from chronon_ray.pipelines.streaming import make_tiles, merge_tiles

    with count_executions() as cb:
        head, end = _events(tables, False), _batch_end(tables)
        merged = merge_tiles(make_tiles(head, INC_CONF, end, num_partitions=4),
                             make_tiles(head, INC_CONF, end + DAY,
                                        num_partitions=4),
                             INC_CONF, num_partitions=4)
        assert cb.n == 0
        assert merged.count() > 0


def test_compute_join_bootstrapped_runs_two_exchanges(tables, tmp_path):
    """The bootstrap merge and the join step: one execution, the booted
    left read once."""
    from chronon_ray.api import BootstrapPart
    from chronon_ray.pipelines.joins import (compute_join,
                                             compute_join_bootstrapped)

    jc = dataclasses.replace(_join_conf(tables), row_ids=("doc_id", "ts"))
    full = compute_join(jc, num_partitions=4).to_pandas()
    bs = full.iloc[::2][["doc_id", "ts", "sum7d_n_tok_sum_7d"]]
    pq.write_table(pa.Table.from_pandas(bs, preserve_index=False),
                   str(tmp_path / "bs.parquet"))
    jc = dataclasses.replace(jc, bootstrap_parts=(
        BootstrapPart(table=str(tmp_path / "bs.parquet")),))
    with count_executions() as cb:
        out = compute_join_bootstrapped(jc, num_partitions=4).materialize()
    assert out.count() == len(full)
    assert cb.n == 1 and cb.kinds == [(2, False)]


def test_auto_partitions_plans_without_executing(tables):
    from chronon_ray.pipelines.temporal import temporal_join
    from chronon_ray.pipelines.upload import groupby_upload
    from chronon_ray.util import auto_partitions, map_typed

    # a Dataset keeps the execution callbacks of the context it was made
    # in: build the inputs inside the counted block
    with count_executions() as cb:
        # typed maps after the reads: Ray knows no size for them
        events = map_typed(_events(tables, False), lambda t: t)
        queries = map_typed(_scan(tables, "queries", False), lambda t: t)
        n = auto_partitions(events, queries)
        groupby_upload(events, INC_CONF, _batch_end(tables),
                       num_partitions=None, full_hops=True)
        temporal_join(queries, events, _parts(tables["events"])[0],
                      num_partitions=None)
    assert cb.n == 0
    # sized from the read leaves: the floor of 2 per CPU at this scale
    import ray

    assert n == 2 * int(ray.cluster_resources()["CPU"])


def test_incremental_roll_day_executes_only_its_writes(tables, tmp_path):
    from chronon_ray.pipelines.backfill import backfill_incremental

    d0, d1, d2 = tables["days"][-3:]
    out, ck = str(tmp_path / "out"), str(tmp_path / "ck")

    def run(end):
        with count_executions() as cb:
            s = backfill_incremental(tables["queries"], tables["events"],
                                     INC_CONF, out, ck, d0, end,
                                     num_partitions=4)
        return s, cb

    # a fresh 2-day run: one execution runs the run's only exchange and
    # writes both checkpoints and both output days from its write tasks
    s, cb = run(d1)
    assert s["checkpoints"] == {d0: "bootstrapped", d1: "rolled"}
    assert cb.n == 1 and cb.kinds == [(1, True)]
    # a 1-day roll
    s, cb = run(d2)
    assert s["checkpoints"] == {d2: "rolled"}
    assert cb.n == 1 and cb.kinds == [(1, True)]
    # a complete day splits the missing days into two runs
    for d in (d0, d2):
        shutil.rmtree(os.path.join(out, f"ds={d}"))
    s, cb = run(d2)
    assert sorted(s["partitions_written"]) == [d0, d2]
    assert s["checkpoints"] == {d0: "cached", d2: "cached"}
    assert cb.n == 2 and cb.kinds == [(1, True)] * 2
    # resume
    s, cb = run(d2)
    assert s["partitions_written"] == [] and cb.n == 0
    _assert_step_wall_covers_write(out)


# --------------------------------------------- declared == executed schema


def _scan(t, name, empty, columns=None, days=(-2, -1)):
    q = TQuery(start_partition="2000-01-01", end_partition="2000-01-02") \
        if empty else TQuery(start_partition=t["days"][days[0]],
                             end_partition=t["days"][days[1]])
    return scan_table(t[name], q, columns=columns)


def _events(t, empty, days=(-2, -1)):
    return _scan(t, "events", empty, days=days,
                 columns=required_columns(EventSource(table=t["events"]),
                                          INC_CONF))


def _batch_end(t):
    import pandas as pd

    return int(pd.Timestamp(t["days"][-2]).value // 10**6)


def _checkpoint(t, empty):
    from chronon_ray.pipelines.upload import groupby_upload

    # the days before the batch end
    return groupby_upload(_events(t, empty, days=(-5, -3)), INC_CONF,
                          _batch_end(t), num_partitions=4, full_hops=True)


def _build(name, t, empty):
    from chronon_ray.pipelines.assembly import key_partitioned_join
    from chronon_ray.pipelines.joins import distinct_rows
    from chronon_ray.pipelines.temporal import temporal_join
    from chronon_ray.pipelines.upload import roll_checkpoint, serve_with_events

    gb = _parts(t["events"])[0]
    if name == "scan_table":
        return _scan(t, "queries", empty)
    if name == "distinct_rows":
        return distinct_rows(_scan(t, "queries", empty), ["doc_id", "ts"], 4)
    if name == "temporal_join":
        return temporal_join(_scan(t, "queries", empty), _events(t, empty),
                             gb, num_partitions=4)
    if name == "key_partitioned_join":
        feats = temporal_join(
            distinct_rows(_scan(t, "queries", empty), ["doc_id", "ts"], 4),
            _events(t, empty), gb, num_partitions=4)
        return key_partitioned_join(_scan(t, "queries", empty), [feats],
                                    keys=["doc_id", "ts"], how="left",
                                    num_partitions=4)
    if name == "compute_join":
        from chronon_ray.api import Accuracy
        from chronon_ray.pipelines.joins import compute_join

        jc = _join_conf(t)
        rng = TQuery(start_partition="2000-01-01",
                     end_partition="2000-01-02") if empty else TQuery(
            start_partition=t["days"][-2], end_partition=t["days"][-1])
        snap = dataclasses.replace(jc.parts[1].group_by,
                                   accuracy=Accuracy.SNAPSHOT)
        return compute_join(dataclasses.replace(
            jc, left=EventSource(table=t["queries"], query=rng),
            parts=(jc.parts[0], JoinPart(group_by=snap))), num_partitions=4)
    if name == "bootstrap_join":
        import pyarrow.compute as pc

        from chronon_ray.pipelines.joins import bootstrap_join
        from chronon_ray.util import map_typed

        left = map_typed(_scan(t, "queries", empty), lambda b: b.append_column(
            "f", pa.nulls(len(b), pa.int64())))
        q = _scan(t, "queries", False).take_batch(40, batch_format="pyarrow")
        bs = q.select(["doc_id", "ts"]).append_column(
            "f", pc.if_else(pc.equal(pc.bit_wise_and(q["ts"], 1), 0),
                            pa.scalar(None, pa.int64()),
                            pa.array(range(len(q)), pa.int64()))
        ).append_column("note", pa.array(["x"] * len(q)))
        return bootstrap_join(left, ray.data.from_arrow(bs),
                              ["doc_id", "ts"], "h", num_partitions=4)
    if name == "groupby_upload":
        return _checkpoint(t, empty)
    if name == "roll_checkpoint":
        end = _batch_end(t)
        return roll_checkpoint(_checkpoint(t, empty), _events(t, empty),
                               INC_CONF, end, end + DAY, num_partitions=4)
    if name == "serve_with_events":
        return serve_with_events(_checkpoint(t, empty), _events(t, empty),
                                 _scan(t, "queries", empty), INC_CONF,
                                 _batch_end(t), num_partitions=4,
                                 full_hops=True)
    if name in ("make_tiles", "merge_tiles"):
        from chronon_ray.pipelines.streaming import make_tiles, merge_tiles

        head, end = _events(t, empty), _batch_end(t)
        tiles = make_tiles(head, INC_CONF, end, num_partitions=4)
        if name == "make_tiles":
            return tiles
        return merge_tiles(tiles, make_tiles(head, INC_CONF, end + DAY,
                                             num_partitions=4),
                           INC_CONF, num_partitions=4)
    if name == "serve_with_tiles":
        from chronon_ray.pipelines.streaming import make_tiles, serve_with_tiles

        head = _events(t, empty)
        tiles = make_tiles(head, INC_CONF, _batch_end(t), num_partitions=4)
        return serve_with_tiles(_checkpoint(t, empty), tiles, head,
                                _scan(t, "queries", empty), INC_CONF,
                                _batch_end(t), num_partitions=4,
                                full_hops=True)
    if name in ("aggregate_snapshot", "aggregate_snapshot_bucketed"):
        from chronon_ray.pipelines.groupby import aggregate_snapshot

        conf = SNAP_CONF if name == "aggregate_snapshot" else BUCKET_CONF
        return aggregate_snapshot(_scan(t, "events", empty), conf,
                                  num_partitions=4)
    if name == "range_join":
        import pyarrow.compute as pc

        from chronon_ray.pipelines.extras import range_join
        from chronon_ray.util import map_typed

        # a two-day interval around every event of the query days
        iv = map_typed(_events(t, empty), lambda b: pa.table({
            "doc_id": b["doc_id"],
            "start_ts": pc.subtract(b["ts"], DAY),
            "end_ts": pc.add(b["ts"], DAY)}))
        return range_join(_scan(t, "queries", empty), iv, keys=["doc_id"],
                          num_partitions=4)
    if name == "entity_snapshot_join":
        from chronon_ray.pipelines.groupby import aggregate_snapshot
        from chronon_ray.pipelines.joins import entity_snapshot_join

        # daily snapshots of the days before the query days
        snaps = aggregate_snapshot(
            _scan(t, "events", empty, days=(-3, -2)),
            dataclasses.replace(SNAP_CONF, key_columns=("doc_id", "ds")),
            num_partitions=4)
        return entity_snapshot_join(_scan(t, "queries", empty), snaps,
                                    keys=["doc_id"], num_partitions=4)
    if name == "temporal_entities_join":
        from chronon_ray.pipelines.mutations import temporal_entities_join
        from chronon_ray.util import map_typed

        # the entity rows: the events of the days before the queries as
        # daily snapshots, those of the query days as inserts
        snaps = _scan(t, "events", empty, days=(-5, -3))
        muts = map_typed(_events(t, empty), lambda b: b.rename_columns(
            ["mutation_ts" if c == "ts" else c for c in b.column_names])
            .append_column("is_before", pa.array([False] * len(b))))
        return temporal_entities_join(_scan(t, "queries", empty), snaps,
                                      muts, ENT_CONF, num_partitions=4)
    raise AssertionError(name)


def _pairs(schema):
    return [(f.name, f.type) for f in schema]


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "zero_rows"])
@pytest.mark.parametrize("name", [
    "scan_table", "distinct_rows", "temporal_join", "key_partitioned_join",
    "compute_join", "bootstrap_join", "groupby_upload", "roll_checkpoint",
    "serve_with_events", "make_tiles", "merge_tiles", "serve_with_tiles",
    "temporal_entities_join", "aggregate_snapshot",
    "aggregate_snapshot_bucketed", "range_join", "entity_snapshot_join"])
def test_declared_schema_equals_executed(tables, name, empty):
    ds = _build(name, tables, empty)
    declared = known_schema(ds)
    assert declared is not None, f"{name} declares no schema"
    done = ds.materialize()
    if not empty:
        assert done.count() > 0
        assert _pairs(declared) == _pairs(done.schema().base_schema)
    else:
        # zero rows: Ray knows no schema at all; the declared one must be
        # the non-empty input's (one typing path for both)
        assert done.count() == 0
        assert _pairs(declared) == _pairs(
            known_schema(_build(name, tables, False)))


def test_write_rejects_a_wrong_declared_schema(tables, tmp_path):
    from chronon_ray.state.lineage import completed_partitions, write_partitioned

    ds = _scan(tables, "queries", False)
    good = dataset_schema(ds)
    bad = pa.schema([pa.field(f.name, pa.float64())
                     if f.name == "ts" else f for f in good])
    out = str(tmp_path / "w")
    with pytest.raises(ValueError, match="declared"):
        write_partitioned(with_schema(ds, bad), out, "h")
    assert completed_partitions(out) == []
    assert not [d for d in os.listdir(out) if d.startswith("_tmp")]
    assert write_partitioned(with_schema(ds, good), out, "h")


def test_step_with_one_wrong_target_schema_writes_no_target(tables, tmp_path,
                                                            monkeypatch):
    from chronon_ray.pipelines import backfill
    from chronon_ray.state import lineage

    def bad_part_schema(data, out_dir, *args, **kwargs):
        # targets: the left cache, then the 3 part caches, then the output
        targets = list(out_dir)
        sch = targets[2].schema
        targets[2] = dataclasses.replace(targets[2], schema=pa.schema(
            [pa.field(f.name, pa.float64()) if f.name == "ts" else f
             for f in sch]))
        return lineage.write_partitioned(data, targets, *args, **kwargs)

    monkeypatch.setattr(backfill, "write_partitioned", bad_part_schema)
    out = str(tmp_path / "j")
    days = tables["days"][-2:]
    with pytest.raises(ValueError, match="declared"):
        backfill.backfill_join(_join_conf(tables), out, days[0], days[1],
                               num_partitions=4)
    assert [f for f, _ in _manifests(out)] == []
    assert glob.glob(os.path.join(out, "**", "_tmp.*"), recursive=True) == []


def test_write_moves_only_returned_files(tables, tmp_path, monkeypatch):
    from chronon_ray.state.lineage import LineageSink, write_partitioned

    ds = _scan(tables, "queries", False)
    stray = pq.read_table(os.path.join(tables["queries"],
                                       f"ds={tables['days'][-1]}"))
    start = LineageSink.on_write_start

    def plant(self):
        # a file a failed attempt could have left: a valid schema, but no
        # task returned it
        start(self)
        for d in self.tmp_dirs:
            for day in tables["days"][-2:]:
                os.makedirs(os.path.join(d, f"ds={day}"), exist_ok=True)
                pq.write_table(stray, os.path.join(d, f"ds={day}",
                                                   "stray.parquet"))

    monkeypatch.setattr(LineageSink, "on_write_start", plant)
    out = str(tmp_path / "w")
    manifests = write_partitioned(ds, out, "h")
    assert sorted(manifests) == tables["days"][-2:]
    assert glob.glob(os.path.join(out, "**", "stray.parquet"),
                     recursive=True) == []
    assert sum(m["rows"] for m in manifests.values()) == ds.count()
    for day, m in manifests.items():
        assert pq.read_table(os.path.join(out, f"ds={day}")).num_rows \
            == m["rows"]
    assert not [d for d in os.listdir(out) if d.startswith("_tmp")]


# ------------------------------------------------- no Dataset in a worker UDF


def _datasets_in(obj, depth=0, seen=None):
    """Datasets reachable from a UDF or a sink: closure cells, defaults,
    bound ``self``, callable-class, sink and dataclass attributes, a few
    levels deep."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 6:
        return []
    seen.add(id(obj))
    if isinstance(obj, ray.data.Dataset):
        return [obj]
    if isinstance(obj, (list, tuple, set, frozenset)):
        vals = list(obj)
    elif isinstance(obj, dict):
        vals = list(obj.values())
    elif inspect.isfunction(obj):
        vals = [c.cell_contents for c in (obj.__closure__ or ())
                if _cell_set(c)]
        vals += list(obj.__defaults__ or ())
        vals += list((obj.__kwdefaults__ or {}).values())
    elif inspect.ismethod(obj):
        vals = [obj.__self__, obj.__func__]
    elif (callable(obj) or isinstance(obj, ray.data.Datasink)
          or dataclasses.is_dataclass(obj)) and hasattr(obj, "__dict__") \
            and not isinstance(obj, type):
        vals = list(vars(obj).values())
    else:
        return []
    return [d for v in vals for d in _datasets_in(v, depth + 1, seen)]


def _cell_set(cell):
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def test_pipeline_udfs_capture_no_dataset(tables, tmp_path, monkeypatch):
    from ray.data.grouped_data import GroupedData

    from chronon_ray.pipelines.backfill import (backfill_incremental,
                                                backfill_join)

    package = os.sep + "chronon_ray" + os.sep
    found = []

    def checked(orig):
        def wrapper(self, fn, *args, **kwargs):
            # the pipeline function, or the util.map_typed it called
            callers = [sys._getframe(i).f_code.co_filename
                       for i in (1, 2)]
            caller = callers[0]
            if any(package in c for c in callers):
                held = _datasets_in(fn) + _datasets_in(
                    kwargs.get("fn_constructor_args") or ())
                if held:
                    found.append((caller, getattr(fn, "__name__", fn)))
            return orig(self, fn, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ray.data.Dataset, "map_batches",
                        checked(ray.data.Dataset.map_batches))
    monkeypatch.setattr(GroupedData, "map_groups",
                        checked(GroupedData.map_groups))
    monkeypatch.setattr(ray.data.Dataset, "write_datasink",
                        checked(ray.data.Dataset.write_datasink))
    start, end = tables["days"][-2], tables["days"][-1]
    backfill_join(_join_conf(tables), str(tmp_path / "j"), start, end,
                  num_partitions=4)
    backfill_incremental(tables["queries"], tables["events"], INC_CONF,
                         str(tmp_path / "o"), str(tmp_path / "c"), start,
                         end, num_partitions=4)
    for name in ("temporal_join", "key_partitioned_join",
                 "serve_with_events", "merge_tiles", "serve_with_tiles",
                 "temporal_entities_join", "aggregate_snapshot",
                 "aggregate_snapshot_bucketed", "range_join",
                 "entity_snapshot_join"):
        _build(name, tables, False)
    assert found == []


def test_bucketed_snapshot_groupby_plans_one_exchange(tables, monkeypatch):
    """Plain parts and two bucket columns: one ``map_groups`` (one
    co-partition of the three granularities' partials), and planning
    executes nothing."""
    from ray.data.grouped_data import GroupedData

    names = []
    orig = GroupedData.map_groups

    def counted(self, fn, *args, **kwargs):
        names.append(fn.__name__)
        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(GroupedData, "map_groups", counted)
    with count_executions() as cb:
        out = _build("aggregate_snapshot_bucketed", tables, False)
        assert cb.n == 0
    assert len(names) == 1
    assert out.count() > 0


def test_capture_check_sees_a_captured_dataset(ray_session):
    ds = ray.data.from_items([{"a": 1}])

    def udf(t, _d=ds):
        return t

    class Udf:
        def __init__(self):
            self.d = [ds]

        def __call__(self, t):
            return t

    assert _datasets_in(udf) and _datasets_in(Udf())
    assert _datasets_in(lambda t: (ds, t))

    from chronon_ray.state.lineage import LineageSink, Target

    class Rows:
        def __init__(self):
            self.d = ds

        def __call__(self, t):
            return t

    assert not _datasets_in(LineageSink([Target("o", rows=lambda t: t)]))
    assert _datasets_in(LineageSink([Target("o", rows=Rows())]))


# ---------------------------------------------------- read projections


def test_groupby_scans_read_only_needed_columns(tables, tmp_path):
    src = EventSource(table=tables["events"])
    cols = required_columns(src, INC_CONF)
    assert cols == ["doc_id", "n_tok", "source", "ts"]
    assert "tokens" not in dataset_schema(
        scan_table(tables["events"], TQuery(), columns=cols)).names
    # a callable where may read any column: read them all
    assert required_columns(
        EventSource(table=tables["events"],
                    query=TQuery(wheres=(lambda t: t["n_tok"],))),
        INC_CONF) is None
    # string selects read exactly their inputs
    assert required_columns(
        EventSource(table=tables["events"],
                    query=TQuery.of(selects={"doc_id": "doc_id",
                                             "ts": "ts",
                                             "n_tok": "n_tok",
                                             "source": "source",
                                             "extra": "tokens"})),
        INC_CONF) == ["doc_id", "n_tok", "source", "tokens", "ts"]
    # an event table without its time column reads the partition column,
    # from which the end-of-day ts is synthesized
    no_ts = tmp_path / "no_ts"
    ev = pq.read_table(tables["events"]).drop_columns(["ts"])
    ev = ev.set_column(ev.column_names.index("ds"), "ds",
                       ev["ds"].cast(pa.string()))
    wp(ev, str(no_ts))
    src = EventSource(table=str(no_ts))
    assert "ds" in required_columns(src, INC_CONF)
    from chronon_ray.sources import scan_source

    s = scan_source(src, columns=required_columns(src, INC_CONF))
    assert "ts" in dataset_schema(s).names and s.count() == 3000


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "zero_rows"])
def test_scan_missing_column_raises(tables, empty):
    with pytest.raises(KeyError, match="n_tokk"):
        _scan(tables, "events", empty, columns=["doc_id", "n_tokk"])


# ------------------------------------------------------ partial part cache


def test_final_phase_over_partial_part_cache_raises(tables, tmp_path):
    from chronon_ray.pipelines.backfill import backfill_join
    from chronon_ray.state.lineage import completed_partitions

    jc = _join_conf(tables)
    days = tables["days"][-3:]
    out = str(tmp_path / "j")
    backfill_join(jc, out, days[0], days[1], num_partitions=4,
                  phase="parts")
    with pytest.raises(RuntimeError, match=days[2]) as err:
        backfill_join(jc, out, days[0], days[2], num_partitions=4,
                      phase="final")
    assert days[0] not in str(err.value)
    assert completed_partitions(out) == []


def test_roll_of_a_collapsed_checkpoint_raises(tables):
    from chronon_ray.pipelines.upload import groupby_upload, roll_checkpoint

    end = _batch_end(tables)
    collapsed = groupby_upload(_events(tables, False, days=(-5, -3)),
                               INC_CONF, end, num_partitions=4)
    rolled = roll_checkpoint(collapsed, _events(tables, False), INC_CONF,
                             end, end + DAY, num_partitions=4)
    with pytest.raises(Exception, match="collapsed-only"):
        rolled.materialize()
