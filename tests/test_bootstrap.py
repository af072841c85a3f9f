"""Bootstrap joins (coalesce precomputed values, matched_hashes lineage),
covering-set analysis, external-part null padding."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from chronon_ray.pipelines.join_step import uncovered_rows
from chronon_ray.pipelines.joins import bootstrap_join, pad_external_parts


@pytest.fixture(scope="module")
def tables(ray_session):
    left = pa.table({
        "row_id": pa.array(list(range(10)), type=pa.int64()),
        "user_id": pa.array([i % 3 for i in range(10)], type=pa.int64()),
        "f_sum": pa.nulls(10, pa.float64()),
        "f_cnt": pa.nulls(10, pa.int64()),
    })
    # bootstrap covers rows 0-4 fully, rows 5-6 partially (f_sum only)
    bs = pa.table({
        "row_id": pa.array([0, 1, 2, 3, 4, 5, 6], type=pa.int64()),
        "f_sum": pa.array([10.0, 11, 12, 13, 14, 15, 16]),
        "f_cnt": pa.array([1, 1, 1, 1, 1, None, None], type=pa.int64()),
    })
    return left, bs


def test_bootstrap_join_coalesce_and_lineage(tables):
    left, bs = tables
    out = bootstrap_join(rd.from_arrow(left), rd.from_arrow(bs),
                         row_ids=["row_id"], part_hash="bs1",
                         num_partitions=4).to_pandas()
    out = out.sort_values("row_id").reset_index(drop=True)
    assert len(out) == 10
    np.testing.assert_allclose(out.loc[:6, "f_sum"], [10, 11, 12, 13, 14, 15, 16])
    assert out.loc[7:, "f_sum"].isna().all()
    for i in range(7):
        assert list(out.loc[i, "matched_hashes"]) == ["bs1"]
    assert out.loc[8, "matched_hashes"] is None or \
        (isinstance(out.loc[8, "matched_hashes"], float))


def test_null_row_id_bootstrap_row_matches_nothing(ray_session, tmp_path):
    """A bootstrap row with a null row id never matches (the reference's
    equi-join: NULL never equals NULL), so a left row with a null row id
    stays uncovered: ``bootstrap_join`` leaves its feature and lineage
    null, and ``compute_join_bootstrapped`` computes its feature."""
    import pyarrow.parquet as pq

    from chronon_ray.api import (BootstrapPart, EventSource, GroupByConf,
                                 JoinConf, JoinPart, agg)
    from chronon_ray.pipelines.joins import compute_join_bootstrapped

    day = 86_400_000
    left = pa.table({"rid": pa.array([1, None, 3], pa.int64()),
                     "user_id": pa.array(["a", "a", "b"]),
                     "ts": pa.array([2 * day] * 3, pa.int64())})
    bs = pa.table({"rid": pa.array([1, None], pa.int64()),
                   "g_value_sum": pa.array([10.0, 99.0])})
    booted = bootstrap_join(
        rd.from_arrow(left.append_column("g_value_sum",
                                         pa.nulls(3, pa.float64()))),
        rd.from_arrow(bs), row_ids=["rid"], part_hash="h",
        num_partitions=2).take_all()
    by_rid = {r["rid"]: r for r in booted}
    assert len(booted) == 3
    assert by_rid[None]["g_value_sum"] is None
    assert by_rid[None]["matched_hashes"] is None
    assert by_rid[1]["g_value_sum"] == 10.0
    assert list(by_rid[1]["matched_hashes"]) == ["h"]

    pq.write_table(left, str(tmp_path / "left.parquet"))
    pq.write_table(pa.table({"user_id": pa.array(["a", "a", "b"]),
                             "ts": pa.array([day, day + 1, day], pa.int64()),
                             "value": pa.array([1.0, 2.0, 4.0])}),
                   str(tmp_path / "ev.parquet"))
    gb = GroupByConf(name="g", key_columns=("user_id",),
                     sources=(EventSource(table=str(tmp_path / "ev.parquet")),),
                     aggregations=(agg("value", "sum"),))
    jc = JoinConf(name="nr", left=EventSource(table=str(tmp_path / "left.parquet")),
                  parts=(JoinPart(group_by=gb),), row_ids=("rid",),
                  bootstrap_parts=(BootstrapPart(table=rd.from_arrow(bs)),))
    out = {r["rid"]: r["g_value_sum"]
           for r in compute_join_bootstrapped(jc, num_partitions=2).take_all()}
    assert out == {1: 10.0, None: 3.0, 3: 4.0}


def test_covering_sets(tables):
    left, bs = tables
    booted = bootstrap_join(rd.from_arrow(left), rd.from_arrow(bs),
                            row_ids=["row_id"], part_hash="bs1",
                            num_partitions=4)
    t = pa.Table.from_pandas(booted.to_pandas(), preserve_index=False)

    def need(cols):
        return sorted(t["row_id"].filter(pa.array(uncovered_rows(t, cols)))
                      .to_pylist())

    need_p, need_q = need(["f_sum", "f_cnt"]), need(["f_sum"])
    # p needs rows where f_sum or f_cnt null: 5,6 (cnt null) + 7,8,9
    assert need_p == [5, 6, 7, 8, 9]
    # q (f_sum only) needs just 7,8,9
    assert need_q == [7, 8, 9]


def test_pad_external_parts(tables):
    left, _ = tables
    out = pad_external_parts(
        rd.from_arrow(left),
        [pa.field("ext_score", pa.float64()), pa.field("ext_tag", pa.string())],
    ).to_pandas()
    assert out["ext_score"].isna().all()
    assert out["ext_tag"].isna().all()
    assert len(out) == 10


def test_compute_join_bootstrapped_invariance(ray_session, sf_dir):
    """Bootstrapping half the rows with previously-computed features must
    reproduce the full compute_join output exactly (strong invariance: the
    covering set skips compute for covered rows, coalesce restores them)."""
    import pyarrow.compute as pc

    from chronon_ray.api import (BootstrapPart, EventSource, GroupByConf,
                                 JoinConf, JoinPart, TQuery, agg, window)
    from chronon_ray.pipelines.joins import compute_join, compute_join_bootstrapped

    events_src = EventSource(table=f"{sf_dir}/events.parquet", query=TQuery())
    left_src = EventSource(
        table=f"{sf_dir}/events.parquet",
        query=TQuery.of(selects={"user_id": "user_id", "ts": "ts",
                                 "event_id": "event_id"},
                        wheres=[lambda t: pc.equal(t["event_type"], "purchase")]))
    gb = GroupByConf(name="g", sources=(events_src,), key_columns=("user_id",),
                     aggregations=(agg("value", "sum", [window(7, "d")]),
                                   agg("value", "count", [window(7, "d")])))
    base_jc = JoinConf(name="j", left=left_src, parts=(JoinPart(group_by=gb),),
                       row_ids=("event_id",))
    full = compute_join(base_jc, num_partitions=8).to_pandas()
    full = full.sort_values("event_id").reset_index(drop=True)

    # bootstrap table: the computed features for half the rows
    half = full.iloc[::2][["event_id", "g_value_sum_7d", "g_value_count_7d"]]
    bs = rd.from_pandas(half.reset_index(drop=True))
    jc2 = JoinConf(name="j", left=left_src, parts=(JoinPart(group_by=gb),),
                   row_ids=("event_id",),
                   bootstrap_parts=(BootstrapPart(table=bs),))
    boot = compute_join_bootstrapped(jc2, num_partitions=8).to_pandas()
    boot = boot.sort_values("event_id").reset_index(drop=True)
    assert len(boot) == len(full)
    for col in ["g_value_sum_7d", "g_value_count_7d"]:
        a = full[col].astype(float).to_numpy()
        b = boot[col].astype(float).to_numpy()
        nan = np.isnan(a) & np.isnan(b)
        assert (np.isnan(a) == np.isnan(b)).all(), col
        np.testing.assert_allclose(a[~nan], b[~nan], rtol=1e-12, err_msg=col)
    # lineage: bootstrapped rows carry the hash, others don't
    hit = boot["matched_hashes"].map(lambda v: v is not None and len(v) > 0)
    assert hit.sum() == len(half)


def test_bootstrap_join_without_row_ids_raises(ray_session, sf_dir):
    from chronon_ray.api import (BootstrapPart, EventSource, GroupByConf,
                                 JoinConf, JoinPart, agg)
    from chronon_ray.pipelines.joins import compute_join_bootstrapped

    src = EventSource(table=f"{sf_dir}/events.parquet")
    gb = GroupByConf(name="g", sources=(src,), key_columns=("user_id",),
                     aggregations=(agg("value", "sum"),))
    jc = JoinConf(name="no_ids", left=src, parts=(JoinPart(group_by=gb),),
                  bootstrap_parts=(BootstrapPart(table=f"{sf_dir}/x"),))
    with pytest.raises(ValueError, match="no_ids.*row_ids"):
        compute_join_bootstrapped(jc)


def test_bootstrapped_features_equal_compute_join(ray_session, tmp_path):
    """Half the rows bootstrapped from compute_join's own output: the
    bootstrapped join gives compute_join's features with its exact types —
    list inputs (exploded by some ops, not by others) and a SNAPSHOT part
    (asked at the day boundary) included."""
    import pyarrow.compute as pc

    from chronon_ray.api import (Accuracy, BootstrapPart, EventSource,
                                 GroupByConf, JoinConf, JoinPart, agg, window)
    from chronon_ray.pipelines.joins import (compute_join,
                                             compute_join_bootstrapped)
    from chronon_ray.testing.tokengen import gen_events, write_partitioned

    ev = gen_events(800, n_keys=20, seed=5, span_days=4)
    ev = ev.append_column("row", pa.array(np.arange(len(ev)), pa.int64()))
    write_partitioned(ev, str(tmp_path / "ev"))
    src = EventSource(table=str(tmp_path / "ev"))
    w = [window(2, "d")]
    gb = GroupByConf(
        name="g", sources=(src,), key_columns=("doc_id",),
        aggregations=(agg("n_tok", "sum", w), agg("n_tok", "average", w),
                      agg("tokens", "max", w), agg("tokens", "variance", w),
                      agg("tokens", "unique_count", w),
                      agg("source", "last_k", w, k=2)))
    snap = GroupByConf(name="s", sources=(src,), key_columns=("doc_id",),
                       aggregations=(agg("n_tok", "sum", w),),
                       accuracy=Accuracy.SNAPSHOT)
    jc = JoinConf(name="boot", left=src,
                  parts=(JoinPart(group_by=gb), JoinPart(group_by=snap)),
                  row_ids=("row",))
    full = compute_join(jc, num_partitions=4).materialize()
    feats = [f for f in full.schema().base_schema
             if f.name.startswith(("g_", "s_"))]
    assert len(feats) == 7
    names = [f.name for f in feats]
    half = full.map_batches(
        lambda t, cols=("row", *names): t.filter(
            pc.equal(pc.bit_wise_and(t["row"], 1), 0)).select(cols),
        batch_format="pyarrow")
    boot = compute_join_bootstrapped(
        dataclasses.replace(jc, bootstrap_parts=(BootstrapPart(table=half),)),
        num_partitions=4).materialize()
    assert [boot.schema().base_schema.field(n) for n in names] == feats

    def cols(ds):
        import ray

        t = pa.concat_tables([b for b in ray.get(ds.to_arrow_refs())
                              if b.num_rows]).sort_by("row")
        return {n: t[n].to_pylist() for n in names}

    exp, got = cols(full), cols(boot)
    for f in feats:
        if pa.types.is_floating(f.type):
            np.testing.assert_allclose(np.array(got[f.name], float),
                                       np.array(exp[f.name], float),
                                       rtol=1e-12, err_msg=f.name)
        else:
            assert got[f.name] == exp[f.name], f.name


def test_step_kernel_asks_only_uncovered_and_daily_queries(ray_session):
    """The join-step kernel, called in-process on one partition: a part
    covered on every left row asks nothing, a part covered except on one
    row of one (keys, ts) asks that one query, and a SNAPSHOT part asks
    one query per distinct (keys, day)."""
    import ray

    from chronon_ray.api import (UNBOUNDED, Accuracy, GroupByConf, agg)
    from chronon_ray.pipelines.join_step import COMPUTED, StepPart, _plan

    day = 86_400_000
    left = pa.table({
        "k": ["a", "a", "b", "b"],
        "ts": pa.array([10 * day + 1, 10 * day + 1, 10 * day + 2,
                        10 * day + 3], pa.int64()),
        "pa_v_sum": [5.0, 5.0, 6.0, 7.0],
        "pb_v_sum": [None, 5.0, 6.0, 7.0],
    })
    events = pa.table({"k": ["a", "b"],
                       "ts": pa.array([9 * day + 5, 9 * day + 7], pa.int64()),
                       "v": [1.0, 2.0]})

    def gb(name, accuracy=None):
        return GroupByConf(name=name, sources=(), key_columns=("k",),
                           aggregations=(agg("v", "sum", [UNBOUNDED]),),
                           accuracy=accuracy)

    ev = rd.from_arrow(events)
    parts = [StepPart("pa", gb("pa"), ev, True, covered=("pa_v_sum",)),
             StepPart("pb", gb("pb"), ev, True, covered=("pb_v_sum",)),
             StepPart("pc", gb("pc", Accuracy.SNAPSHOT), ev, True)]
    tagged, kernel = _plan(rd.from_arrow(left), ["k"], parts, 1)
    tbl = pa.concat_tables([t for d in tagged
                            for t in ray.get(d.to_arrow_refs())],
                           promote_options="default")
    asked = {}
    for p in kernel.parts:
        def spy(q, e, join=p.proc.join, src=p.src):
            asked[src] = len(q)
            return join(q, e)
        p.proc.join = spy
    out = kernel(tbl).sort_by([("k", "ascending"), ("ts", "ascending")])
    assert asked == {1: 0, 2: 1, 3: 2}
    assert out[f"pa_v_sum{COMPUTED}"].null_count == 4
    assert out[f"pb_v_sum{COMPUTED}"].to_pylist() == [1.0, 1.0, None, None]
    assert out["pc_v_sum"].to_pylist() == [1.0, 1.0, 2.0, 2.0]
