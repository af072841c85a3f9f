"""Entity snapshot join, StagingQuery."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from chronon_ray.api import TQuery
from chronon_ray.pipelines.joins import entity_snapshot_join
from chronon_ray.sources import scan_table
from chronon_ray.staging import render_macros, run_staging_query
from chronon_ray.testing.tokengen import ensure_fixture


def test_entity_snapshot_join(ray_session, duck, sf_dir):
    """Left events join daily snapshots of date(ts)-1 (as-of-yesterday-EOD)."""
    # synthesize a small daily snapshot table: one row per (user, ds)
    snap = duck.sql("""
        select user_id, strftime(ts, '%Y-%m-%d') as ds,
               sum(value) as day_total
        from events group by 1, 2
    """).arrow()
    left = scan_table(f"{sf_dir}/events.parquet", TQuery(time_column="ts"))
    out = entity_snapshot_join(left, rd.from_arrow(snap), keys=["user_id"],
                               num_partitions=8).to_pandas()
    out = out.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    exp = duck.sql("""
        with snap as (select user_id, strftime(ts, '%Y-%m-%d') as ds,
                             sum(value) as day_total
                      from events group by 1, 2)
        select e.user_id, epoch_ms(e.ts) as ts, e.event_id, s.day_total
        from events e left join snap s
          on e.user_id = s.user_id
         and s.ds = strftime(e.ts - interval 1 day, '%Y-%m-%d')
        order by e.user_id, ts, e.event_id
    """).df()
    assert len(out) == len(exp)
    g = out["day_total"].astype(float).to_numpy()
    w = exp["day_total"].astype(float).to_numpy()
    nan = np.isnan(g) & np.isnan(w)
    assert (np.isnan(g) == np.isnan(w)).all()
    np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-9)


def test_staging_query(ray_session, tmp_path):
    paths = ensure_fixture("t1")
    out_dir = str(tmp_path / "staged")
    sql = """
        select doc_id, ds, sum(n_tok) as day_tokens
        from token_events
        where ds between {{ start_date }} and {{ end_date }}
        group by doc_id, ds
    """
    res = run_staging_query(sql, {"token_events": paths["events_dir"]},
                            out_dir, "2024-01-10", "2024-01-13", step_days=2)
    assert res["partitions_written"] == ["2024-01-10", "2024-01-11",
                                        "2024-01-12", "2024-01-13"]
    # resume: no recompute
    res2 = run_staging_query(sql, {"token_events": paths["events_dir"]},
                             out_dir, "2024-01-10", "2024-01-13", step_days=2)
    assert res2["partitions_written"] == []
    # values match a direct duckdb run
    import duckdb

    con = duckdb.connect()
    got = con.sql(f"select sum(day_tokens) from read_parquet('{out_dir}/*/*.parquet')").fetchone()[0]
    exp = con.sql(
        f"select sum(n_tok) from read_parquet('{paths['events_dir']}/*/*.parquet', "
        f"hive_partitioning=true) where ds between '2024-01-10' and '2024-01-13'"
    ).fetchone()[0]
    assert got == exp


def test_render_macros(ray_session):
    paths = ensure_fixture("t1")
    sql = "select {{ start_date }} a, {{ end_date }} b, {{ latest_date }} c, " \
          "{{ max_date(table=tok) }} d"
    out = render_macros(sql, "2024-01-01", "2024-01-31", "2024-01-30",
                        {"tok": paths["events_dir"]})
    assert "'2024-01-01'" in out and "'2024-01-31'" in out
    assert "'2024-01-30'" in out
    assert "max_date" not in out
