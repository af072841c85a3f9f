"""`python -m chronon_ray` job CLI: conf compile/validate, driver dispatch,
lineage + resume through the command-line surface (reference launcher
analog: api/py/ai/chronon/repo/run.py)."""

import json
import os
import subprocess
import sys

import pytest

from chronon_ray.api import (
    EventSource,
    GroupByConf,
    JoinConf,
    JoinPart,
    TQuery,
    agg,
    window,
)
from chronon_ray.cli import main
from chronon_ray.compile import compile_to_json
from chronon_ray.testing.tokengen import (
    ensure_fixture,
    gen_events,
    gen_queries,
    write_partitioned as wp,
)


@pytest.fixture(scope="module")
def cli_env(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    ev = gen_events(4_000, n_keys=200)
    q = gen_queries(800, ev, n_keys=200)
    left_dir, right_dir = str(base / "left"), str(base / "right")
    wp(q, left_dir)
    wp(ev, right_dir)

    gb = GroupByConf(
        name="cli_gb", sources=(), key_columns=("doc_id",),
        aggregations=(agg("n_tok", "sum", [window(7, "d")]),
                      agg("n_tok", "count", [window(7, "d")])))
    jc = JoinConf(
        name="cli_join",
        left=EventSource(table=left_dir, query=TQuery()),
        parts=(JoinPart(group_by=GroupByConf(
            name="cli_part", sources=(EventSource(table=right_dir,
                                                  query=TQuery()),),
            key_columns=("doc_id",),
            aggregations=(agg("n_tok", "sum", [window(7, "d")]),))),))

    gb_path, jc_path = str(base / "gb.json"), str(base / "join.json")
    with open(gb_path, "w") as f:
        f.write(compile_to_json(gb))
    with open(jc_path, "w") as f:
        f.write(compile_to_json(jc))
    from chronon_ray.sources import list_partitions

    parts = list_partitions(left_dir)
    return {"base": str(base), "left": left_dir, "right": right_dir,
            "gb_conf": gb_path, "join_conf": jc_path, "gb": gb,
            "start": parts[1], "end": parts[3]}


def _run(argv, capsys) -> dict:
    assert main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_compile_subcommand_subprocess(cli_env):
    """The module entrypoint works as `python -m chronon_ray` in a fresh
    process (the `ray job submit` shape) — compile needs no Ray session."""
    r = subprocess.run(
        [sys.executable, "-m", "chronon_ray", "compile",
         "--conf", cli_env["gb_conf"]],
        capture_output=True, text=True, cwd="/root/repo", timeout=120)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout.strip().splitlines()[-1])
    assert got["kind"] == "group_by"
    assert got["semantic_hash"] == cli_env["gb"].semantic_hash()


def test_backfill_temporal_and_resume(cli_env, capsys):
    out_dir = os.path.join(cli_env["base"], "gb_out")
    argv = ["backfill", "--conf", cli_env["gb_conf"], "--out", out_dir,
            "--start", cli_env["start"], "--end", cli_env["end"],
            "--left-table", cli_env["left"],
            "--right-table", cli_env["right"],
            "--num-partitions", "4", "--step-days", "2"]
    got = _run(argv, capsys)
    assert got["kind"] == "temporal"
    days = got["partitions_written"]
    assert len(days) == 3
    for d in days:
        assert os.path.exists(os.path.join(out_dir, f"ds={d}",
                                           "_MANIFEST.json"))
    # second identical invocation resumes: nothing recomputed
    again = _run(argv, capsys)
    assert again["partitions_written"] == []
    assert sorted(again["skipped"]) == sorted(days)


def test_backfill_join_conf(cli_env, capsys):
    out_dir = os.path.join(cli_env["base"], "join_out")
    got = _run(["backfill", "--conf", cli_env["join_conf"],
                "--out", out_dir, "--start", cli_env["start"],
                "--end", cli_env["end"], "--num-partitions", "4"], capsys)
    assert got["kind"] == "join"
    assert len(got["partitions_written"]) == 3
    assert os.path.isdir(os.path.join(
        out_dir, "parts", "cli_part", f"ds={cli_env['start']}"))


def test_dispatch_errors(cli_env, capsys):
    # GroupBy conf without tables
    with pytest.raises(SystemExit):
        main(["backfill", "--conf", cli_env["gb_conf"], "--out", "/tmp/x",
              "--start", cli_env["start"], "--end", cli_env["end"]])
    # snapshot mode without --source-table
    with pytest.raises(SystemExit):
        main(["backfill", "--conf", cli_env["gb_conf"], "--out", "/tmp/x",
              "--start", cli_env["start"], "--end", cli_env["end"],
              "--mode", "snapshot"])
    # join mode on a group_by conf
    with pytest.raises(SystemExit):
        main(["backfill", "--conf", cli_env["gb_conf"], "--out", "/tmp/x",
              "--start", cli_env["start"], "--end", cli_env["end"],
              "--mode", "join"])
    capsys.readouterr()


def test_fetch_subcommand(cli_env, capsys):
    """fetch: newest rolling checkpoint + in-flight events answer point
    lookups that match the direct temporal join at the same ts."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.temporal import temporal_join
    from chronon_ray.sources import scan_table

    out_dir = os.path.join(cli_env["base"], "fetch_out")
    ck_dir = os.path.join(cli_env["base"], "fetch_ck")
    _run(["backfill", "--conf", cli_env["gb_conf"], "--out", out_dir,
          "--start", cli_env["start"], "--end", cli_env["end"],
          "--left-table", cli_env["left"],
          "--right-table", cli_env["right"],
          "--mode", "incremental", "--checkpoint-dir", ck_dir,
          "--num-partitions", "4"], capsys)
    at_ms = int(pd.Timestamp(cli_env["end"]).value // 10**6) + 7_200_000
    right0 = scan_table(cli_env["right"], TQuery())
    ids = sorted({r["doc_id"] for r in right0.take(50)})[:2]
    got = _run(["fetch", "--conf", cli_env["gb_conf"],
                "--checkpoint-dir", ck_dir,
                "--right-table", cli_env["right"],
                "--keys", json.dumps([{"doc_id": i} for i in ids]),
                "--at", str(at_ms), "--num-partitions", "4"], capsys)
    assert got["kind"] == "fetch" and len(got["rows"]) == 2
    assert [r["doc_id"] for r in got["rows"]] == ids
    q = pd.DataFrame({"doc_id": ids, "ts": np.int64(at_ms)})
    right = scan_table(cli_env["right"], TQuery())
    exp = temporal_join(rd.from_pandas(q), right, cli_env["gb"],
                        num_partitions=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    for i, r in enumerate(got["rows"]):
        for c in ("n_tok_sum_7d", "n_tok_count_7d"):
            e = exp.loc[i, c]
            if pd.isna(e):
                assert r[c] is None, (c, r)
            else:
                assert abs(r[c] - float(e)) < 1e-6, (c, r[c], e)


def test_cli_summarize_and_resume(cli_env, capsys, tmp_path):
    out = str(tmp_path / "stats")
    res = _run(["summarize", "--input-table", cli_env["right"],
                "--out", out, "--keys", "doc_id",
                "--step-days", "3"], capsys)
    assert res["kind"] == "summarize"
    assert len(res["days_written"]) > 1
    assert res["rows"] == len(res["days_written"])  # one row per day bucket
    res2 = _run(["summarize", "--input-table", cli_env["right"],
                 "--out", out, "--keys", "doc_id",
                 "--step-days", "3"], capsys)
    assert res2["days_written"] == []


def test_cli_log_flatten_and_consistency(cli_env, capsys, tmp_path):
    """Full OOC loop through the CLI: compute the join, 'log' its output
    (encode → flatten via the log-flatten verb), then run the consistency
    verb against the flattened log — clean rows, zero mismatches."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from chronon_ray.compile import load_json
    from chronon_ray.pipelines.joins import compute_join
    from chronon_ray.pipelines.logflat import encode_log

    with open(cli_env["join_conf"]) as f:
        jc = load_json(f.read())
    truth = compute_join(jc, num_partitions=8).to_pandas()
    # unique row ids for the compare: (doc_id, ts) may collide in the
    # generated queries — dedupe like a fetcher would key its requests
    truth = truth.drop_duplicates(["doc_id", "ts"]).reset_index(drop=True)
    # keep the offline schema through the pandas round trip: int sums stay
    # int64 (a real fetcher logs the codec dtype, not a pandas promotion)
    truth["cli_part_n_tok_sum_7d"] = \
        truth["cli_part_n_tok_sum_7d"].astype("Int64")

    log_ds, registry = encode_log(
        rd.from_arrow(pa.Table.from_pandas(truth, preserve_index=False)),
        key_cols=["doc_id"], name="cli_join")
    base = tmp_path
    log_path = str(base / "raw_log.parquet")
    reg_path = str(base / "schemas.parquet")
    log_tbl = pa.concat_tables(
        list(log_ds.iter_batches(batch_format="pyarrow")))
    pq.write_table(log_tbl, log_path)
    pq.write_table(registry, reg_path)

    flat_out = str(base / "flat")
    res = _run(["log-flatten", "--log-table", log_path,
                "--schema-table", reg_path, "--out", flat_out,
                "--name", "cli_join"], capsys)
    assert res["kind"] == "log_flatten"
    assert res["rows"] == len(truth)
    # resume under the same config: nothing left
    res2 = _run(["log-flatten", "--log-table", log_path,
                 "--schema-table", reg_path, "--out", flat_out,
                 "--name", "cli_join"], capsys)
    assert res2["days_written"] == []

    met_out = str(base / "consistency")
    res3 = _run(["consistency", "--conf", cli_env["join_conf"],
                 "--logged-table", flat_out, "--out", met_out,
                 "--bucket-minutes", "1440"], capsys)
    assert res3["kind"] == "consistency"
    assert res3["rows_compared"] == len(truth)
    assert all(v == 0 for v in res3["mismatches"].values())
    from chronon_ray.sources import list_partitions
    # hourly buckets collapse into day partitions on disk
    exp_days = len(pd.to_datetime(truth["ts"], unit="ms")
                   .dt.normalize().unique())
    assert len(list_partitions(met_out)) == exp_days


def test_cli_analyze(cli_env, capsys, tmp_path):
    res = _run(["analyze", "--conf", cli_env["join_conf"]], capsys)
    assert res["kind"] == "analyze" and res["ok"] and res["issues"] == []
    res2 = _run(["analyze", "--profile-table", cli_env["right"]], capsys)
    cols = {r["column"] for r in res2["profile"]}
    assert "n_tok" in cols and "ts" in cols
    # strict mode exits nonzero on a broken conf (key column missing)
    import dataclasses

    from chronon_ray.compile import compile_to_json, load_json

    with open(cli_env["join_conf"]) as f:
        jc = load_json(f.read())
    bad_gb = dataclasses.replace(jc.parts[0].group_by,
                                 key_columns=("no_such_col",))
    bad = dataclasses.replace(
        jc, parts=(dataclasses.replace(jc.parts[0], group_by=bad_gb),))
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as f:
        f.write(compile_to_json(bad))
    with pytest.raises(SystemExit):
        _run(["analyze", "--conf", bad_path, "--strict"], capsys)


def test_cli_staging(cli_env, capsys, tmp_path):
    out = str(tmp_path / "stage_out")
    sql = ("select doc_id, ds, sum(n_tok) as toks from ev "
           "where ds between {{ start_date }} and {{ end_date }} "
           "group by doc_id, ds")
    res = _run(["staging", "--sql", sql,
                "--tables", json.dumps({"ev": cli_env["right"]}),
                "--out", out, "--start", cli_env["start"],
                "--end", cli_env["end"]], capsys)
    assert res["kind"] == "staging"
    assert len(res["partitions_written"]) == 3
    res2 = _run(["staging", "--sql", sql,
                 "--tables", json.dumps({"ev": cli_env["right"]}),
                 "--out", out, "--start", cli_env["start"],
                 "--end", cli_env["end"]], capsys)
    assert res2["partitions_written"] == []


def test_cli_label_join(cli_env, capsys, tmp_path):
    """Label verb output equals the library label_join over the same
    range."""
    import numpy as np
    import ray.data as rd

    from chronon_ray.api import TQuery
    from chronon_ray.pipelines.joins import label_join
    from chronon_ray.sources import scan_table

    out = str(tmp_path / "labels_out")
    res = _run(["label-join", "--conf", cli_env["gb_conf"],
                "--features-table", cli_env["left"],
                "--labels-table", cli_env["right"],
                "--start", cli_env["start"], "--end", cli_env["start"],
                "--out", out, "--num-partitions", "4"], capsys)
    assert res["kind"] == "label_join"
    got = rd.read_parquet(out).to_pandas() \
        .sort_values(["doc_id", "ts"]).reset_index(drop=True)
    tq = TQuery(start_partition=cli_env["start"],
                end_partition=cli_env["start"])
    exp = label_join(scan_table(cli_env["left"], tq),
                     scan_table(cli_env["right"], TQuery()),
                     _load_gb(cli_env), num_partitions=4).to_pandas() \
        .sort_values(["doc_id", "ts"]).reset_index(drop=True)
    assert res["rows"] == len(exp)
    for c in exp.columns:
        np.testing.assert_array_equal(got[c].to_numpy(),
                                      exp[c].to_numpy(), err_msg=c)


def _load_gb(cli_env):
    from chronon_ray.compile import load_json

    with open(cli_env["gb_conf"]) as f:
        return load_json(f.read())


def test_cli_upload_and_kv(cli_env, capsys, tmp_path):
    """Upload verb: checkpoint rows serve bit-equal after a KV round
    trip."""
    import ray.data as rd

    from chronon_ray.serving import kv_import
    from chronon_ray.sources import read_parquet

    out = str(tmp_path / "ck_out")
    kv_out = str(tmp_path / "kv_out")
    res = _run(["upload", "--conf", cli_env["gb_conf"],
                "--source-table", cli_env["right"],
                "--end", cli_env["end"], "--out", out,
                "--kv-out", kv_out, "--num-partitions", "4"], capsys)
    assert res["kind"] == "upload"
    assert res["keys"] > 0
    ck = read_parquet(f"{out}/ds={cli_env['end']}")
    assert ck.count() == res["keys"]
    import pyarrow as pa

    kv = read_parquet(kv_out)
    assert kv.count() == res["keys"]
    from chronon_ray.util import dataset_schema

    sch = dataset_schema(ck)
    key_fields = [pa.field("doc_id", sch.field("doc_id").type)]
    restored = kv_import(kv, key_fields)
    assert restored.count() == res["keys"]


def test_cli_summarize_ir_and_drift(cli_env, capsys, tmp_path):
    """summarize --ir → drift verb: identical inputs flag nothing; a
    value shift flags the drifted column."""
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(7)
    n = 2000

    def mk(path, loc):
        ts = rng.integers(0, 86_400_000, n).astype(np.int64)
        pd.DataFrame({"ts": ts,
                      "metric": rng.normal(loc, 1, n),
                      "ds": pd.to_datetime(ts, unit="ms")
                      .strftime("%Y-%m-%d")}).to_parquet(path, index=False)

    a, b, c = (str(tmp_path / f"{x}.parquet") for x in "abc")
    mk(a, 0.0)
    mk(b, 0.0)
    mk(c, 4.0)
    outs = {}
    for name, path in (("a", a), ("b", b), ("c", c)):
        out = str(tmp_path / f"sum_{name}")
        _run(["summarize", "--input-table", path, "--out", out, "--ir"],
             capsys)
        outs[name] = out
    same = _run(["drift", "--reference-table", outs["a"],
                 "--comparison-table", outs["b"]], capsys)
    shift = _run(["drift", "--reference-table", outs["a"],
                  "--comparison-table", outs["c"]], capsys)
    assert same["flagged"] == []
    assert any(f["column"] == "metric" and f["psi"] > 0.25
               for f in shift["flagged"])


def test_backfill_join_split_phase_cli(cli_env, capsys):
    """`backfill --phase left|parts|final` as three CLI invocations
    (join-backfill-left / join-backfill-final DAG-node analog) matches the
    one-shot output; --phase on a GroupBy conf is a loud dispatch error."""
    out_dir = os.path.join(cli_env["base"], "join_phased")
    base = ["backfill", "--conf", cli_env["join_conf"], "--out", out_dir,
            "--start", cli_env["start"], "--end", cli_env["end"],
            "--num-partitions", "4"]
    got = _run(base + ["--phase", "left"], capsys)
    assert got["phase"] == "left"
    assert len(got["left_partitions_written"]) == 3
    assert got["partitions_written"] == []
    got = _run(base + ["--phase", "parts",
                       "--selected-parts", "cli_part"], capsys)
    assert got["part_steps_computed"] == 1
    got = _run(base + ["--phase", "final"], capsys)
    assert len(got["partitions_written"]) == 3
    # identical to the one-shot output of test_backfill_join_conf's dir
    one_dir = os.path.join(cli_env["base"], "join_out")
    if os.path.isdir(one_dir):
        import pyarrow.parquet as pq

        def rows(base_dir):
            import pandas as pd
            days = sorted(d for d in os.listdir(base_dir)
                          if d.startswith("ds="))
            frames = [pq.read_table(os.path.join(base_dir, d, f)).to_pandas()
                      for d in days
                      for f in sorted(os.listdir(os.path.join(base_dir, d)))
                      if f.endswith(".parquet")]
            df = pd.concat(frames, ignore_index=True)
            return df.sort_values(list(df.columns)[:2]) \
                .reset_index(drop=True)

        a, b = rows(out_dir), rows(one_dir)
        assert a.equals(b)
    with pytest.raises(SystemExit):
        main(["backfill", "--conf", cli_env["gb_conf"], "--out", "/tmp/x",
              "--start", cli_env["start"], "--end", cli_env["end"],
              "--left-table", cli_env["left"],
              "--right-table", cli_env["right"], "--phase", "left"])
    capsys.readouterr()


def test_cli_selected_parts_requires_parts_phase(cli_env, capsys):
    with pytest.raises(SystemExit, match="--phase parts"):
        main(["backfill", "--conf", cli_env["join_conf"], "--out", "/tmp/x",
              "--start", cli_env["start"], "--end", cli_env["end"],
              "--selected-parts", "cli_part"])
    capsys.readouterr()
