"""``ray job submit`` entrypoint for the backfill drivers.

The reference ships a launcher script (api/py/ai/chronon/repo/run.py) that
dispatches compiled thrift configs to spark-submit modes (backfill /
group-by-backfill / upload). This is the Ray analog: a compiled-JSON conf
(compile.py) plus a subcommand dispatches to the matching driver in
pipelines/backfill.py, every output partition gets a lineage manifest, and
the process prints ONE machine-readable JSON summary line on stdout.

Cluster usage (the north-rule shape)::

    ray job submit --working-dir . -- \
        python -m chronon_ray backfill --conf join.json \
        --out /data/join_out --start 2024-01-01 --end 2024-03-31

``ray job submit`` sets RAY_ADDRESS inside the job container, so the bare
``ray.init()`` below connects to the hosting cluster; in the sandbox
(RAY_ADDRESS=local) the same command runs single-node. A re-run of the
same command resumes: completed partitions are skipped via their
manifests, and a conf whose semantic hash changed archives the stale
output first (state/lineage.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence


def _load_conf(path: str):
    from .compile import load_json

    with open(path) as f:
        return load_json(f.read())


def _init_ray(num_cpus: Optional[int]) -> None:
    import ray

    if ray.is_initialized():
        return
    kwargs = dict(include_dashboard=False, logging_level="ERROR")
    if num_cpus:
        # explicit local sizing (bench / scaling evidence); otherwise let
        # RAY_ADDRESS decide (cluster under `ray job submit`, else local)
        kwargs.update(address="local", num_cpus=num_cpus)
    ray.init(**kwargs)


def _cmd_compile(args: argparse.Namespace) -> dict:
    """Validate + fingerprint a conf (or compile a python conf module)."""
    conf = _load_conf(args.conf)
    from .api import GroupByConf

    return {
        "name": conf.name,
        "kind": "group_by" if isinstance(conf, GroupByConf) else "join",
        "semantic_hash": conf.semantic_hash(),
    }


def _cmd_backfill(args: argparse.Namespace) -> dict:
    from .api import GroupByConf, JoinConf
    from .pipelines.backfill import (
        backfill_incremental,
        backfill_join,
        backfill_snapshot_groupby,
        backfill_temporal_join,
    )

    conf = _load_conf(args.conf)
    _init_ray(args.num_cpus)

    if isinstance(conf, JoinConf):
        if args.mode not in ("auto", "join"):
            raise SystemExit(
                f"--mode {args.mode} needs a GroupByConf; {args.conf} "
                "compiled to a Join (its sources are embedded — drop the "
                "--*-table flags)")
        selected = (args.selected_parts.split(",")
                    if getattr(args, "selected_parts", None) else None)
        if selected and getattr(args, "phase", "all") != "parts":
            # mirror the library guard as a clean usage error (a bare
            # ValueError would reach the user as a traceback)
            raise SystemExit(
                "--selected-parts requires --phase parts (the final "
                "assembly always needs every part; with the default "
                "--phase all it would silently drop the unselected "
                "parts' feature columns)")
        summary = backfill_join(conf, args.out, args.start, args.end,
                                step_days=args.step_days,
                                num_partitions=args.num_partitions,
                                phase=getattr(args, "phase", "all"),
                                selected_parts=selected)
        kind = "join"
    elif getattr(args, "phase", "all") != "all" \
            or getattr(args, "selected_parts", None):
        raise SystemExit("--phase / --selected-parts apply to JoinConf "
                         f"backfills; {args.conf} compiled to a GroupBy")
    elif isinstance(conf, GroupByConf):
        kind = args.mode
        if args.mode == "snapshot":
            if not args.source_table:
                raise SystemExit("--mode snapshot needs --source-table")
            summary = backfill_snapshot_groupby(
                args.source_table, conf, args.out, args.start, args.end,
                step_days=args.step_days,
                num_partitions=args.num_partitions)
        elif args.mode == "incremental":
            if not (args.left_table and args.right_table
                    and args.checkpoint_dir):
                raise SystemExit("--mode incremental needs --left-table, "
                                 "--right-table and --checkpoint-dir")
            summary = backfill_incremental(
                args.left_table, args.right_table, conf, args.out,
                args.checkpoint_dir, args.start, args.end,
                step_days=args.step_days,
                num_partitions=args.num_partitions)
        elif args.mode in ("auto", "temporal"):
            if not (args.left_table and args.right_table):
                raise SystemExit("a GroupByConf backfill needs --left-table "
                                 "and --right-table (or --mode snapshot "
                                 "with --source-table)")
            kind = "temporal"
            summary = backfill_temporal_join(
                args.left_table, args.right_table, conf, args.out,
                args.start, args.end, step_days=args.step_days,
                num_partitions=args.num_partitions)
        else:
            raise SystemExit(f"--mode join needs a JoinConf; {args.conf} "
                             "compiled to a GroupBy")
    else:  # pragma: no cover - load_json only returns the two kinds
        raise SystemExit(f"unsupported conf type {type(conf).__name__}")

    return {"name": conf.name, "kind": kind,
            "semantic_hash": conf.semantic_hash(), "out": args.out,
            **summary}


def _cmd_fetch(args: argparse.Namespace) -> dict:
    """Point fetch against the newest rolling checkpoint (the reference
    run.py ``fetch`` mode / online Fetcher surface): features for a JSON
    list of key dicts as of ``--at``, merging the checkpoint with the
    in-flight events scanned from ``--right-table``."""
    import os

    import pandas as pd

    from .api import GroupByConf, TQuery
    from .serving import fetch_features
    from .sources import read_parquet, scan_table

    conf = _load_conf(args.conf)
    if not isinstance(conf, GroupByConf):
        raise SystemExit("fetch needs a GroupByConf (point features are "
                         "per-GroupBy, like the reference Fetcher)")
    _init_ray(args.num_cpus)

    keys = json.loads(args.keys)
    if isinstance(keys, dict):
        keys = [keys]
    at_ms = int(pd.Timestamp(args.at).value // 10**6) \
        if not str(args.at).isdigit() else int(args.at)

    # newest usable checkpoint at or before --at
    best = None
    for d in sorted(os.listdir(args.checkpoint_dir)):
        if not d.startswith("ds="):
            continue
        mf = os.path.join(args.checkpoint_dir, d, "_MANIFEST.json")
        if not os.path.exists(mf):
            continue
        with open(mf) as f:
            meta = json.load(f)
        if meta.get("config_hash") != conf.semantic_hash():
            continue
        if meta["batch_end_ts"] <= at_ms:
            best = (d[3:], meta["batch_end_ts"])
    if best is None:
        raise SystemExit(f"no checkpoint at or before {args.at} under "
                         f"{args.checkpoint_dir} matching this conf")
    ck_ds, batch_end = best
    ck = read_parquet(os.path.join(args.checkpoint_dir, f"ds={ck_ds}"))
    at_ds = str(pd.Timestamp(at_ms, unit="ms").date())
    head = scan_table(args.right_table,
                      TQuery(start_partition=ck_ds, end_partition=at_ds,
                             time_column="ts"))
    res = fetch_features(ck, conf, batch_end, keys, at_ms,
                         recent_events=head,
                         num_partitions=args.num_partitions,
                         full_hops=None)
    return {"name": conf.name, "kind": "fetch", "checkpoint_ds": ck_ds,
            "batch_end_ts": batch_end, "at": at_ms,
            "rows": json.loads(res.to_json(orient="records"))}


def _cmd_summarize(args: argparse.Namespace) -> dict:
    """Daily feature-summary backfill (the reference Driver's
    daily-stats / log-stats verbs, SummaryJob.scala)."""
    from .pipelines.stats import summary_job

    _init_ray(args.num_cpus)
    keys = args.keys.split(",") if args.keys else []
    written = summary_job(args.input_table, args.out, keys=keys,
                          end_ds=args.end, step_days=args.step_days,
                          sample=args.sample,
                          time_bucket_minutes=args.bucket_minutes,
                          finalize=not args.ir)
    return {"kind": "summarize", "input": args.input_table,
            "out": args.out, "days_written": sorted(written),
            "rows": int(sum(m.get("rows", 0) for m in written.values()))}


def _cmd_log_flatten(args: argparse.Namespace) -> dict:
    """Flatten serialized request logs into the offline merged-schema
    table (the reference Driver's log-flattener verb,
    LogFlattenerJob.scala)."""
    from .pipelines.logflat import log_flatten_job

    _init_ray(args.num_cpus)
    written = log_flatten_job(args.log_table, args.schema_table, args.out,
                              name=args.name, end_ds=args.end,
                              step_days=args.step_days)
    return {"kind": "log_flatten", "log_table": args.log_table,
            "out": args.out, "days_written": sorted(written),
            "rows": int(sum(m.get("rows", 0) for m in written.values()))}


def _metrics_summary(metrics, kind: str) -> tuple:
    """Collect a (tiny, bucket-cardinality) metrics dataset and build the
    JSON summary shared by the consistency and compare verbs — empty
    comparisons summarize as zero buckets instead of crashing."""
    met = metrics.to_pandas()
    if "bucket_ts" not in met.columns:   # zero metric rows
        import pandas as pd

        met = pd.DataFrame({"bucket_ts": pd.Series(dtype="int64")})
    met = met.sort_values("bucket_ts")
    mismatch_cols = [c for c in met.columns if c.endswith("_mismatch")]
    total_cols = [c for c in met.columns if c.endswith("_total")]
    summary = {
        "kind": kind, "buckets": len(met),
        "rows_compared": int(met[total_cols[0]].sum()) if total_cols else 0,
        "mismatches": {c[:-len("_mismatch")]: int(met[c].sum())
                       for c in mismatch_cols},
    }
    return met, summary


def _write_bucketed(met, out_dir: str, config_hash: str) -> None:
    """Write a bucket_ts-keyed metrics frame as ds-partitioned parquet."""
    import numpy as np
    import pyarrow as pa

    from .state.lineage import write_partitioned

    if not len(met):
        return
    days = (met["bucket_ts"].to_numpy() // 86_400_000) \
        .astype("datetime64[D]")
    out_tbl = pa.Table.from_pandas(met, preserve_index=False) \
        .append_column("ds", pa.array(
            np.datetime_as_string(days, unit="D").tolist(),
            type=pa.string()))
    write_partitioned(out_tbl, out_dir, config_hash)


def _cmd_consistency(args: argparse.Namespace) -> dict:
    """Online/offline consistency metrics (the reference Driver's
    consistency-metrics-compute verb, ConsistencyJob.scala): backfill the
    offline truth over the logged left and compare row-by-row."""
    from .api import JoinConf
    from .pipelines.stats import consistency_job

    conf = _load_conf(args.conf)
    if not isinstance(conf, JoinConf):
        raise SystemExit("consistency needs a JoinConf (the metrics "
                         "compare a Join's logged vs backfilled values)")
    _init_ray(args.num_cpus)
    _, metrics = consistency_job(conf, args.logged_table,
                                 sample_percent=args.sample_percent,
                                 time_bucket_minutes=args.bucket_minutes,
                                 num_partitions=args.num_partitions)
    met, summary = _metrics_summary(metrics, "consistency")
    summary["name"] = conf.name
    if args.out:
        _write_bucketed(met, args.out, conf.semantic_hash())
        summary["out"] = args.out
    return summary


def _cmd_compare(args: argparse.Namespace) -> dict:
    """Side-by-side table comparison (the reference Driver's
    compare-join-query verb, CompareJob.scala): migration checks between
    an old table and its replacement — per-field null accounting,
    mismatches, SMAPE, value sketches per time bucket."""
    from .api import TQuery
    from .pipelines.stats import compare_tables
    from .sources import clip_ds_range, scan_table

    _init_ray(args.num_cpus)
    keys = args.keys.split(",")
    mapping = json.loads(args.mapping) if args.mapping else {}
    tq = TQuery(start_partition=args.start, end_partition=args.end)
    # clip_ds_range: hive scans prune at the path level, but flat files
    # would silently ignore --start/--end without a row filter
    left = clip_ds_range(scan_table(args.left_table, tq),
                         args.start, args.end)
    right = clip_ds_range(scan_table(args.right_table, tq),
                          args.start, args.end)
    _, metrics = compare_tables(left, right, keys=keys, mapping=mapping,
                                migration_check=args.migration_check,
                                time_bucket_minutes=args.bucket_minutes,
                                num_partitions=args.num_partitions)
    met, summary = _metrics_summary(metrics, "compare")
    if args.out:
        _write_bucketed(met, args.out, "compare")
        summary["out"] = args.out
    return summary


def _cmd_analyze(args: argparse.Namespace) -> dict:
    """Plan-time validation + optional data profile (the reference
    Driver's analyze verb, Analyzer.scala): schema/key/dtype/collision
    issues for a compiled conf, and per-column profile stats for
    ``--profile-table``."""
    from .analyzer import analyze_group_by, analyze_join, profile_table
    from .api import GroupByConf, JoinConf

    conf = _load_conf(args.conf) if args.conf else None
    issues: list = []
    if isinstance(conf, JoinConf):
        issues = analyze_join(conf)
    elif isinstance(conf, GroupByConf):
        issues = analyze_group_by(conf)
    out: dict = {"kind": "analyze", "issues": issues,
                 "ok": not issues}
    if conf is not None:
        out["name"] = conf.name
    if args.profile_table:
        from .api import TQuery
        from .sources import scan_table

        _init_ray(args.num_cpus)
        prof = profile_table(scan_table(args.profile_table, TQuery()))
        out["profile"] = json.loads(prof.to_json(orient="records"))
    if issues and args.strict:
        print(json.dumps({"status": "invalid", **out}))
        raise SystemExit(1)
    return out


def _cmd_staging(args: argparse.Namespace) -> dict:
    """StagingQuery backfill (the reference Driver's
    staging-query-backfill verb): render macros per step range and write
    ds-partitioned output with resume manifests."""
    from .staging import run_staging_query

    if args.sql_file:
        with open(args.sql_file) as f:
            sql = f.read()
    else:
        sql = args.sql
    if not sql:
        raise SystemExit("staging needs --sql or --sql-file")
    tables = json.loads(args.tables)
    summary = run_staging_query(sql, tables, args.out, args.start,
                                args.end, step_days=args.step_days)
    return {"kind": "staging", "out": args.out, **summary}


def _cmd_label_join(args: argparse.Namespace) -> dict:
    """Forward-window label attachment (the reference Driver's label-join
    verb, LabelJoin.scala): labels aggregated over (ts, ts+W] joined back
    to feature rows, written day-partitioned by the feature row's ts."""
    import numpy as np
    import pyarrow as pa

    from .api import GroupByConf, TQuery
    from .pipelines.joins import label_join
    from .sources import scan_table
    from .state.lineage import write_partitioned

    conf = _load_conf(args.conf)
    if not isinstance(conf, GroupByConf):
        raise SystemExit("label-join needs a label GroupByConf")
    _init_ray(args.num_cpus)
    tq = TQuery(start_partition=args.start, end_partition=args.end)
    from .sources import clip_ds_range

    feats = clip_ds_range(scan_table(args.features_table, tq),
                          args.start, args.end)
    labels = scan_table(args.labels_table, TQuery())
    out = label_join(feats, labels, conf,
                     num_partitions=args.num_partitions)

    def add_ds(t: pa.Table) -> pa.Table:
        if "ds" in t.column_names:
            return t
        days = (t["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
                // 86_400_000).astype("datetime64[D]")
        return t.append_column(
            "ds", pa.array(np.datetime_as_string(days, unit="D").tolist(),
                           type=pa.string()))

    add_ds.__name__ = "label_add_ds"
    out = out.map_batches(add_ds, batch_format="pyarrow")
    manifests = write_partitioned(out, args.out, conf.semantic_hash())
    return {"kind": "label_join", "name": conf.name, "out": args.out,
            "partitions_written": sorted(manifests),
            "rows": int(sum(m.get("rows", 0) for m in manifests.values()))}


def _cmd_upload(args: argparse.Namespace) -> dict:
    """FinalBatchIr bulk upload (the reference Driver's group-by-upload
    verb, GroupByUpload.scala): one IR row per key as of midnight after
    --end, written as a checkpoint table and optionally packed into
    (key_bytes, value_bytes) KV rows."""
    import pandas as pd

    from .api import EventSource, GroupByConf, TQuery
    from .pipelines.upload import groupby_upload
    from .sources import required_columns, scan_table
    from .state.lineage import write_partitioned
    from .util import map_typed

    conf = _load_conf(args.conf)
    if not isinstance(conf, GroupByConf):
        raise SystemExit("upload needs a GroupByConf")
    _init_ray(args.num_cpus)
    batch_end = int(pd.Timestamp(args.end).value // 10**6) + 86_400_000
    events = scan_table(args.source_table, TQuery(end_partition=args.end),
                        columns=required_columns(
                            EventSource(table=args.source_table), conf))
    ck = groupby_upload(events, conf, batch_end,
                        num_partitions=args.num_partitions,
                        full_hops=args.full_hops)
    if args.kv_out:
        # consumed twice (checkpoint write + KV pack): pin the blocks so
        # the scan+shuffle+aggregate pipeline doesn't execute twice
        ck = ck.materialize()
    import pyarrow as pa

    def add_ds(t: pa.Table, _ds=args.end) -> pa.Table:
        return t.append_column(
            "ds", pa.array([_ds] * len(t), type=pa.string()))

    add_ds.__name__ = "upload_add_ds"
    manifests = write_partitioned(
        map_typed(ck, add_ds), args.out,
        conf.semantic_hash(), metrics={"batch_end_ts": batch_end})
    summary = {"kind": "upload", "name": conf.name, "out": args.out,
               "batch_end_ts": batch_end,
               "keys": int(sum(m.get("rows", 0) for m in manifests.values())),
               "partitions_written": sorted(manifests)}
    if args.kv_out:
        from .serving import kv_export

        # streamed distributed write — the KV payload never lands on
        # the driver (a real deployment streams these rows to the store)
        kv = kv_export(ck, list(conf.key_columns))
        kv.write_parquet(args.kv_out)
        summary["kv_out"] = args.kv_out
    return summary


def _cmd_drift(args: argparse.Namespace) -> dict:
    """Distribution drift between two IR-mode summary tables
    (StatsGenerator.lInfKllSketch / PSIKllSketch): per bucket and column,
    null-rate delta, L-inf and PSI."""
    from .pipelines.stats import drift_metrics
    from .sources import read_parquet

    _init_ray(args.num_cpus)
    ref = read_parquet(args.reference_table)
    cmp_ = read_parquet(args.comparison_table)
    import pandas as pd

    d = drift_metrics(ref, cmp_, bins=args.bins,
                      align=getattr(args, "align", "strict"))
    psi = pd.to_numeric(d["psi"], errors="coerce")
    nrd = pd.to_numeric(d["null_rate_delta"], errors="coerce")
    flagged = d[(psi > args.psi_threshold)
                | (nrd > args.null_rate_threshold)
                | (d["status"] != "ok")]   # appeared/disappeared columns
    return {"kind": "drift", "rows": len(d),
            "flagged": json.loads(flagged.to_json(orient="records")),
            "psi_threshold": args.psi_threshold}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m chronon_ray",
        description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="validate a compiled conf and print "
                                       "its semantic hash")
    c.add_argument("--conf", required=True, help="compiled JSON conf path")
    c.set_defaults(fn=_cmd_compile)

    b = sub.add_parser("backfill", help="range-planned, resumable backfill "
                                        "of a GroupBy or Join conf")
    b.add_argument("--conf", required=True, help="compiled JSON conf path")
    b.add_argument("--out", required=True, help="output directory "
                   "(ds-partitioned parquet + lineage manifests)")
    b.add_argument("--start", required=True, help="first ds (YYYY-MM-DD)")
    b.add_argument("--end", required=True, help="last ds (YYYY-MM-DD)")
    b.add_argument("--mode", default="auto",
                   choices=("auto", "join", "temporal", "snapshot",
                            "incremental"),
                   help="driver; auto = join for a JoinConf, temporal for "
                        "a GroupByConf")
    b.add_argument("--left-table", help="query-side table "
                   "(GroupBy temporal/incremental modes)")
    b.add_argument("--right-table", help="event-side table "
                   "(GroupBy temporal/incremental modes)")
    b.add_argument("--source-table", help="event table (snapshot mode)")
    b.add_argument("--checkpoint-dir", help="rolling FinalBatchIr "
                   "checkpoint dir (incremental mode)")
    b.add_argument("--step-days", type=int, default=30)
    b.add_argument("--num-partitions", type=int, default=64)
    b.add_argument("--phase", default="all",
                   choices=["all", "left", "parts", "final"],
                   help="split-phase Join backfill (the reference "
                        "join-backfill-left / join-backfill-final DAG "
                        "nodes): 'left' caches the shared left table, "
                        "'parts' computes per-part feature caches, "
                        "'final' assembles from the caches")
    b.add_argument("--selected-parts", default=None,
                   help="comma-separated joinPart full prefixes to "
                        "restrict --phase parts (selected_join_parts "
                        "analog)")
    b.add_argument("--num-cpus", type=int, default=None,
                   help="force a fresh LOCAL ray session of this size "
                        "(default: connect per RAY_ADDRESS)")
    b.set_defaults(fn=_cmd_backfill)

    f = sub.add_parser("fetch", help="point-fetch features for key dicts "
                                     "as of a timestamp, from the newest "
                                     "rolling checkpoint + in-flight "
                                     "events")
    f.add_argument("--conf", required=True, help="compiled GroupBy JSON")
    f.add_argument("--checkpoint-dir", required=True,
                   help="rolling checkpoint dir written by "
                        "`backfill --mode incremental`")
    f.add_argument("--right-table", required=True,
                   help="event table for the in-flight buffer")
    f.add_argument("--keys", required=True,
                   help='JSON key dict(s): \'{"user_id": 5}\' or a list')
    f.add_argument("--at", required=True,
                   help="fetch timestamp: epoch ms or YYYY-MM-DD[THH:MM]")
    f.add_argument("--num-partitions", type=int, default=8)
    f.add_argument("--num-cpus", type=int, default=None)
    f.set_defaults(fn=_cmd_fetch)

    s = sub.add_parser("summarize", help="resumable daily feature-summary "
                                         "backfill (null rates, percentile "
                                         "sketches) over any table")
    s.add_argument("--input-table", required=True)
    s.add_argument("--out", required=True,
                   help="stats output dir (ds-partitioned)")
    s.add_argument("--keys", default="",
                   help="comma-separated key columns to exclude")
    s.add_argument("--end", default=None, help="last ds (YYYY-MM-DD)")
    s.add_argument("--step-days", type=int, default=None)
    s.add_argument("--sample", type=float, default=1.0,
                   help="deterministic ts-hash sample fraction")
    s.add_argument("--bucket-minutes", type=int, default=24 * 60)
    s.add_argument("--ir", action="store_true",
                   help="write mergeable KLL IR blobs instead of finalized "
                        "percentiles (the drift verb's input)")
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=_cmd_summarize)

    lf = sub.add_parser("log-flatten", help="flatten request logs "
                                            "(key/value bytes + schema "
                                            "registry) into the offline "
                                            "merged-schema table")
    lf.add_argument("--log-table", required=True)
    lf.add_argument("--schema-table", required=True,
                    help="schema registry parquet (schema_hash → schemas)")
    lf.add_argument("--out", required=True)
    lf.add_argument("--name", default=None,
                    help="only flatten rows logged under this join name")
    lf.add_argument("--end", default=None)
    lf.add_argument("--step-days", type=int, default=None)
    lf.add_argument("--num-cpus", type=int, default=None)
    lf.set_defaults(fn=_cmd_log_flatten)

    cm = sub.add_parser("consistency", help="online/offline consistency "
                                            "metrics: backfill truth over "
                                            "the logged left and compare")
    cm.add_argument("--conf", required=True, help="compiled Join JSON")
    cm.add_argument("--logged-table", required=True,
                    help="flattened log table (keys + ts + served values)")
    cm.add_argument("--out", default=None,
                    help="optional metrics output dir (ds-partitioned)")
    cm.add_argument("--sample-percent", type=float, default=100.0)
    cm.add_argument("--bucket-minutes", type=int, default=60)
    cm.add_argument("--num-partitions", type=int, default=32)
    cm.add_argument("--num-cpus", type=int, default=None)
    cm.set_defaults(fn=_cmd_consistency)

    cp = sub.add_parser("compare", help="side-by-side comparison of two "
                                        "tables on keys (migration check)")
    cp.add_argument("--left-table", required=True)
    cp.add_argument("--right-table", required=True)
    cp.add_argument("--keys", required=True,
                    help="comma-separated join keys (must include ts or ds)")
    cp.add_argument("--mapping", default=None,
                    help='JSON left→right column rename map')
    cp.add_argument("--migration-check", action="store_true",
                    help="allow extra left columns (pruned before compare)")
    cp.add_argument("--start", default=None)
    cp.add_argument("--end", default=None)
    cp.add_argument("--out", default=None)
    cp.add_argument("--bucket-minutes", type=int, default=60)
    cp.add_argument("--num-partitions", type=int, default=32)
    cp.add_argument("--num-cpus", type=int, default=None)
    cp.set_defaults(fn=_cmd_compare)

    an = sub.add_parser("analyze", help="plan-time validation of a conf "
                                        "and/or a one-pass table profile")
    an.add_argument("--conf", default=None, help="compiled JSON conf path")
    an.add_argument("--profile-table", default=None,
                    help="table to profile (rows/nulls/min/max per column)")
    an.add_argument("--strict", action="store_true",
                    help="exit nonzero when validation issues exist")
    an.add_argument("--num-cpus", type=int, default=None)
    an.set_defaults(fn=_cmd_analyze)

    st = sub.add_parser("staging", help="StagingQuery backfill: render "
                                        "SQL macros per step range, write "
                                        "resumable ds partitions")
    st.add_argument("--sql", default=None)
    st.add_argument("--sql-file", default=None)
    st.add_argument("--tables", required=True,
                    help='JSON {view_name: parquet path}')
    st.add_argument("--out", required=True)
    st.add_argument("--start", required=True)
    st.add_argument("--end", required=True)
    st.add_argument("--step-days", type=int, default=30)
    st.set_defaults(fn=_cmd_staging)

    lj = sub.add_parser("label-join", help="forward-window label "
                                           "attachment to feature rows")
    lj.add_argument("--conf", required=True, help="label GroupBy JSON")
    lj.add_argument("--features-table", required=True)
    lj.add_argument("--labels-table", required=True)
    lj.add_argument("--out", required=True)
    lj.add_argument("--start", default=None)
    lj.add_argument("--end", default=None)
    lj.add_argument("--num-partitions", type=int, default=32)
    lj.add_argument("--num-cpus", type=int, default=None)
    lj.set_defaults(fn=_cmd_label_join)

    up = sub.add_parser("upload", help="FinalBatchIr bulk upload: one IR "
                                       "row per key as of midnight after "
                                       "--end (+ optional KV byte rows)")
    up.add_argument("--conf", required=True, help="GroupBy JSON")
    up.add_argument("--source-table", required=True)
    up.add_argument("--end", required=True, help="last input ds")
    up.add_argument("--out", required=True, help="checkpoint table dir")
    up.add_argument("--kv-out", default=None,
                    help="also pack (key_bytes, value_bytes) rows here")
    up.add_argument("--full-hops", action="store_true",
                    help="rolling layout (roll_checkpoint-advanceable)")
    up.add_argument("--num-partitions", type=int, default=32)
    up.add_argument("--num-cpus", type=int, default=None)
    up.set_defaults(fn=_cmd_upload)

    dr = sub.add_parser("drift", help="distribution drift between two "
                                      "IR-mode summary tables "
                                      "(summarize --ir outputs)")
    dr.add_argument("--reference-table", required=True)
    dr.add_argument("--comparison-table", required=True)
    dr.add_argument("--bins", type=int, default=128)
    dr.add_argument("--align", default="strict", choices=["strict", "merge"],
                    help="bucket alignment: strict joins identical "
                         "bucket_ts values; merge collapses each side's "
                         "IRs across its buckets (cross-period drift, "
                         "e.g. last week vs this week)")
    dr.add_argument("--psi-threshold", type=float, default=0.25)
    dr.add_argument("--null-rate-threshold", type=float, default=0.05)
    dr.add_argument("--num-cpus", type=int, default=None)
    dr.set_defaults(fn=_cmd_drift)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    owns_ray = False
    if getattr(args, "fn", None) in (_cmd_backfill, _cmd_fetch,
                                     _cmd_summarize, _cmd_log_flatten,
                                     _cmd_consistency, _cmd_compare,
                                     _cmd_analyze, _cmd_label_join,
                                     _cmd_upload, _cmd_drift):
        import ray

        owns_ray = not ray.is_initialized()
    try:
        result = args.fn(args)
    finally:
        if owns_ray:
            import ray

            if ray.is_initialized():
                ray.shutdown()
    print(json.dumps({"status": "ok", **result}))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
