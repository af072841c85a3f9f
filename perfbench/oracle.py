"""DuckDB oracle for the benchmark's windowed as-of features.

Each feature is the reference sawtooth semantics written as SQL: for a left
row at time ``q``, an event of the same key counts toward window ``W`` when
``round(q - W, hop) <= event.ts < q`` (``hop`` from the tail resolution
policy); unbounded windows have no tail. List payloads are compared through
an md5 of their canonical string, as ``__ray_entry__.oracle_sql()`` does.

``last``/``last_k`` are only defined up to event-time ties. The oracle marks
a left row ambiguous for such a feature when the ordering among its top
events is tied, and the comparison skips exactly those cells.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from chronon_ray.api import GroupByConf, Operation

#: relative tolerance for sums/averages (floating accumulation order)
RTOL = 1e-9
MINUTE, HOUR, DAY = 60_000, 3_600_000, 86_400_000


def _tail_hop(window_ms: int) -> int:
    """The reference resolution policy, restated here so that the oracle
    does not share the engine's code: windows of 12 days or more hop by the
    day, of 12 hours or more by the hour, shorter ones by five minutes."""
    if window_ms >= 12 * DAY:
        return DAY
    return HOUR if window_ms >= 12 * HOUR else 5 * MINUTE


def _in_window(part) -> str:
    if part.window.unbounded:
        return "e.ets < q.ts"
    w = part.window.millis
    hop = _tail_hop(w)
    return f"e.ets < q.ts and e.ets >= ((q.ts - {w}) // {hop}) * {hop}"


def feature_specs(conf: GroupByConf, prefix: str = "") -> list[dict]:
    """One spec per output column: name, kind and the SQL window filter."""
    specs = []
    for p in conf.parts():
        op = p.operation
        spec = {"name": prefix + p.output_name, "col": p.input_column,
                "cond": _in_window(p), "op": op}
        if op in (Operation.SUM, Operation.AVERAGE):
            spec["kind"] = "float"
        elif op in (Operation.COUNT, Operation.UNIQUE_COUNT):
            spec["kind"] = "count"
        elif op in (Operation.LAST, Operation.LAST_K):
            spec["kind"] = "text"
            spec["k"] = p.get_int("k") if op == Operation.LAST_K else 1
        else:
            raise NotImplementedError(f"oracle has no rule for {op}")
        specs.append(spec)
    return specs


def _list_sql(col: str) -> str:
    return f"array_to_string({col}, ',')"


def oracle_sql(queries_sql: str, events_sql: str, specs: list[dict],
               list_columns: set[str]) -> str:
    """One row per left row (``rid``) with every feature and, for order
    dependent features, an ``<name>__amb`` ambiguity flag."""
    ctes = [f"q as (select row_number() over (order by doc_id, ts) as rid, "
            f"doc_id, ts from ({queries_sql}))",
            f"e as (select * from ({events_sql}))"]
    base_cols, joins = [], []
    for i, s in enumerate(specs):
        n, c, cond = s["name"], s["col"], s["cond"]
        op = s["op"]
        if op == Operation.SUM:
            base_cols.append(f"cast(sum(case when {cond} then e.{c} end) "
                             f"as double) as \"{n}\"")
        elif op == Operation.AVERAGE:
            base_cols.append(f"avg(case when {cond} then e.{c} end) "
                             f"as \"{n}\"")
        elif op == Operation.COUNT:
            base_cols.append(f"count(case when {cond} then e.{c} end) "
                             f"as \"{n}\"")
        elif op == Operation.UNIQUE_COUNT and c not in list_columns:
            base_cols.append(f"count(distinct case when {cond} then e.{c} "
                             f"end) as \"{n}\"")
        elif op == Operation.UNIQUE_COUNT:
            # list input: distinct over the exploded elements
            ctes.append(
                f"f{i} as (select rid, count(distinct tok) as \"{n}\" from "
                f"(select q.rid, unnest(e.{c}) as tok from q join e "
                f"on q.doc_id = e.doc_id and {cond}) group by rid)")
            joins.append((f"f{i}", [n]))
        else:  # LAST / LAST_K
            k = s["k"]
            val = _list_sql(f"e.{c}") if c in list_columns else f"e.{c}"
            ctes.append(
                f"r{i} as (select q.rid, e.ets, {val} as v, row_number() "
                f"over (partition by q.rid order by e.ets desc) as rn "
                f"from q join e on q.doc_id = e.doc_id and {cond})")
            if k > 1:
                agg = (f"md5(string_agg(v, '|' order by rn) "
                       f"filter (where rn <= {k}))")
            elif c in list_columns:
                agg = "md5(any_value(v) filter (where rn = 1))"
            else:
                agg = "any_value(v) filter (where rn = 1)"
            ctes.append(
                f"f{i} as (select rid, {agg} as \"{n}\", "
                f"count(distinct ets) filter (where rn <= {k + 1}) "
                f"< count(*) filter (where rn <= {k + 1}) as \"{n}__amb\" "
                f"from r{i} group by rid)")
            joins.append((f"f{i}", [n, f"{n}__amb"]))
    ctes.append("b as (select q.rid, any_value(q.doc_id) as doc_id, "
                "any_value(q.ts) as ts"
                + "".join(f", {c}" for c in base_cols)
                + " from q left join e on q.doc_id = e.doc_id group by q.rid)")
    sel = ["b.*"] + [f"{a}.\"{c}\"" for a, cols in joins for c in cols]
    frm = "b" + "".join(f" left join {a} using (rid)" for a, _ in joins)
    return ("with " + ",\n".join(ctes) + f"\nselect {', '.join(sel)} "
            f"from {frm} order by doc_id, ts")


def run_oracle(sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("set threads to 1")
        return con.execute(sql).df()
    finally:
        con.close()


def _md5_list(v) -> str | None:
    if v is None:
        return None
    return hashlib.md5(",".join(str(int(x)) for x in v).encode()).hexdigest()


def _md5_lists(v) -> str | None:
    if v is None or len(v) == 0:
        return None
    s = "|".join(",".join(str(int(x)) for x in a) for a in v)
    return hashlib.md5(s.encode()).hexdigest()


def canonical_text(table: pa.Table, spec: dict,
                   list_columns: set[str]) -> list:
    """Engine output → the oracle's representation for a text feature."""
    vals = table[spec["name"]].to_pylist()
    if spec["col"] not in list_columns:
        return vals
    f = _md5_lists if spec["k"] > 1 else _md5_list
    return [f(v) for v in vals]


def compare(got: pa.Table, expected: pd.DataFrame, specs: list[dict],
            list_columns: set[str]) -> list[str]:
    """Differences between an engine output and the oracle; [] when equal.

    Rows are matched as a multiset: both sides are sorted by (doc_id, ts),
    and duplicate left rows carry identical features by construction."""
    errors = []
    if got.num_rows != len(expected):
        return [f"row count {got.num_rows} != oracle {len(expected)}"]
    order = pd.DataFrame({"doc_id": got["doc_id"].to_pylist(),
                          "ts": got["ts"].to_numpy(zero_copy_only=False)}) \
        .sort_values(["doc_id", "ts"], kind="stable").index.to_numpy()
    got = got.take(pa.array(order))
    for key in ("doc_id", "ts"):
        if got[key].to_pylist() != expected[key].tolist():
            return [f"left rows differ on {key}"]
    for s in specs:
        n = s["name"]
        if n not in got.column_names:
            errors.append(f"missing column {n}")
            continue
        exp = expected[n]
        if s["kind"] == "text":
            g = canonical_text(got, s, list_columns)
            amb = expected[n + "__amb"].eq(True).to_numpy()
            e = [None if pd.isna(v) else v for v in exp.tolist()]
            bad = sum(1 for i in range(len(g)) if not amb[i] and g[i] != e[i])
        else:
            g = np.array([np.nan if v is None else float(v)
                          for v in got[n].to_pylist()])
            e = exp.to_numpy(dtype=float, na_value=np.nan)
            if s["kind"] == "count":  # empty windows: engine null, SQL 0
                g, e = np.nan_to_num(g, nan=0.0), np.nan_to_num(e, nan=0.0)
            gn, en = np.isnan(g), np.isnan(e)
            close = np.isclose(g, e, rtol=RTOL, atol=0.0)
            bad = int(((gn != en) | (~gn & ~en & ~close)).sum())
        if bad:
            errors.append(f"{n}: {bad} of {len(exp)} rows differ")
    return errors
