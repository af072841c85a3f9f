"""Ray Data per-operator stats → per-layer rows.

``operator_rows(executor)`` reads a finished ``StreamingExecutor`` (one
executed Dataset) and returns one row per operator stage: rows in and out,
bytes out, task count, per-task wall times and UDF time. ``layer_of`` maps an
operator to the ``chronon_ray`` layer that owns it by the names its UDFs
give the operator; the first rule that matches a (possibly fused) operator
name wins, so a fused ``ReadParquet->...->MapBatches(_TagAlign)`` belongs to
``temporal.tag``. For such a fused read, the time outside any UDF is the
read itself and is credited to ``sources.scan`` (see ``split_read``).
"""

from __future__ import annotations

import dataclasses

#: (substring of the operator name, layer); first match wins
LAYER_RULES = (
    ("TemporalPartition", "temporal.kernel"),
    ("_ServePartition", "upload.serve"),
    ("roll_merge", "upload.roll"),
    ("upload_merge", "upload.merge"),
    ("_MergePartition", "assembly.merge"),
    ("distinct_merge", "joins.distinct"),
    ("_TagAlign", "temporal.tag"),
    ("_TagPad", "assembly.tag"),
    ("Write", "lineage.write"),
    ("ReadParquet", "sources.scan"),
)
#: map-side stage names of the all-to-all (exchange) operators
EXCHANGE_MAP_STAGES = ("map", "SortMap", "ShuffleMap")


def layer_of(name: str) -> str:
    for needle, layer in LAYER_RULES:
        if needle in name:
            return layer
    return "other"


def _op_layer(op) -> str:
    kind = type(op).__name__
    if "AllToAll" in kind or "HashShuffle" in kind:
        return "exchange"
    if kind.startswith(("Union", "Limit")):
        return "other"
    return layer_of(op.name)


@dataclasses.dataclass
class OpRow:
    operator: str  # physical operator name, fused stages joined by "->"
    stage: str  # sub-stage for all-to-all operators, else the operator
    layer: str
    rows_in: int
    rows_out: int
    bytes_out: int
    task_wall_s: list  # wall seconds per task
    udf_s: float
    #: UDF objects of the logical operators fused into this operator
    udfs: tuple = ()
    op_id: int = 0  # identity of the physical operator within its run

    @property
    def tasks(self) -> int:
        return len(self.task_wall_s)

    @property
    def wall_s(self) -> float:
        return sum(self.task_wall_s)


def split_read(row: OpRow) -> tuple[float, float]:
    """(seconds credited to sources.scan, seconds left to row.layer)."""
    if row.layer == "sources.scan":
        return row.wall_s, 0.0
    if row.operator.startswith("ReadParquet"):
        return max(0.0, row.wall_s - row.udf_s), min(row.wall_s, row.udf_s)
    return 0.0, row.wall_s


def _task_walls(blocks) -> tuple[list, float]:
    per_task: dict = {}
    udf = 0.0
    for i, b in enumerate(blocks):
        ex = getattr(b, "exec_stats", None)
        if ex is None or ex.wall_time_s is None:
            continue
        key = ex.task_idx if ex.task_idx is not None else ("block", i)
        per_task[key] = per_task.get(key, 0.0) + ex.wall_time_s
        udf += ex.udf_time_s or 0.0
    return list(per_task.values()), udf


def _udfs(op) -> tuple:
    return tuple(fn for lop in getattr(op, "_logical_operators", ())
                 if (fn := getattr(lop, "_fn", None)) is not None)


def operator_rows(executor) -> list[OpRow]:
    """One OpRow per executed operator stage of a finished executor."""
    rows = []
    for op in executor._topology:
        if type(op).__name__ == "InputDataBuffer":
            continue
        stats = op.get_stats() or {}
        rows_in = int(op.metrics.num_row_inputs_received or 0)
        layer = _op_layer(op)
        for stage, blocks in stats.items():
            blocks = blocks or []
            walls, udf = _task_walls(blocks)
            rows.append(OpRow(
                operator=op.name, stage=stage, layer=layer,
                rows_in=rows_in,
                rows_out=sum(b.num_rows or 0 for b in blocks),
                bytes_out=sum(b.size_bytes or 0 for b in blocks),
                task_wall_s=walls, udf_s=udf, udfs=_udfs(op),
                op_id=id(op)))
    return rows


def summarize(rows: list[OpRow]) -> dict[str, dict]:
    """layer → rows in/out, bytes, wall, tasks and max/mean task wall."""
    out: dict[str, dict] = {}
    for r in rows:
        scan_s, own_s = split_read(r)
        if scan_s:
            out.setdefault("sources.scan", _empty())["wall_s"] += scan_s
        s = out.setdefault(r.layer, _empty())
        s["rows_in"] += r.rows_in
        s["rows_out"] += r.rows_out
        s["bytes_out"] += r.bytes_out
        s["wall_s"] += own_s
        s["task_wall_s"].extend(r.task_wall_s)
    for s in out.values():
        walls = s.pop("task_wall_s")
        s["tasks"] = len(walls)
        s["task_max_s"] = max(walls, default=0.0)
        mean = sum(walls) / len(walls) if walls else 0.0
        s["skew"] = s["task_max_s"] / mean if mean else 0.0
    return out


def _empty() -> dict:
    return {"rows_in": 0, "rows_out": 0, "bytes_out": 0, "wall_s": 0.0,
            "task_wall_s": []}
