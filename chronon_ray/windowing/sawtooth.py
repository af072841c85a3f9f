"""Sawtooth window engine: hop-tiled IRs + two-stack sliding merge + exact head.

The per-key engine behind temporal (as-of) aggregation for operations that
have no invertible/prefix form (UNIQUE_COUNT, HISTOGRAM, TOP_K, sketches,
bucketed anything). Combines the reference's two designs:

- hop tiling: events collapse into per-hop partial IRs at the window's tail
  resolution, so per-query work is bounded by hops-per-window, not
  events-per-window (reference: aggregator/windowing/HopsAggregator.scala:
  33-165; SawtoothAggregator.scala:26-202 computeWindows/HopRangeCache).
- two-stack sliding window over the hop sequence: because query times are
  processed sorted, window [tail, head) advances monotonically, and a
  banker's-queue two-stack gives amortized O(1) IR merges per hop
  (reference: aggregator/windowing/TwoStackLiteAggregator.scala:26-160,
  TwoStackLiteAggregationBuffer.scala:27-84 — applied there per event; here
  per hop, which is strictly less work).
- exact head: events inside the query's own (partial) head hop are
  prefix-merged in ts order across the sorted queries — millisecond-exact
  strict `event.ts < query.ts`, matching SawtoothAggregator.cumulate
  (:137-202) and NaiveAggregator's `windowStart <= ts < round(q, 1ms)`.

All py_* op merge calls are non-mutating; hop IR construction uses the
(mutating) py_update on hop-local state only.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..api import AggregationPart, Window
from ..aggregators.ops import AggOp
from .resolution import round_ts, tail_hop_millis


class TwoStackBuffer:
    """Sliding-window monoid queue over (tag, ir) items: push at back, evict
    oldest from front, amortized-O(1) query of the merged window IR."""

    __slots__ = ("op", "part", "front", "back", "back_agg")

    def __init__(self, op: AggOp, part: AggregationPart):
        self.op = op
        self.part = part
        self.front: list = []  # (tag, ir, suffix_agg) — oldest at END
        self.back: list = []  # (tag, ir) in arrival order
        self.back_agg: Any = None

    def push(self, tag: int, ir: Any) -> None:
        self.back.append((tag, ir))
        self.back_agg = self.op.py_merge(self.back_agg, ir, self.part)

    def front_tag(self) -> Optional[int]:
        if self.front:
            return self.front[-1][0]
        if self.back:
            return self.back[0][0]
        return None

    def pop(self) -> None:
        if not self.front:
            self._flip()
        if self.front:
            self.front.pop()

    def _flip(self) -> None:
        """Move back → front computing suffix-merged aggregates so that
        front[i][2] == merge of items front[i], front[i-1], ..., front[0]
        (i.e. everything still in the window once older items popped)."""
        items = self.back
        self.back = []
        self.back_agg = None
        agg = None
        new_front = []
        for tag, ir in reversed(items):  # newest first
            agg = self.op.py_merge(ir, agg, self.part)
            new_front.append((tag, ir, agg))
        # new_front currently newest→oldest with agg = merge(self..newest)
        self.front = new_front

    def query(self) -> Any:
        front_agg = self.front[-1][2] if self.front else None
        return self.op.py_merge(front_agg, self.back_agg, self.part)

    def __len__(self) -> int:
        return len(self.front) + len(self.back)


def _build_hops(op: AggOp, part: AggregationPart, ev_ts: np.ndarray, ev_vals, hop: int):
    """Per-hop partial IRs for one key's sorted events → (hop_starts, irs)."""
    hop_ids = (ev_ts // hop).astype(np.int64)
    bounds = np.flatnonzero(np.diff(hop_ids)) + 1
    starts = np.concatenate([[0], bounds, [len(ev_ts)]])
    hop_starts = hop_ids[starts[:-1]] * hop
    irs = []
    for i in range(len(hop_starts)):
        ir = None
        for j in range(starts[i], starts[i + 1]):
            ir = op.py_update(ir, ev_vals[j], int(ev_ts[j]), part)
        irs.append(ir)
    return hop_starts, irs


def sawtooth_one_key(
    op: AggOp,
    part: AggregationPart,
    window: Window,
    ev_ts: np.ndarray,  # sorted asc, nulls already removed
    ev_vals,  # aligned values (indexable)
    q_ts: np.ndarray,  # sorted asc
    hops_cache: Optional[dict] = None,  # hop_millis -> (hop_starts, irs)
    daily: bool = False,
    exact: bool = False,  # per-event windows (no hop-rounded tail)
) -> list:
    """Finalized feature value per query (aligned to sorted q_ts order)."""
    nq = len(q_ts)
    out: list = [None] * nq
    if len(ev_ts) == 0 or nq == 0:
        return out
    if exact and not window.unbounded:
        # per-event two-stack: the reference's TwoStackLiteAggregator applied
        # at event granularity (TwoStackLiteAggregator.scala:26-160) — exact
        # window [q - w, q), no sawtooth tail rounding. Each event is its own
        # item; eviction compares raw event ts against the exact tail.
        buf = TwoStackBuffer(op, part)
        ep = 0
        ne = len(ev_ts)
        w = window.millis
        for qi in range(nq):
            q = int(q_ts[qi])
            while ep < ne and ev_ts[ep] < q:
                buf.push(int(ev_ts[ep]),
                         op.py_update(None, ev_vals[ep], int(ev_ts[ep]), part))
                ep += 1
            tail = q - w
            while len(buf) and buf.front_tag() < tail:
                buf.pop()
            ir = buf.query()
            out[qi] = op.py_finalize(ir, part) if ir is not None else None
        return out

    if window.unbounded:
        ir = None
        ep = 0
        ne = len(ev_ts)
        for qi in range(nq):
            q = int(q_ts[qi])
            while ep < ne and ev_ts[ep] < q:
                ir = op.py_update(ir, ev_vals[ep], int(ev_ts[ep]), part)
                ep += 1
            out[qi] = op.py_finalize(ir, part) if ir is not None else None
        return out

    hop = tail_hop_millis(window, daily)
    if hops_cache is not None and hop in hops_cache:
        hop_starts, hop_irs = hops_cache[hop]
    else:
        hop_starts, hop_irs = _build_hops(op, part, ev_ts, ev_vals, hop)
        if hops_cache is not None:
            hops_cache[hop] = (hop_starts, hop_irs)

    buf = TwoStackBuffer(op, part)
    nh = len(hop_starts)
    h_next = 0  # next hop index not yet considered for push
    head_hop_cur = -1
    head_ir = None
    head_ep = 0
    ne = len(ev_ts)
    w = window.millis
    for qi in range(nq):
        q = int(q_ts[qi])
        tail = round_ts(q - w, hop)
        head_floor = round_ts(q, hop)
        # push whole hops with start in [tail, head_floor); hops below this
        # query's tail are below every later tail too (monotonic) — skip.
        while h_next < nh and hop_starts[h_next] < head_floor:
            if hop_starts[h_next] >= tail:
                buf.push(int(hop_starts[h_next]), hop_irs[h_next])
            h_next += 1
        # evict hops that slid below the tail
        while len(buf) and buf.front_tag() < tail:
            buf.pop()
        # head partial: events in [head_floor, q), prefix-merged across the
        # sorted queries sharing this head hop
        if head_floor != head_hop_cur:
            head_hop_cur = head_floor
            head_ir = None
            head_ep = int(np.searchsorted(ev_ts, head_floor, side="left"))
        while head_ep < ne and ev_ts[head_ep] < q:
            head_ir = op.py_update(head_ir, ev_vals[head_ep], int(ev_ts[head_ep]), part)
            head_ep += 1
        win_ir = buf.query()
        ir = op.py_merge(win_ir, head_ir, part)
        out[qi] = op.py_finalize(ir, part) if ir is not None else None
    return out
