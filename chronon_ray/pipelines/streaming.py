"""Tiled streaming analog: per-key fixed-size tile IRs + lambda fetch.

Parity target: the reference's tiled online architecture — the Flink job
keying events and pre-aggregating them into small fixed-size tiles
(flink/FlinkJob.scala:120-198), the per-tile IR payload written to the KV
store (online/TileCodec.scala:53-110), and the fetch-time merge of
batch IR ∪ complete tiles ∪ in-flight events (online/FetcherBase.scala,
SawtoothOnlineAggregator.scala:83-126). There is no Kafka/Flink in an
offline Ray engine, so the streaming side is modeled honestly as
micro-batches: each micro-batch of events ≥ ``batch_end_ts`` becomes a
Dataset of ``(key cols, _tile, _tirs)`` rows — one pickled
``{part_name: py IR}`` per (key, tile) — and successive micro-batches
merge tile-wise (``merge_tiles``), exactly the Flink keyed-window state
update. ``serve_with_tiles`` then answers point-in-time queries from

    checkpoint (events < batch_end_ts, from ``groupby_upload``)
    ∪ complete tiles (tile_start < round(query_ts, tile))
    ∪ raw in-flight events in the query's OWN tile, strictly < query_ts

bit-equal to ``serve_with_events`` and to a direct ``temporal_join`` over
the full history (tested), while reading raw events only for the newest
partial tile — at a realistic serve fan-in the raw tail shrinks from
O(days of events) to O(one tile).

Tile size: the gcd of every windowed part's tail hop (5 min / 1 h / 1 d,
each dividing the next — Resolution.scala:46-47), so every hop-rounded
window tail boundary lands ON a tile boundary and complete tiles never
straddle a window edge. The reference's fixed 5-minute tile is the same
choice for its sub-12h windows.

Scale notes (100 TB): tiles are pre-aggregated IRs, so the tile exchange
moves O(keys × tiles) small rows, never raw events; ``merge_tiles``
accepts ``expire_before_ts`` so the rolling tile store stays bounded by
max_window / tile; the serve exchange is one co-partition
(``pipelines/copartition.py``) of the sides of ``serve_with_events`` plus
the tile rows.
"""

from __future__ import annotations

import math
import pickle
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..aggregators.row import RowAggregator
from ..api import GroupByConf
from ..windowing.resolution import MILLIS_FIVE_MIN, round_ts, tail_hop_millis
from .groupby import _factorize_keys, canon_key_hash
from .copartition import Side, copartition
from .upload import (_ServePartition, _add_bucket_maps, _invalid,
                     _prepare_parts, _py_irs_from_frame, _serve_sides)


def default_tile_ms(conf: GroupByConf) -> int:
    """gcd of every windowed part's tail hop; 5 minutes when all parts are
    unbounded (the reference's fixed tile size)."""
    hops = [tail_hop_millis(p.window) for p in conf.parts()
            if not p.window.unbounded]
    if not hops:
        return MILLIS_FIVE_MIN
    g = hops[0]
    for h in hops[1:]:
        g = math.gcd(g, h)
    return g


def _validate_tile(conf: GroupByConf, tile_ms: int) -> None:
    if tile_ms <= 0:
        raise ValueError("tile_ms must be positive")
    for p in conf.parts():
        if p.window.unbounded:
            continue
        hop = tail_hop_millis(p.window)
        if hop % tile_ms != 0:
            raise ValueError(
                f"tile_ms={tile_ms} does not divide the {p.window.str} "
                f"window's tail hop ({hop} ms) — window tail boundaries "
                f"would straddle tiles; use default_tile_ms(conf)")


def _tile_schema(keys, key_types: dict) -> pa.Schema:
    """The rows of a tile table: the keys, then ``_tile``, ``_tirs``,
    ``_tile_ms`` and ``_part``."""
    return pa.schema([*(pa.field(k, key_types[k]) for k in keys),
                      pa.field("_tile", pa.int64()),
                      pa.field("_tirs", pa.binary()),
                      pa.field("_tile_ms", pa.int64()),
                      pa.field("_part", pa.int64())])


def make_tiles(
    events: ray.data.Dataset,
    conf: GroupByConf,
    batch_end_ts: Optional[int] = None,
    tile_ms: Optional[int] = None,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """events (keys + ts + inputs) → one ``(keys…, _tile, _tirs,
    _tile_ms, _part)`` row per (key, tile): the FlinkJob/TileCodec analog.
    Only events with ``ts >= batch_end_ts`` contribute (the streaming side
    of the lambda split); rows with any null conf key are dropped, matching
    the temporal join's data-side removeNulls. Per-(key, tile) py-IR boxing
    is the same cost class as groupby_upload's tail-hop build — bounded by
    the streaming head, never the batch history."""
    from ..util import auto_partitions, dataset_schema, with_schema

    keys = list(conf.key_columns)
    schema = dataset_schema(events)
    # prune to what the tile build reads — payload columns no part
    # references must not pay the scan or the filter copy
    need = {*keys, "ts"}
    for p in conf.parts():
        need.add(p.input_column)
        if p.bucket:
            need.add(p.bucket)
    keep = [c for c in schema.names if c in need]
    if len(keep) < len(schema.names):
        events = events.select_columns(keep)
        schema = pa.schema([schema.field(c) for c in keep])
    parts, synth, _names, schema = _prepare_parts(conf, schema)
    if num_partitions is None:
        num_partitions = auto_partitions(events)
    if synth:
        events = events.map_batches(_add_bucket_maps(synth),
                                    batch_format="pyarrow")
    T = tile_ms if tile_ms is not None else default_tile_ms(conf)
    _validate_tile(conf, T)
    agg = RowAggregator(parts, schema)
    one_agg = {bp.name: RowAggregator([bp.part], schema)
               for bp in agg.bound}
    key_types = {k: schema.field(k).type for k in keys}
    out_schema = _tile_schema(keys, key_types)

    def partials(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl["ts"], pa.int64())
        mask = pc.is_valid(ts)
        if batch_end_ts is not None:
            mask = pc.and_(mask, pc.greater_equal(ts, batch_end_ts))
        for k in keys:  # data-side removeNulls (GroupBy.scala:510-512)
            mask = pc.and_(mask, pc.is_valid(tbl[k]))
        tbl = tbl.filter(mask)
        if len(tbl) == 0:
            return out_schema.empty_table()
        kdf = tbl.select(keys).to_pandas()
        codes, uniq = _factorize_keys(kdf, keys)
        ts_row = tbl["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        tile = round_ts(ts_row, T)
        pairs = np.stack([codes, tile], axis=1)
        puniq, pcodes = np.unique(pairs, axis=0, return_inverse=True)
        tirs: list[dict] = [{} for _ in range(len(puniq))]
        for bp in agg.bound:
            # self-describing payload: the wrapper kind rides with the IR
            # so merge_tiles can dispatch py_merge without the input schema
            kind = "m" if bp.is_map else ("v" if bp.explode else "s")
            subf = one_agg[bp.name].partial_frame(tbl, pcodes, len(puniq))
            for g, pir in _py_irs_from_frame(bp, subf):
                tirs[g][bp.name] = (kind, pir)
        sel = puniq[:, 0]
        key_arrays = {
            k: pa.array(uniq[k].to_numpy(dtype=object)[sel],
                        type=key_types[k])
            for k in keys
        }
        part = canon_key_hash(pa.table(key_arrays), keys, key_types,
                              num_partitions)
        cols = dict(key_arrays)
        cols["_tile"] = pa.array(puniq[:, 1], type=pa.int64())
        cols["_tirs"] = pa.array([pickle.dumps(d) for d in tirs],
                                 type=pa.binary())
        cols["_tile_ms"] = pa.array(np.full(len(puniq), T, dtype=np.int64))
        cols["_part"] = pa.array(part)
        return pa.table(cols)

    partials.__name__ = "tile_partials"
    shuffled = events.map_batches(partials, batch_format="pyarrow")
    merge = _TileMerge(keys, conf, key_types)
    return with_schema(shuffled.groupby("_part").map_groups(
        merge, batch_format="pandas"), out_schema)


class _TileMerge:
    """Merge tile rows per (key, tile) — pure py_merge per part (the Flink
    keyed-state update / TileCodec merge). The wrapper kind ("s" scalar /
    "v" exploded-list / "m" map) is stored with each IR, so merging needs
    only the conf's operations, never the input schema. Optionally drops
    tiles that end at or before ``expire_before_ts`` (slid out of every
    window)."""

    def __init__(self, keys, conf: GroupByConf, key_types: dict,
                 expire_before_ts: Optional[int] = None):
        from dataclasses import replace as _rep

        from ..aggregators.ops import OPS
        from .temporal import MapPyOp, VectorPyOp

        self.__name__ = type(self).__name__
        self.keys = list(keys)
        self.key_types = dict(key_types)
        self.ops_by_name: dict[str, dict] = {}
        for p in conf.parts():
            base = OPS[p.operation]
            # bucketed parts ride the map rewrite: the tile payload keys on
            # the REWRITTEN part's name (upload._prepare_parts), so mirror
            # that rename here (py_merge never reads the input column)
            rp = _rep(p, bucket=None) if p.bucket is None else _rep(
                p, input_column=f"_bmap__{p.bucket}__{p.input_column}",
                bucket=None)
            self.ops_by_name[rp.output_name] = {
                "s": (base, rp),
                "v": (VectorPyOp(base), rp),
                "m": (MapPyOp(base), rp),
            }
        self.expire = expire_before_ts

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        out_keys: dict[str, list] = {k: [] for k in self.keys}
        out_tile: list[int] = []
        out_tirs: list[bytes] = []
        part_vals: list[int] = []
        tms = pdf["_tile_ms"].to_numpy()
        if len(tms) and int(tms.min()) != int(tms.max()):
            raise ValueError(
                f"merging tile tables with different tile_ms "
                f"({int(tms.min())} vs {int(tms.max())}) — rebuild one "
                f"side with a shared tile size")
        tile_ms = int(tms[0]) if len(tms) else 0
        for gk, grp in pdf.groupby([*self.keys, "_tile"], sort=False,
                                   dropna=False):
            tile = int(gk[-1])
            if self.expire is not None and tile + tile_ms <= self.expire:
                continue
            merged: dict = {}
            for b in grp["_tirs"].to_numpy():
                for name, (kind, ir) in pickle.loads(b).items():
                    wop, rp = self.ops_by_name[name][kind]
                    prev = merged.get(name)
                    merged[name] = (kind, ir) if prev is None else \
                        (kind, wop.py_merge(prev[1], ir, rp))
            for i, k in enumerate(self.keys):
                out_keys[k].append(gk[i] if not pd.isna(gk[i]) else None)
            out_tile.append(tile)
            out_tirs.append(pickle.dumps(merged))
            part_vals.append(int(grp["_part"].iloc[0]))
        cols = {k: pa.array(out_keys[k], type=self.key_types[k])
                for k in self.keys}
        cols["_tile"] = pa.array(out_tile, type=pa.int64())
        cols["_tirs"] = pa.array(out_tirs, type=pa.binary())
        cols["_tile_ms"] = pa.array(
            np.full(len(out_tile), tile_ms, dtype=np.int64))
        cols["_part"] = pa.array(part_vals, type=pa.int64())
        return pa.table(cols)


def merge_tiles(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    conf: GroupByConf,
    num_partitions: Optional[int] = None,
    expire_before_ts: Optional[int] = None,
) -> ray.data.Dataset:
    """Union two tile tables (e.g. the rolling store and a new
    micro-batch's tiles) and merge per (key, tile) — the Flink checkpoint
    advance. ``expire_before_ts`` drops tiles that can no longer intersect
    any window (valid only once no part is unbounded, or after the batch
    checkpoint has rolled past them)."""
    from ..util import auto_partitions, dataset_schema, with_schema

    keys = list(conf.key_columns)
    schema = dataset_schema(a)
    if num_partitions is None:
        num_partitions = auto_partitions(a)
    key_types = {k: schema.field(k).type for k in keys}

    def rehash(t: pa.Table) -> pa.Table:
        if "_part" in t.column_names:
            t = t.drop(["_part"])
        part = canon_key_hash(t.select(keys), keys, key_types,
                              num_partitions)
        return t.append_column("_part", pa.array(part))

    rehash.__name__ = "tile_rehash"
    unioned = a.map_batches(rehash, batch_format="pyarrow").union(
        b.map_batches(rehash, batch_format="pyarrow"))
    merge = _TileMerge(keys, conf, key_types,
                       expire_before_ts=expire_before_ts)
    return with_schema(unioned.groupby("_part").map_groups(
        merge, batch_format="pandas"), _tile_schema(keys, key_types))


class _TiledServePartition(_ServePartition):
    """One partition of a tiled serve's sides: 0 = queries, 1 = raw
    in-flight events (needed only inside each query's own tile), 2 = IR
    checkpoint rows, 3 = tile rows. Per query and part:

        base ∥ in-window checkpoint tail hops
             ∥ complete tile IRs with tile_start in [qtail, round(qts, T))
             ∥ raw events in [round(qts, T), qts)

    — the fetch-time merge of online/FetcherBase.scala with TileCodec
    tiles. Strictness holds tile-granularly: a tile merges only once its
    end ≤ the query's tile start, and the query's own tile replays raw.
    qtail is hop-rounded and every hop is a tile multiple, so complete
    tiles never straddle a window boundary."""

    def __init__(self, *args, tile_ms: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.tile_ms = tile_ms

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from ..windowing.resolution import round_ts, tail_hop_millis
        from .mutations import TAIL_BUFFER_MS

        queries, raws, irs, trows = self._frames(tbl)
        if len(queries) == 0:
            return self._empty_out()
        fh = self._resolve_layout(irs)
        self._check_horizon(queries, fh)
        base_by_key, tails_by_key = self._load_checkpoint(irs)
        head_by_key = self._group_events(raws)
        T = self.tile_ms
        tiles_by_key: dict[tuple, list] = {}
        if len(trows):
            tms = trows["_tile_ms"].dropna()
            if len(tms) and int(tms.iloc[0]) != T:
                raise ValueError(
                    f"serve_with_tiles(tile_ms={T}) does not match the "
                    f"tile table's _tile_ms={int(tms.iloc[0])}")
            for _, r in trows.iterrows():
                kv = tuple(r[k] for k in self.keys)
                tiles_by_key.setdefault(kv, []).append(
                    (int(r["_tile"]), pickle.loads(r["_tirs"])))

        out_cols: dict[str, list] = {c: [] for c in self.left_cols}
        feats: dict[str, list] = {f.name: [] for f in self.out_fields}
        for kv, grp in queries.groupby(self.keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            base = base_by_key.get(kv) or {}
            tails = tails_by_key.get(kv, {})
            tl = sorted(tiles_by_key.get(kv, []))
            tstarts = np.array([t for t, _ in tl], dtype=np.int64)
            hg = head_by_key.get(kv)
            grp = grp.sort_values("ts", kind="stable")
            qts_arr = grp["ts"].astype(np.int64).to_numpy()
            nq = len(grp)
            hts = hg["ts"].astype(np.int64).to_numpy() if hg is not None \
                else np.empty(0, dtype=np.int64)
            for c in self.left_cols:
                out_cols[c].extend(grp[c].tolist())
            for pi, bp in enumerate(self.bound):
                p, wop, name = bp.part, self.wops[pi], bp.name
                col_out = feats[self.out_fields[pi].name]
                hvals = hg[p.input_column].tolist() \
                    if hg is not None and p.input_column in hg.columns \
                    else None
                # raw segment inside the query's own tile — resets when
                # the ts-sorted sweep crosses a tile boundary, so each
                # in-flight event replays at most once per part
                seg_tile, seg_ir, seg_ptr = None, None, 0

                def _seg(qts: int, qtile: int):
                    nonlocal seg_tile, seg_ir, seg_ptr
                    if hvals is None or not len(hts):
                        return None
                    if seg_tile != qtile:
                        seg_tile, seg_ir = qtile, None
                        seg_ptr = int(np.searchsorted(hts, qtile, "left"))
                    while seg_ptr < len(hts) and hts[seg_ptr] < qts:
                        v = hvals[seg_ptr]
                        if not _invalid(v):
                            seg_ir = wop.py_update(seg_ir, v,
                                                   int(hts[seg_ptr]), p)
                        seg_ptr += 1
                    return seg_ir

                if p.window.unbounded:
                    ir, tp = base.get(name), 0
                    for qi in range(nq):
                        qts = int(qts_arr[qi])
                        qtile = round_ts(qts, T)
                        while tp < len(tl) and tstarts[tp] < qtile:
                            ent = tl[tp][1].get(name)
                            if ent is not None:
                                tir = ent[1]
                                ir = tir if ir is None \
                                    else wop.py_merge(ir, tir, p)
                            tp += 1
                        s = _seg(qts, qtile)
                        acc = ir if s is None else (
                            s if ir is None else wop.py_merge(ir, s, p))
                        col_out.append(self._fin(wop, p, acc))
                    continue
                W = p.window.millis
                hop = tail_hop_millis(p.window)
                ptails = sorted(tails.get(name, {}).items())
                for qi in range(nq):
                    qts = int(qts_arr[qi])
                    qtail = round_ts(qts - W, hop)
                    qtile = round_ts(qts, T)
                    cut = qts + 1 if fh \
                        else self.batch_end - W + TAIL_BUFFER_MS
                    acc = base.get(name)
                    for hopstart, hir in ptails:
                        if hopstart >= qtail and hopstart < cut:
                            acc = hir if acc is None \
                                else wop.py_merge(acc, hir, p)
                    if len(tstarts):
                        lo = int(np.searchsorted(tstarts, qtail, "left"))
                        hi = int(np.searchsorted(tstarts, qtile, "left"))
                        for ti in range(lo, hi):
                            ent = tl[ti][1].get(name)
                            if ent is not None:
                                tir = ent[1]
                                acc = tir if acc is None \
                                    else wop.py_merge(acc, tir, p)
                    s = _seg(qts, qtile)
                    if s is not None:
                        acc = s if acc is None else wop.py_merge(acc, s, p)
                    col_out.append(self._fin(wop, p, acc))

        arrays = {c: self._left_array(c, out_cols[c])
                  for c in self.left_cols}
        for f in self.out_fields:
            arrays[f.name] = pa.array(feats[f.name], type=f.type)
        return pa.table(arrays)


def serve_with_tiles(
    ir_table: ray.data.Dataset,
    tiles: ray.data.Dataset,
    recent_events: ray.data.Dataset,
    queries: ray.data.Dataset,
    conf: GroupByConf,
    batch_end_ts: int,
    tile_ms: Optional[int] = None,
    num_partitions: Optional[int] = None,
    full_hops: Optional[bool] = None,
) -> ray.data.Dataset:
    """Tiled lambda fetch: FinalBatchIr checkpoint + tile IRs + raw
    in-flight events → PITC features, bit-equal to ``serve_with_events``
    and to a direct ``temporal_join`` over the full history (tested).

    ``recent_events`` must contain every event inside each query's OWN
    tile, i.e. cover [round(min query ts, tile), max query ts) per key —
    the in-flight buffer a fetcher holds. Passing a superset (up to the
    whole head) is correct; events already covered by a complete tile are
    never replayed. Events below ``batch_end_ts`` are excluded at tag
    time (the checkpoint covers them)."""
    from ..util import auto_partitions, dataset_schema

    keys = list(conf.key_columns)
    if num_partitions is None:
        num_partitions = auto_partitions(recent_events)
    parts, synth, out_names, ev_schema = _prepare_parts(
        conf, dataset_schema(recent_events))
    T = tile_ms if tile_ms is not None else default_tile_ms(conf)
    _validate_tile(conf, T)

    def tile_head(t: pa.Table) -> pa.Table:
        # events below batch_end_ts are the checkpoint's
        return t.filter(pc.greater_equal(pc.cast(t["ts"], pa.int64()),
                                         batch_end_ts))

    recent_events = recent_events.map_batches(tile_head,
                                              batch_format="pyarrow")
    if synth:
        recent_events = recent_events.map_batches(_add_bucket_maps(synth),
                                                  batch_format="pyarrow")
    sides, key_types = _serve_sides(queries, recent_events, ev_schema, parts,
                                    ir_table, keys)
    tile_schema = _tile_schema(keys, key_types)
    sides.append(Side(tiles, tile_schema.remove(
        tile_schema.get_field_index("_part"))))
    q_schema = sides[0].schema
    proc = _TiledServePartition(keys, parts, ev_schema, q_schema.names,
                                batch_end_ts, full_hops=full_hops,
                                left_fields=list(q_schema),
                                out_names=out_names, tile_ms=T,
                                sides=[s.own(key_types) for s in sides])
    return copartition(sides, key_types, keys, num_partitions, proc,
                       pa.schema([*q_schema, *proc.out_fields]))
