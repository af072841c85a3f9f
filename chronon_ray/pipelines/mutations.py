"""Temporal entities: point-in-time-correct aggregation over mutating
entity tables (mutation replay with reversals).

Parity target: the reference's temporalEntities path (reference:
spark/GroupBy.scala:178-273 — three-way join of queries × EOD snapshot of
ds−1 × the day's mutations sorted by mutation_ts, replayed with `is_before`
reversal rows deleting prior state; aggregator/windowing/
SawtoothMutationAggregator.scala:40-216 update/delete routing).

Semantics: for a query (key, ts) on day D, the feature is the aggregate over
the entity rows **as of ts**: start from the merged IR of snapshot rows at
ds = D−1, then apply day-D mutations with ``mutation_ts < ts`` (strict — reference
SawtoothMutationAggregator.scala:197) in timestamp order — ``is_before=false`` rows update, ``is_before=true`` rows delete.

Physical plan: snapshot rows collapse to per-(key, ds) partial IRs at the map
side (RowAggregator grouped path — only IRs cross the shuffle, never raw
snapshot rows); the partials, mutations and queries are co-partitioned by
hash(key) (``pipelines/copartition.py``); the partition processor merges
base IRs vectorized, converts each query day's base IR to the scalar py-IR
form once, and replays the (small, CDC-sized) mutation stream per (key,
day) over the sorted queries.

Windowed aggregations follow the reference's BatchIr = (collapsed,
tailHops) split (SawtoothMutationAggregator.scala:64-216): snapshot rows
whose event ts falls within ``tailBufferMillis`` (2 days) of the window
tail are kept as per-hop IRs instead of being collapsed, so each query can
trim its own hop-rounded tail (`mergeTailHops`); mutations apply per part
only when the mutated row's event ts is inside that query's window
(`updateIr` rowInWindow check). Supported ops are the deletable set
(SUM / COUNT / AVERAGE / VARIANCE / SKEW / KURTOSIS / HISTOGRAM —
higher moments delete via the exact signed-merge identity). Reserved columns follow the
reference: ``mutation_ts``, ``is_before`` (api/Constants.scala:22-28);
windowed parts additionally need an event-``ts`` column on snapshots (and
use it on mutations when present, falling back to mutation_ts).
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..api import AggregationPart, GroupByConf, Operation
from ..aggregators.ops import OPS
from ..aggregators.row import RowAggregator
from ..state.partitions import shift_ds
from ..windowing.resolution import round_ts, tail_hop_millis
from .copartition import Side, copartition, side
from .groupby import _factorize_keys

MILLIS_DAY = 86_400_000
TAIL_BUFFER_MS = 2 * MILLIS_DAY  # reference tailBufferMillis default
_SUPPORTED = {Operation.SUM, Operation.COUNT, Operation.AVERAGE,
              Operation.VARIANCE, Operation.SKEW, Operation.KURTOSIS,
              Operation.HISTOGRAM}


#: power-sum order per op (S_0..S_K accumulate the signed mutation stream)
_MOM_K = {Operation.SUM: 1, Operation.COUNT: 0, Operation.AVERAGE: 1,
          Operation.VARIANCE: 2, Operation.SKEW: 3, Operation.KURTOSIS: 4}

#: central-moment IRs (n, mean, m2, ...) cannot represent a zero-mass
#: signed state (n == 0 with nonzero sums — e.g. a same-day UPDATE of a
#: row whose original mass lives in a tail hop), so the CDC replay hands
#: these parts to the tail-merge step as raw power sums ("PS markers")
#: and the IR conversion happens only after the query's tail hops fold in.
_MOMENT_OPS = {Operation.VARIANCE, Operation.SKEW, Operation.KURTOSIS}


def _is_ps(x) -> bool:
    return isinstance(x, tuple) and len(x) == 3 and x[0] == "__ps__"


def _ir_from_ps_single(op: Operation, S: np.ndarray, pivot: float = 0.0):
    return _irs_from_ps(op, S[None, :], np.ones(1, dtype=bool), pivot)[0]


def _ps_from_ir(op: Operation, ir, K: int, pivot: float = 0.0) -> np.ndarray:
    """Scalar py IR → power sums S_0..S_K about ``pivot`` (exact identities;
    the signed replay is algebra over these, matching the signed-merge
    delete identities in _MomentBase.py_delete). Central moments are
    shift-invariant, so a pivot near the data magnitude avoids the
    catastrophic cancellation of raw (about-0) power sums when |values| is
    large with small spread (e.g. epoch-millis inputs)."""
    S = np.zeros(K + 1, dtype=np.float64)
    if ir is None:
        return S
    if op == Operation.SUM:
        S[1] = float(ir)
        S[0] = np.nan  # SUM carries no count; presence tracked separately
        return S
    if op == Operation.COUNT:
        S[0] = float(ir)
        return S
    if op == Operation.AVERAGE:
        S[1], S[0] = float(ir[0]), float(ir[1])
        return S
    n, mu = float(ir[0]), float(ir[1]) - pivot
    S[0], S[1] = n, n * mu
    M = [None, None] + [float(x) for x in ir[2:]]
    if K >= 2:
        S[2] = M[2] + n * mu**2
    if K >= 3:
        S[3] = M[3] + 3 * mu * M[2] + n * mu**3
    if K >= 4:
        S[4] = M[4] + 4 * mu * M[3] + 6 * mu**2 * M[2] + n * mu**4
    return S


def _irs_from_ps(op: Operation, S: np.ndarray, has: np.ndarray,
                 pivot: float = 0.0) -> list:
    """(nq × K+1) power sums → per-query py IRs. Count-bearing ops yield
    None at n ≤ 0 (the scalar py_delete's all-rows-removed semantics)."""
    nq = S.shape[0]
    if op == Operation.SUM:
        return [float(S[i, 1]) if has[i] else None for i in range(nq)]
    n = S[:, 0]
    if op == Operation.COUNT:
        return [int(round(n[i])) if has[i] else None for i in range(nq)]
    if op == Operation.AVERAGE:
        return [(float(S[i, 1]), int(round(n[i]))) if has[i] else None
                for i in range(nq)]
    K = S.shape[1] - 1
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = np.where(n > 0, S[:, 1] / np.maximum(n, 1e-300), 0.0)
        M2 = np.maximum(S[:, 2] - n * mu**2, 0.0)
        M3 = S[:, 3] - 3 * mu * S[:, 2] + 2 * n * mu**3 if K >= 3 else None
        M4 = (S[:, 4] - 4 * mu * S[:, 3] + 6 * mu**2 * S[:, 2]
              - 3 * n * mu**4) if K >= 4 else None
    out = []
    for i in range(nq):
        if not has[i] or n[i] <= 0:
            out.append(None)
            continue
        ir = [float(n[i]), float(mu[i]) + pivot, float(M2[i])]
        if K >= 3:
            ir.append(float(M3[i]))
        if K >= 4:
            ir.append(float(M4[i]))
        out.append(tuple(ir))
    return out


class _EntityPartition:
    """One partition of an entity join's sides: 0 = queries, 1 =
    mutations, 2 = snapshot IR partials.

    The mutation replay is FULLY VECTORIZED for every supported part shape
    (scalar / list auto-explode / map input × SUM/COUNT/AVERAGE/VARIANCE/
    SKEW/KURTOSIS/HISTOGRAM): the per-(query, mutation) applicability mask
    (before ∧ valid ∧ rowInWindow) drives signed power-sum matvecs for the
    numeric family and a signed scatter-add count matrix for histograms —
    no per-row Python replay loop remains. Queries are processed in chunks
    so the dense mask stays bounded (reference semantics:
    SawtoothMutationAggregator.scala:40-216)."""

    #: dense (query-chunk × mutations) cells per chunk
    _CHUNK_CELLS = 4_000_000

    def __init__(self, keys: Sequence[str], parts: list[AggregationPart],
                 snap_schema: pa.Schema, left_cols: list[str],
                 left_fields: Optional[list[pa.Field]] = None,
                 out_names: Optional[list[str]] = None,
                 sides: Sequence[pa.Schema] = ()):
        self.__name__ = type(self).__name__
        self.keys = list(keys)
        self.in_schema = snap_schema
        self.agg = RowAggregator(parts, snap_schema)
        self.bound = self.agg.bound
        self.left_cols = left_cols
        # declared left schema: pandas promotes an int64 column holding a
        # null to float64; outputs must cast back
        self.left_fields = left_fields or []
        self.sides = list(sides)  # Side.own of each side
        from .upload import _py_op
        self.wops = [_py_op(bp) for bp in self.bound]
        names = list(out_names) if out_names \
            else [bp.name for bp in self.bound]
        self.out_fields = []
        for i, bp in enumerate(self.bound):
            t = bp.op.output_arrow_type(bp.in_type, bp.part)
            if bp.is_map:
                t = pa.map_(pa.string(), t)
            self.out_fields.append(pa.field(names[i], t))

    # ------------------------------------------------- vectorized replay

    @staticmethod
    def _pivot_for(bp, mg: pd.DataFrame, base) -> float:
        """Pivot for the moment family (VARIANCE/SKEW/KURTOSIS): the base
        IR's mean when present, else the first valid mutation value, else 0.
        Raw (about-0) power sums cancel catastrophically when |values| is
        large with small spread; shifting by any value near the data
        magnitude restores the FP stability the old reverse-Welford scalar
        replay had. Other ops keep pivot 0 (linear, no cancellation)."""
        if bp.part.operation not in (Operation.VARIANCE, Operation.SKEW,
                                     Operation.KURTOSIS):
            return 0.0
        try:
            if base is not None:
                if bp.is_map:
                    for v in base.values():
                        if v is not None:
                            return float(v[1])
                else:
                    return float(base[1])
        except (TypeError, ValueError, IndexError):
            pass
        col = mg[bp.part.input_column] \
            if bp.part.input_column in mg.columns else None
        if col is None:
            return 0.0

        def _ok(x):
            return x is not None and not (isinstance(x, float)
                                          and np.isnan(x))

        for x in col.tolist():
            if not _ok(x):
                continue
            try:
                if bp.is_map:
                    for _mk, mv in x:
                        if _ok(mv):
                            return float(mv)
                elif bp.explode:
                    for e in x:
                        if _ok(e):
                            return float(e)
                else:
                    return float(x)
            except (TypeError, ValueError):
                return 0.0
        return 0.0

    def _prep_part(self, bp, mg: pd.DataFrame, nm: int,
                   pivot: float = 0.0):
        """Per-group static arrays for one part: returns a dict the chunked
        replay consumes. Computed once per (key, day) group. ``pivot``
        (moment family only) shifts values so power sums accumulate about
        the data magnitude, not about 0 — see _ps_from_ir."""
        p = bp.part
        K = _MOM_K.get(p.operation)
        col = mg[p.input_column] if p.input_column in mg.columns else None
        if col is None:
            return {"kind": "missing"}
        if bp.is_map:
            ent_mi, ent_k, ent_v = [], [], []
            for mi, entries in enumerate(col.tolist()):
                if entries is None or (isinstance(entries, float)
                                       and np.isnan(entries)):
                    continue
                for mk, mv in entries:
                    if mv is None or (isinstance(mv, float)
                                      and np.isnan(mv)):
                        continue
                    ent_mi.append(mi)
                    ent_k.append(str(mk))
                    ent_v.append(float(mv))
            kcodes, kuniq = pd.factorize(np.asarray(ent_k, dtype=object))
            nmk = len(kuniq)
            E = np.zeros((K + 1, nm, nmk), dtype=np.float64)
            EH = np.zeros((nm, nmk), dtype=np.float64)
            mi_a = np.asarray(ent_mi, dtype=np.int64)
            v_a = np.asarray(ent_v, dtype=np.float64)
            for k in range(K + 1):
                np.add.at(E[k], (mi_a, kcodes), (v_a - pivot)**k)
            np.add.at(EH, (mi_a, kcodes), 1.0)
            valid = EH.sum(axis=1) > 0
            # width: per-query dense cells the chunked replay allocates for
            # this part (S is cq x nmk x (K+1)) — the chunk sizing must
            # bound cq x width, not just cq x nm (code-review r4)
            return {"kind": "map", "K": K, "E": E, "EH": EH,
                    "mkeys": list(kuniq), "valid": valid, "pivot": pivot,
                    "width": max(1, nmk * (K + 1))}
        if p.operation == Operation.HISTOGRAM:
            if bp.explode:
                ent_mi, ent_s = [], []
                for mi, elems in enumerate(col.tolist()):
                    if elems is None or (isinstance(elems, float)
                                         and np.isnan(elems)):
                        continue
                    for e in elems:
                        if e is None or (isinstance(e, float)
                                         and np.isnan(e)):
                            continue
                        ent_mi.append(mi)
                        ent_s.append(str(e))
                codes, uniq = pd.factorize(np.asarray(ent_s, dtype=object))
                nv = len(uniq)
                E = np.zeros((nm, nv), dtype=np.float64)
                if len(ent_mi):
                    np.add.at(E, (np.asarray(ent_mi, dtype=np.int64),
                                  codes), 1.0)
                valid = E.sum(axis=1) > 0
            else:
                notna = col.notna().to_numpy()
                svals = col[notna].map(str).to_numpy(dtype=object)
                codes_v, uniq = pd.factorize(svals)
                nv = len(uniq)
                E = np.zeros((nm, nv), dtype=np.float64)
                E[np.flatnonzero(notna), codes_v] = 1.0
                valid = notna
            return {"kind": "hist", "E": E, "vals": list(uniq),
                    "valid": valid, "width": max(1, nv)}
        # numeric family (scalar or list auto-explode)
        if bp.explode:
            P = np.zeros((K + 1, nm), dtype=np.float64)
            for mi, elems in enumerate(col.tolist()):
                if elems is None or (isinstance(elems, float)
                                     and np.isnan(elems)):
                    continue
                for e in elems:
                    if e is None or (isinstance(e, float) and np.isnan(e)):
                        continue
                    fe = float(e) - pivot
                    for k in range(K + 1):
                        P[k, mi] += fe**k
            valid = P[0] > 0
        else:
            valid = col.notna().to_numpy()
            v = pd.to_numeric(col, errors="coerce").fillna(0.0) \
                .to_numpy(dtype=np.float64) - pivot
            P = np.stack([np.where(valid, v**k, 0.0)
                          for k in range(K + 1)])
        return {"kind": "num", "K": K, "P": P, "valid": valid,
                "pivot": pivot}

    def _replay_group(self, mg: pd.DataFrame, qts_arr: np.ndarray,
                      base_irs: dict) -> dict:
        """All mutations of one (key, day) group replayed against its
        ts-sorted queries. Returns {part_name: [py IR per query]}."""
        nq, nm = len(qts_arr), len(mg)
        mts = mg["ts"].astype(np.int64).to_numpy()
        if "_row_ts" in mg.columns:
            rts_arr = pd.to_numeric(mg["_row_ts"], errors="coerce") \
                .fillna(pd.Series(mts, index=mg.index)) \
                .to_numpy(dtype=np.int64)
        else:
            rts_arr = mts
        is_b = mg["is_before"].astype("boolean").fillna(False) \
            .to_numpy(dtype=bool) \
            if "is_before" in mg.columns else np.zeros(nm, dtype=bool)
        sign = np.where(is_b, -1.0, 1.0)
        prep = {bp.name: self._prep_part(
            bp, mg, nm,
            pivot=self._pivot_for(bp, mg, base_irs.get(bp.name)))
            for bp in self.bound}
        out: dict[str, list] = {bp.name: [] for bp in self.bound}
        # chunk so the LARGEST dense intermediate stays bounded: the
        # (cq x nm) mask AND every part's (cq x width) scatter/stack (maps:
        # nmk*(K+1) planes; histograms: nv value columns)
        width = max([1, nm] + [prep[bp.name].get("width", 1)
                               for bp in self.bound])
        cq = max(1, self._CHUNK_CELLS // width)
        for a in range(0, nq, cq):
            qts_c = qts_arr[a:a + cq]
            before = mts[None, :] < qts_c[:, None]
            for bp in self.bound:
                p, name = bp.part, bp.name
                pr = prep[name]
                base = base_irs.get(name)
                if pr["kind"] == "missing":
                    out[name].extend([base] * len(qts_c))
                    continue
                m = before & pr["valid"][None, :]
                if not p.window.unbounded:
                    hop = tail_hop_millis(p.window)
                    qtail = round_ts(qts_c - p.window.millis, hop)
                    m = m & (rts_arr[None, :] >= qtail[:, None]) \
                          & (rts_arr[None, :] < qts_c[:, None])
                sm = np.where(m, sign[None, :], 0.0)
                applied = m.any(axis=1)
                if pr["kind"] == "num":
                    K = pr["K"]
                    piv = pr.get("pivot", 0.0)
                    Sb = _ps_from_ir(p.operation, base, K, piv)
                    S = np.empty((len(qts_c), K + 1))
                    for k in range(K + 1):
                        S[:, k] = Sb[k] + sm @ pr["P"][k]
                    has = applied | (base is not None)
                    if p.operation in _MOMENT_OPS:
                        # PS marker: tail hops must fold in BEFORE the
                        # central-moment IR conversion (see _MOMENT_OPS)
                        out[name].extend(
                            ("__ps__", S[i].tolist(), piv) if has[i]
                            else None for i in range(len(qts_c)))
                    else:
                        out[name].extend(_irs_from_ps(p.operation, S, has,
                                                      piv))
                elif pr["kind"] == "hist":
                    D = sm @ pr["E"]  # (cq × nv) signed counts
                    vals = pr["vals"]
                    bdict = base if base is not None else {}
                    for i in range(len(qts_c)):
                        if not applied[i] and base is None:
                            out[name].append(None)
                            continue
                        d = dict(bdict)
                        row = D[i]
                        for j in np.flatnonzero(row):
                            c = d.get(vals[j], 0) + int(round(row[j]))
                            if c == 0:
                                d.pop(vals[j], None)
                            else:
                                d[vals[j]] = c
                        out[name].append(d)
                else:  # map
                    K = pr["K"]
                    iop = p.operation
                    mkeys = pr["mkeys"]
                    nmk = len(mkeys)
                    bdict = base if base is not None else {}
                    base_only = {k: v for k, v in bdict.items()
                                 if k not in set(mkeys)}
                    Sb = np.stack(
                        [_ps_from_ir(iop, bdict.get(k), K,
                                     pr.get("pivot", 0.0))
                         for k in mkeys]) \
                        if nmk else np.zeros((0, K + 1))
                    in_base = np.array([k in bdict for k in mkeys],
                                       dtype=bool) if nmk \
                        else np.zeros(0, dtype=bool)
                    A = (m.astype(np.float64) @ pr["EH"]) > 0  # (cq × nmk)
                    S = np.empty((len(qts_c), nmk, K + 1))
                    for k in range(K + 1):
                        S[:, :, k] = Sb[None, :, k] + sm @ pr["E"][k]
                    piv = pr.get("pivot", 0.0)
                    for i in range(len(qts_c)):
                        if not applied[i] and base is None:
                            out[name].append(None)
                            continue
                        d = dict(base_only)
                        hask = A[i] | in_base
                        if hask.any():
                            if iop in _MOMENT_OPS:
                                # PS markers per map key (see _MOMENT_OPS)
                                for ki in np.flatnonzero(hask):
                                    d[mkeys[ki]] = ("__ps__",
                                                    S[i, ki].tolist(), piv)
                            else:
                                irs = _irs_from_ps(iop, S[i][hask],
                                                   np.ones(int(hask.sum()),
                                                           dtype=bool),
                                                   piv)
                                for j, ki in enumerate(np.flatnonzero(hask)):
                                    if irs[j] is not None:
                                        d[mkeys[ki]] = irs[j]
                        out[name].append(d if (d or base is not None
                                               or applied[i]) else None)
        return out

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from .upload import _py_ir_from_prefixed

        queries, muts, snaps = [side(tbl, i, s).to_pandas()
                                for i, s in enumerate(self.sides)]
        out_cols: dict[str, list] = {c: [] for c in self.left_cols}
        feats: dict[str, list] = {f.name: [] for f in self.out_fields}
        if len(queries) == 0:
            return pa.schema([*self.left_fields,
                              *self.out_fields]).empty_table()

        # merge snapshot IR partials per (keys, ds) — vectorized
        base_by_kd: dict[tuple, pd.Series] = {}
        tails_by_kd: dict[tuple, dict[str, dict]] = {}
        windowed = [bp for bp in self.bound if not bp.part.window.unbounded]
        if len(snaps):
            codes, kdf = _factorize_keys(snaps, [*self.keys, "_snap_ds"])
            irf = self.agg.ir_frame_from_pandas(snaps)
            irf = irf.drop(columns=[*self.keys, "_snap_ds"], errors="ignore")
            irf["g"] = codes
            merged = self.agg.merge_frame(irf)
            # column-wise row extraction (iterrows builds a Series per row)
            gvals = merged["g"].to_numpy()
            col_lists = {c: merged[c].tolist() for c in merged.columns
                         if c != "g"}
            key_rows = list(kdf.itertuples(index=False, name=None))
            for j in range(len(merged)):
                kvals = key_rows[int(gvals[j])]
                base_by_kd[kvals] = {c: lst[j]
                                     for c, lst in col_lists.items()}
            # merge pickled tail-hop dicts per group per windowed part
            for wi, bp in enumerate(self.bound):
                if bp.part.window.unbounded:
                    continue
                col = f"{bp.name}__tailhops"
                if col not in snaps.columns:
                    continue
                wop = self.wops[wi]
                vals = snaps[col].to_numpy()
                for i, c in enumerate(codes):
                    b = vals[i]
                    if b is None or (isinstance(b, float) and np.isnan(b)):
                        continue
                    kvals = key_rows[int(c)]
                    slot = tails_by_kd.setdefault(kvals, {}) \
                        .setdefault(bp.name, {})
                    for hopstart, hir in pickle.loads(b).items():
                        prev = slot.get(hopstart)
                        slot[hopstart] = hir if prev is None \
                            else wop.py_merge(prev, hir, bp.part)

        # group mutations by (keys, day); sort by mutation_ts
        mut_groups: dict[tuple, pd.DataFrame] = {}
        if len(muts):
            m = muts.copy()
            # restore declared INTEGER input dtypes (a null promotes them
            # to float64) so histogram keys match the snapshot IRs' str keys
            for c in {bp.part.input_column for bp in self.bound}:
                if c in m.columns and c in self.in_schema.names \
                        and pa.types.is_integer(self.in_schema.field(c).type):
                    m[c] = m[c].astype("Int64")
            m["_day"] = (m["ts"].astype(np.int64) // MILLIS_DAY)
            for kv, grp in m.groupby([*self.keys, "_day"], sort=False):
                mut_groups[tuple(kv)] = grp.sort_values("ts", kind="stable")

        def feats_for(cur: dict, tails: dict, qts: int, batch_end: int) -> list:
            """Finalized value per part for one query instant (tail-hop merge
            + finalize). Non-mutating: py_merge for the deletable set always
            returns fresh IRs.

            The CDC replay hands moment-family parts over as raw power-sum
            markers (see _MOMENT_OPS): the query's tail hops fold into the
            sums FIRST, and the central-moment IR conversion happens only on
            the complete window mass — a zero-mass replay intermediate (a
            same-day update of a tail-resident row) is unrepresentable as
            (n, mean, m2, ...)."""
            vals = []
            for pi, bp in enumerate(self.bound):
                p = bp.part
                ir = cur[bp.name]
                wop = self.wops[pi]
                included = []
                if not p.window.unbounded:
                    hop = tail_hop_millis(p.window)
                    qtail = round_ts(qts - p.window.millis, hop)
                    cut = batch_end - p.window.millis + TAIL_BUFFER_MS
                    included = [hir for hopstart, hir
                                in tails.get(bp.name, {}).items()
                                if hopstart >= qtail and cut > hopstart]
                if _is_ps(ir):
                    K = _MOM_K[p.operation]
                    S = np.asarray(ir[1], dtype=np.float64)
                    for hir in included:
                        S = S + _ps_from_ir(p.operation, hir, K, ir[2])
                    ir = _ir_from_ps_single(p.operation, S, ir[2])
                elif bp.is_map and isinstance(ir, dict) \
                        and any(_is_ps(v) for v in ir.values()):
                    inner = OPS[p.operation]
                    K = _MOM_K[p.operation]
                    d = dict(ir)
                    for hir in included:  # hop IR: {map_key: inner_ir}
                        for mk, hv in hir.items():
                            cv = d.get(mk)
                            if _is_ps(cv):
                                d[mk] = ("__ps__",
                                         (np.asarray(cv[1])
                                          + _ps_from_ir(p.operation, hv, K,
                                                        cv[2])).tolist(),
                                         cv[2])
                            elif cv is None:
                                d[mk] = inner.py_clone(hv, p) \
                                    if hasattr(inner, "py_clone") else hv
                            else:
                                d[mk] = inner.py_merge(cv, hv, p)
                    for mk in list(d):
                        if _is_ps(d[mk]):
                            v = _ir_from_ps_single(
                                p.operation,
                                np.asarray(d[mk][1], dtype=np.float64),
                                d[mk][2])
                            if v is None:
                                del d[mk]  # zero-mass key: drop the entry
                            else:
                                d[mk] = v
                    ir = d if d else None
                else:
                    for hir in included:
                        ir = hir if ir is None else wop.py_merge(ir, hir, p)
                val = None
                if ir is not None:
                    if p.operation == Operation.COUNT \
                            and isinstance(ir, int) and ir == 0:
                        val = 0
                    else:
                        val = wop.py_finalize(ir, p)
                vals.append(val)
            return vals

        # replay per query, grouped by (keys, day), queries sorted by ts so
        # the mutation prefix sweep is shared
        q = queries.copy()
        q["_day"] = (q["ts"].astype(np.int64) // MILLIS_DAY)
        # dropna=False: null-keyed query rows are left-outer rows — they
        # come out with null features, never silently vanish
        for kv, grp in q.groupby([*self.keys, "_day"], sort=False,
                                 dropna=False):
            kv = tuple(kv) if isinstance(kv, tuple) else (kv,)
            key_vals, day = kv[:-1], int(kv[-1])
            day_ds = pd.Timestamp(day * MILLIS_DAY, unit="ms").strftime("%Y-%m-%d")
            prev_ds = shift_ds(day_ds, -1)
            batch_end = day * MILLIS_DAY  # EOD of the ds-1 snapshot
            base_row = base_by_kd.get((*key_vals, prev_ds))
            base_irs = {
                bp.name: (None if base_row is None
                          else _py_ir_from_prefixed(bp, base_row))
                for bp in self.bound
            }
            tails = tails_by_kd.get((*key_vals, prev_ds), {})
            mg = mut_groups.get((*key_vals, day))
            grp = grp.sort_values("ts", kind="stable")
            qts_arr = grp["ts"].astype(np.int64).to_numpy()
            for c in self.left_cols:
                out_cols[c].extend(grp[c].tolist())
            if mg is None:
                # fast path (the common case — most key-days see no CDC):
                # features depend only on the base IR and each query's
                # hop-rounded tails, so compute once per distinct tail
                # signature instead of per query
                if windowed:
                    sig = np.stack([
                        round_ts(qts_arr - bp.part.window.millis,
                                 tail_hop_millis(bp.part.window))
                        for bp in windowed], axis=1)
                    _, rep, inv = np.unique(sig, axis=0, return_index=True,
                                            return_inverse=True)
                else:
                    rep = np.array([0])
                    inv = np.zeros(len(grp), dtype=np.int64)
                reps = [feats_for(base_irs, tails, int(qts_arr[i]), batch_end)
                        for i in rep]
                for pi, f in enumerate(self.out_fields):
                    feats[f.name].extend(reps[ci][pi] for ci in inv)
                continue
            # CDC replay — fully vectorized (see class docstring); windowed
            # parts apply each mutation PER QUERY through the mask (the
            # reference rowInWindow check: a mutated row can exit the
            # hop-rounded window between two same-day queries)
            per_q = self._replay_group(mg, qts_arr, base_irs)
            for qi in range(len(qts_arr)):
                cur = {bp.name: per_q[bp.name][qi] for bp in self.bound}
                vals = feats_for(cur, tails, int(qts_arr[qi]), batch_end)
                for pi, f in enumerate(self.out_fields):
                    feats[f.name].append(vals[pi])

        arrays = {c: self._left_array(c, out_cols[c])
                  for c in self.left_cols}
        for f in self.out_fields:
            arrays[f.name] = pa.array(feats[f.name], type=f.type)
        return pa.table(arrays)

    def _left_array(self, name: str, vals: list) -> pa.Array:
        from .groupby import left_column_array
        return left_column_array(self.left_fields, name, vals)


def temporal_entities_join(
    queries: ray.data.Dataset,
    snapshots: ray.data.Dataset,
    mutations: ray.data.Dataset,
    conf: GroupByConf,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """PITC features over a mutating entity table (see module docstring).

    queries: keys + ts (+ passthrough); snapshots: keys + ds + inputs;
    mutations: keys + mutation_ts + is_before + inputs."""
    from ..util import dataset_schema, drop_null_key_rows
    from .upload import _add_bucket_maps, _prepare_parts, _py_ir_from_prefixed

    keys = list(conf.key_columns)
    for p in conf.parts():
        if p.operation not in _SUPPORTED:
            raise NotImplementedError(
                "temporal_entities_join supports deletable ops only: "
                "SUM/COUNT/AVERAGE/VARIANCE/SKEW/KURTOSIS/HISTOGRAM")
    q_schema = dataset_schema(queries)
    s_schema = dataset_schema(snapshots)
    # bucketed parts rewrite into map-input parts over a synthesized
    # single-entry map column (same machinery as groupby_upload); map
    # inputs are handled natively (numeric deletable inner ops)
    parts, synth, out_names, s_schema = _prepare_parts(conf, s_schema)
    if synth:
        snapshots = snapshots.map_batches(_add_bucket_maps(synth),
                                          batch_format="pyarrow")
        mutations = mutations.map_batches(_add_bucket_maps(synth),
                                          batch_format="pyarrow")
    windowed = [p for p in parts if not p.window.unbounded]
    if windowed and "ts" not in s_schema.names:
        raise ValueError(
            "windowed temporal-entities aggregations need an event 'ts' "
            "column on the snapshot table (the window is over row event "
            "time — reference SawtoothMutationAggregator.update)")
    agg = RowAggregator(parts, s_schema)
    w_bound = [bp for bp in agg.bound if not bp.part.window.unbounded]
    # single-part aggregators for the nested masked re-partials in
    # snap_partials (full partial_frame would recompute all parts per part)
    one_agg = {bp.name: RowAggregator([bp.part], s_schema)
               for bp in w_bound if bp.is_map or bp.explode}
    input_cols = sorted({p.input_column for p in parts})
    # every side hashes the query schema's key types: an int32 snapshot
    # or mutation key must meet the query's int64 key
    key_types = {**{k: q_schema.field(k).type for k in keys},
                 "ts": pa.int64()}

    def snap_partials(batch: pa.Table) -> pa.Table:
        """Snapshot rows → per-(keys, ds) IR partials (only IRs shuffle).

        Windowed parts follow the reference BatchIr split: rows with event
        ts ≥ tail+buffer collapse into the regular IR columns; rows inside
        the 2-day tail buffer become per-hop py IRs, pickled per group."""
        batch = drop_null_key_rows(batch, keys)
        gran = [*keys, "ds"]
        kdf = batch.select(gran).to_pandas()
        codes, uniq = _factorize_keys(kdf, gran)
        irf = agg.partial_frame(batch, codes, len(uniq))
        if windowed:
            ts_row = batch["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
            # end-of-day instant per snapshot row (EOD of its ds partition)
            end_by_g = (pd.to_datetime(uniq["ds"]).astype("int64")
                        // 1_000_000 + MILLIS_DAY).to_numpy()
            end_row = end_by_g[codes]
            irf = irf.set_index("g")
            for bp in w_bound:
                p, op, name = bp.part, bp.op, bp.name
                nested = bp.is_map or bp.explode
                ircs = agg._map_cols(bp) if bp.is_map \
                    else [f"{name}__{c}" for c in agg._ircs(bp)]
                W = p.window.millis
                hop = tail_hop_millis(p.window)
                col = batch[p.input_column]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
                if not nested:
                    v = col.to_numpy(zero_copy_only=False)
                    if pa.types.is_integer(col.type) and col.null_count:
                        # keep integer dtype (float64 promotion would split
                        # HISTOGRAM str keys — see RowAggregator._extract)
                        v = pc.fill_null(col, 0) \
                            .to_numpy(zero_copy_only=False)
                # hop-rounded retention, matching the sawtooth window
                # contract ts >= round(q - W, hop): a row at exactly
                # end - W (or inside the rounded tail band) is still in
                # the earliest query's window
                rel = valid & (ts_row < end_row) & \
                    (round_ts(ts_row, hop) >= round_ts(end_row - W, hop))
                coll = rel & (ts_row >= end_row - W + TAIL_BUFFER_MS)
                tail = rel & ~coll
                # overwrite this part's collapsed IR with the masked version
                for irc in ircs:
                    irf[irc] = None
                if coll.any():
                    if nested:
                        sub = batch.filter(pa.array(coll))
                        res = one_agg[name].partial_frame(
                            sub, codes[coll], len(uniq)).set_index("g")
                    else:
                        dfc = pd.DataFrame({"g": codes[coll], "v": v[coll]})
                        res = op.partial(dfc, len(uniq), p).set_index("g")
                        res.columns = [f"{name}__{c}" for c in res.columns]
                    for irc in ircs:
                        irf.loc[res.index, irc] = res[irc]
                # tail rows → per-(g, hopstart) py IRs, pickled per g
                tail_col = pd.Series([None] * len(irf), index=irf.index,
                                     dtype=object)
                if tail.any():
                    hs = round_ts(ts_row[tail], hop)
                    gt = codes[tail]
                    pairs = np.stack([gt, hs], axis=1)
                    puniq, pcodes = np.unique(pairs, axis=0,
                                              return_inverse=True)
                    if nested:
                        sub = batch.filter(pa.array(tail))
                        rest = one_agg[name].partial_frame(sub, pcodes,
                                                           len(puniq))
                    else:
                        dft = pd.DataFrame({"g": pcodes, "v": v[tail]})
                        rest = op.partial(dft, len(puniq), p)
                        rest.columns = ["g"] + \
                            [f"{name}__{c}" for c in rest.columns[1:]]
                    per_g: dict[int, dict] = {}
                    for _, prow in rest.iterrows():
                        gg, hopstart = puniq[int(prow["g"])]
                        pir = _py_ir_from_prefixed(bp, prow)
                        if pir is None:
                            continue
                        per_g.setdefault(int(gg), {})[int(hopstart)] = pir
                    for gg, d in per_g.items():
                        tail_col.loc[gg] = pickle.dumps(d)
                irf[f"{name}__tailhops"] = tail_col
            irf = irf.reset_index()
        sel = irf["g"].to_numpy()
        key_arrays = {}
        for k in keys:
            key_arrays[k] = pa.array(uniq[k].to_numpy(dtype=object)[sel],
                                     type=key_types[k])
        key_arrays["_snap_ds"] = pa.array(
            uniq["ds"].to_numpy(dtype=object)[sel], type=pa.string())
        out = agg.ir_frame_to_arrow(irf, key_arrays)
        for bp in w_bound:
            col = f"{bp.name}__tailhops"
            out = out.append_column(
                col, pa.array(irf[col].tolist(), type=pa.binary()))
        return out

    snap_schema = pa.schema(
        [*(pa.field(k, key_types[k]) for k in keys),
         pa.field("_snap_ds", pa.string()), *agg.ir_fields(),
         *(pa.field(f"{bp.name}__tailhops", pa.binary()) for bp in w_bound)])
    # ordering ts = mutation_ts; windowed parts also need the mutated row's
    # EVENT ts (its ts, else its mutation_ts); inputs in the snapshots' types
    mut_schema = pa.schema(
        [*(pa.field(k, key_types[k]) for k in keys),
         pa.field("mutation_ts", pa.int64()),
         pa.field("is_before", pa.bool_()),
         *([pa.field("_row_ts", pa.int64())] if windowed else []),
         *(s_schema.field(c) for c in input_cols)])

    def mut_rows(t: pa.Table) -> pa.Table:
        if windowed and "_row_ts" not in t.column_names:
            t = t.append_column("_row_ts", t["ts"] if "ts" in t.column_names
                                else t["mutation_ts"])
        return pa.table([pc.cast(t[f.name], f.type) if f.name in t.column_names
                         else pa.nulls(len(t), f.type) for f in mut_schema],
                        schema=mut_schema)

    sides = [Side(queries, q_schema),
             Side(mutations.map_batches(mut_rows, batch_format="pyarrow"),
                  mut_schema, {"mutation_ts": "ts"}),
             Side(snapshots.map_batches(snap_partials, batch_format="pyarrow"),
                  snap_schema)]
    proc = _EntityPartition(keys, parts, s_schema, q_schema.names,
                            left_fields=list(q_schema), out_names=out_names,
                            sides=[s.own(key_types) for s in sides])
    return copartition(sides, key_types, keys, num_partitions, proc,
                       pa.schema([*q_schema, *proc.out_fields]))
