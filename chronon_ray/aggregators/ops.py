"""Aggregation operations as mergeable IR monoids, vectorized.

Re-expression of the reference's three-layer aggregator core (reference:
aggregator/base/BaseAggregator.scala:21-69 SimpleAggregator contract;
aggregator/base/SimpleAggregators.scala — per-op impls;
aggregator/base/TimedAggregators.scala — FIRST/LAST/FIRST_K/LAST_K;
aggregator/row/RowAggregator.scala — flat IR row) re-designed for columnar
execution: instead of per-row `update` dispatch over an `Array[Any]` IR, each
op exposes a **vectorized grouped path** (pandas/numpy over whole batches,
one IR row per group) used by the snapshot GroupBy combiner and the hop-tiling
stage, plus a **scalar python path** (`py_*`) used by the sawtooth merge loop
where the work per (query × hop) is inherently scalar.

IR columns are Arrow-serializable (numerics, lists-of-struct, binary sketches)
so partial aggregates survive shuffles — the analog of the reference's
normalize/denormalize-to-Avro contract (RowAggregator.scala:126-148).

Central-moment combination uses the exact one-shot identities
(Chan et al.; Pébay 2008): with d_i = mean_i - mean,
  M2 = Σ(m2_i + n_i d_i²)
  M3 = Σ(m3_i + 3 d_i m2_i + n_i d_i³)
  M4 = Σ(m4_i + 4 d_i m3_i + 6 d_i² m2_i + n_i d_i⁴)
matching the reference's pairwise Welford merges (SimpleAggregators.scala:
164-253, 771-875) without a python loop.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import AggregationPart, Operation
from .sketches import HLL, KLL


def _grouped_sum(g: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(g, weights=x, minlength=n)


class AggOp:
    """Interface; subclasses register themselves in OPS."""

    op: Operation
    needs_ts = False

    # ---- vectorized grouped path -------------------------------------
    def partial(self, df: pd.DataFrame, n_groups: int, part: AggregationPart) -> pd.DataFrame:
        """df columns: g (int64 codes), v (values), optionally ts, tb.
        Nulls already dropped. Return one row per present group with column
        'g' plus this op's IR columns."""
        raise NotImplementedError

    def merge(self, ir: pd.DataFrame, part: AggregationPart) -> pd.DataFrame:
        """ir: 'g' + IR columns, >=1 row per g. Return one row per g."""
        raise NotImplementedError

    def finalize(self, ir: pd.DataFrame, part: AggregationPart) -> pd.Series:
        raise NotImplementedError

    def ir_columns(self) -> list[str]:
        raise NotImplementedError

    def output_arrow_type(self, in_type: pa.DataType, part: AggregationPart) -> pa.DataType:
        raise NotImplementedError

    #: abelian-group ops support deletion (mutation reversals) — reference
    #: api.thrift:136-165 "monoid" vs "abelian group" split
    deletable = False

    # ---- scalar path (sawtooth / two-stack inner loop) ---------------
    def py_empty(self, part: AggregationPart) -> Any:
        return None

    def py_delete(self, ir: Any, v: Any, ts: int, part: AggregationPart) -> Any:
        raise NotImplementedError(f"{self.op} is not deletable")

    def py_update(self, ir: Any, v: Any, ts: int, part: AggregationPart) -> Any:
        raise NotImplementedError

    def py_merge(self, a: Any, b: Any, part: AggregationPart) -> Any:
        raise NotImplementedError

    def py_clone(self, ir: Any, part: AggregationPart) -> Any:
        """Copy an IR before MUTATING updates touch it (reference clone()
        — BaseAggregator.scala). Default: identity, correct for immutable
        IRs (numbers/tuples); ops with dict/set/list/array IRs override.
        Callers replaying events onto a SHARED base IR (serve, mutation
        replay) must clone first or later queries double-count."""
        return ir

    def py_finalize(self, ir: Any, part: AggregationPart) -> Any:
        raise NotImplementedError


OPS: dict[Operation, AggOp] = {}


def _register(cls):
    OPS[cls.op] = cls()
    return cls


def _upcast_numeric(in_type: pa.DataType) -> pa.DataType:
    """Reference upcasts Int/Short/Byte/Bool→Long, Float→Double
    (aggregator/row/ColumnAggregator.scala:136-167)."""
    if pa.types.is_floating(in_type):
        return pa.float64()
    if pa.types.is_integer(in_type) or pa.types.is_boolean(in_type):
        return pa.int64()
    return in_type


# ------------------------------------------------------------------- SUM


@_register
class SumOp(AggOp):
    op = Operation.SUM
    deletable = True

    def partial(self, df, n, part):
        s = df.groupby("g", sort=True)["v"].sum()
        return pd.DataFrame({"g": s.index.to_numpy(), "s": s.to_numpy()})

    def merge(self, ir, part):
        s = ir.groupby("g", sort=True)["s"].sum()
        return pd.DataFrame({"g": s.index.to_numpy(), "s": s.to_numpy()})

    def finalize(self, ir, part):
        return ir["s"]

    def ir_columns(self):
        return ["s"]

    def output_arrow_type(self, in_type, part):
        return _upcast_numeric(in_type)

    def py_update(self, ir, v, ts, part):
        return v if ir is None else ir + v

    def py_delete(self, ir, v, ts, part):
        return -v if ir is None else ir - v

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def py_finalize(self, ir, part):
        return ir


@_register
class CountOp(AggOp):
    op = Operation.COUNT
    deletable = True

    def partial(self, df, n, part):
        s = df.groupby("g", sort=True)["v"].size()
        return pd.DataFrame({"g": s.index.to_numpy(), "n": s.to_numpy().astype(np.int64)})

    def merge(self, ir, part):
        s = ir.groupby("g", sort=True)["n"].sum()
        return pd.DataFrame({"g": s.index.to_numpy(), "n": s.to_numpy()})

    def finalize(self, ir, part):
        return ir["n"]

    def ir_columns(self):
        return ["n"]

    def output_arrow_type(self, in_type, part):
        return pa.int64()

    def py_update(self, ir, v, ts, part):
        return 1 if ir is None else ir + 1

    def py_delete(self, ir, v, ts, part):
        return -1 if ir is None else ir - 1

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def py_finalize(self, ir, part):
        return ir


@_register
class AverageOp(AggOp):
    """IR = (sum, count) (reference SimpleAggregators.scala:119-160)."""

    op = Operation.AVERAGE
    deletable = True

    def partial(self, df, n, part):
        g = df.groupby("g", sort=True)["v"]
        s, c = g.sum(), g.size()
        return pd.DataFrame(
            {"g": s.index.to_numpy(), "s": s.to_numpy().astype(np.float64), "n": c.to_numpy().astype(np.int64)}
        )

    def merge(self, ir, part):
        g = ir.groupby("g", sort=True)
        s, c = g["s"].sum(), g["n"].sum()
        return pd.DataFrame({"g": s.index.to_numpy(), "s": s.to_numpy(), "n": c.to_numpy()})

    def finalize(self, ir, part):
        return ir["s"] / ir["n"]

    def ir_columns(self):
        return ["s", "n"]

    def output_arrow_type(self, in_type, part):
        return pa.float64()

    def py_update(self, ir, v, ts, part):
        if ir is None:
            return (float(v), 1)
        return (ir[0] + v, ir[1] + 1)

    def py_delete(self, ir, v, ts, part):
        if ir is None:
            return (-float(v), -1)
        return (ir[0] - v, ir[1] - 1)

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return (a[0] + b[0], a[1] + b[1])

    def py_finalize(self, ir, part):
        # deletes can drive the count to 0 (all of a key's rows removed
        # before the query) — the feature is NULL then, not a ZeroDivision
        if ir[1] <= 0:
            return None
        return ir[0] / ir[1]


class _MomentBase(AggOp):
    """Shared central-moment machinery (n, m1..m4 as needed)."""

    n_moments = 2  # variance

    def partial(self, df, n, part):
        gb = df.groupby("g", sort=True)["v"]
        cnt = gb.size().astype(np.float64)
        mean = gb.mean()
        codes = cnt.index.to_numpy()
        d = df["v"].to_numpy(dtype=np.float64) - mean.reindex(df["g"]).to_numpy()
        ng = int(codes.max()) + 1 if len(codes) else 0
        g_arr = df["g"].to_numpy()
        out = {"g": codes, "n": cnt.to_numpy(), "m1": mean.to_numpy()}
        for k in range(2, self.n_moments + 1):
            mk = _grouped_sum(g_arr, d**k, ng)[codes]
            out[f"m{k}"] = mk
        return pd.DataFrame(out)

    def merge(self, ir, part):
        gb = ir.groupby("g", sort=True)
        n = gb["n"].sum()
        codes = n.index.to_numpy()
        ng = int(codes.max()) + 1 if len(codes) else 0
        g_arr = ir["g"].to_numpy()
        n_i = ir["n"].to_numpy()
        m1_i = ir["m1"].to_numpy()
        s1 = _grouped_sum(g_arr, n_i * m1_i, ng)
        n_tot_full = np.zeros(ng)
        n_tot_full[codes] = n.to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_full = np.where(n_tot_full > 0, s1 / np.maximum(n_tot_full, 1), 0.0)
        d = m1_i - mean_full[g_arr]
        out = {"g": codes, "n": n.to_numpy(), "m1": mean_full[codes]}
        m2_i = ir["m2"].to_numpy() if "m2" in ir else None
        m3_i = ir["m3"].to_numpy() if "m3" in ir else None
        m4_i = ir["m4"].to_numpy() if "m4" in ir else None
        if self.n_moments >= 2:
            out["m2"] = _grouped_sum(g_arr, m2_i + n_i * d**2, ng)[codes]
        if self.n_moments >= 3:
            out["m3"] = _grouped_sum(g_arr, m3_i + 3 * d * m2_i + n_i * d**3, ng)[codes]
        if self.n_moments >= 4:
            out["m4"] = _grouped_sum(
                g_arr, m4_i + 4 * d * m3_i + 6 * d**2 * m2_i + n_i * d**4, ng
            )[codes]
        return pd.DataFrame(out)

    def ir_columns(self):
        return ["n", "m1"] + [f"m{k}" for k in range(2, self.n_moments + 1)]

    def output_arrow_type(self, in_type, part):
        return pa.float64()

    # scalar path: ir = tuple (n, m1, m2[, m3, m4])
    def py_update(self, ir, v, ts, part):
        return self.py_merge(ir, self._single(float(v)), part)

    def _single(self, v: float):
        return (1.0, v) + (0.0,) * (self.n_moments - 1)

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        na, nb = a[0], b[0]
        n = na + nb
        mean = (na * a[1] + nb * b[1]) / n
        da, db = a[1] - mean, b[1] - mean
        out = [n, mean]
        if self.n_moments >= 2:
            out.append(a[2] + b[2] + na * da**2 + nb * db**2)
        if self.n_moments >= 3:
            out.append(a[3] + b[3] + 3 * da * a[2] + 3 * db * b[2] + na * da**3 + nb * db**3)
        if self.n_moments >= 4:
            out.append(
                a[4] + b[4]
                + 4 * da * a[3] + 4 * db * b[3]
                + 6 * da**2 * a[2] + 6 * db**2 * b[2]
                + na * da**4 + nb * db**4
            )
        return tuple(out)

    def py_delete(self, ir, v, ts, part):
        """Abelian-group delete via the signed-merge identity: the central-
        moment pairwise combination formulas are exact algebraic identities
        that hold for a signed element (n=-1), so merging (-1, v, 0, ...)
        removes v from the state. (VarianceOp overrides with the more
        FP-stable reverse-Welford form.)"""
        neg = (-1.0, float(v)) + (0.0,) * (self.n_moments - 1)
        if ir is None:
            return neg
        if ir[0] - 1 == 0:
            return None
        out = list(self.py_merge(ir, neg, part))
        if self.n_moments >= 2:
            out[2] = max(out[2], 0.0)  # FP cancellation guard
        return tuple(out)


@_register
class VarianceOp(_MomentBase):
    """Population variance m2/n (reference SimpleAggregators.scala:247 finalize)."""

    op = Operation.VARIANCE
    n_moments = 2
    deletable = True

    def finalize(self, ir, part):
        return ir["m2"] / ir["n"]

    def py_finalize(self, ir, part):
        if ir[0] <= 0:
            return None
        return ir[2] / ir[0]

    def py_delete(self, ir, v, ts, part):
        """Reverse Welford update (abelian-group delete — the reference marks
        VARIANCE deletable, api.thrift:136-165)."""
        if ir is None:
            # deletion before any update: represent as negative-count moments
            return self.py_merge((-1.0, float(v), 0.0), None, part)
        n, mean, m2 = ir[0], ir[1], ir[2]
        n2 = n - 1
        if n2 <= 0:
            return None
        mean2 = (n * mean - v) / n2
        m2_2 = m2 - (v - mean2) * (v - mean)
        return (n2, mean2, max(m2_2, 0.0))


@_register
class SkewOp(_MomentBase):
    """sqrt(n)*m3/m2^1.5, NaN if n<3 or m2==0 (SimpleAggregators.scala:869-871)."""

    op = Operation.SKEW
    n_moments = 3
    deletable = True

    def finalize(self, ir, part):
        n, m2, m3 = ir["n"], ir["m2"], ir["m3"]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.sqrt(n) * m3 / np.power(m2, 1.5)
        return pd.Series(np.where((n < 3) | (m2 == 0), np.nan, out), index=ir.index)

    def py_finalize(self, ir, part):
        n, m2, m3 = ir[0], ir[2], ir[3]
        if n < 3 or m2 == 0:
            return float("nan")
        return math.sqrt(n) * m3 / m2**1.5


@_register
class KurtosisOp(_MomentBase):
    """n*m4/m2^2 - 3, NaN if n<4 or m2==0 (SimpleAggregators.scala:874-876)."""

    op = Operation.KURTOSIS
    n_moments = 4
    deletable = True

    def finalize(self, ir, part):
        n, m2, m4 = ir["n"], ir["m2"], ir["m4"]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = n * m4 / (m2 * m2) - 3.0
        return pd.Series(np.where((n < 4) | (m2 == 0), np.nan, out), index=ir.index)

    def py_finalize(self, ir, part):
        n, m2, m4 = ir[0], ir[2], ir[4]
        if n < 4 or m2 == 0:
            return float("nan")
        return n * m4 / (m2 * m2) - 3.0


class _MinMaxBase(AggOp):
    agg_name = "min"

    def partial(self, df, n, part):
        s = df.groupby("g", sort=True)["v"].agg(self.agg_name)
        return pd.DataFrame({"g": s.index.to_numpy(), "x": s.to_numpy()})

    def merge(self, ir, part):
        s = ir.groupby("g", sort=True)["x"].agg(self.agg_name)
        return pd.DataFrame({"g": s.index.to_numpy(), "x": s.to_numpy()})

    def finalize(self, ir, part):
        return ir["x"]

    def ir_columns(self):
        return ["x"]

    def output_arrow_type(self, in_type, part):
        return in_type

    def py_update(self, ir, v, ts, part):
        if ir is None:
            return v
        return min(ir, v) if self.agg_name == "min" else max(ir, v)

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b) if self.agg_name == "min" else max(a, b)

    def py_finalize(self, ir, part):
        return ir


@_register
class MinOp(_MinMaxBase):
    op = Operation.MIN
    agg_name = "min"


@_register
class MaxOp(_MinMaxBase):
    op = Operation.MAX
    agg_name = "max"


# --------------------------------------------------- FIRST / LAST (timed)


class _FirstLastBase(AggOp):
    """IR = (ts, payload[, tb]); FIRST keeps min-ts, LAST keeps max-ts
    (reference TimedAggregators.scala:74-112). An optional tie-break column
    makes equal-ts outcomes deterministic (engine extension)."""

    needs_ts = True
    keep_last = False

    def partial(self, df, n, part):
        asc = not self.keep_last
        cols = ["ts", "tb"] if "tb" in df else ["ts"]
        d = df.sort_values(cols, ascending=asc, kind="stable")
        d = d.drop_duplicates("g", keep="first")
        out = {"g": d["g"].to_numpy(), "ts": d["ts"].to_numpy(), "payload": d["v"].to_numpy()}
        if "tb" in df:
            out["tb"] = d["tb"].to_numpy()
        return pd.DataFrame(out).sort_values("g", ignore_index=True)

    def merge(self, ir, part):
        asc = not self.keep_last
        cols = ["ts", "tb"] if "tb" in ir else ["ts"]
        d = ir.sort_values(cols, ascending=asc, kind="stable").drop_duplicates("g", keep="first")
        return d.sort_values("g", ignore_index=True)

    def finalize(self, ir, part):
        return ir["payload"]

    def ir_columns(self):
        return ["ts", "payload"]

    def output_arrow_type(self, in_type, part):
        return in_type

    def py_update(self, ir, v, ts, part):
        if ir is None:
            return (ts, v)
        if self.keep_last:
            # >= : the LAST-seen among equal timestamps wins, matching the
            # vectorized slice path (which takes the final position in
            # (ts, tie_break)-ascending order)
            return (ts, v) if ts >= ir[0] else ir
        return (ts, v) if ts < ir[0] else ir

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        if self.keep_last:
            # ties prefer b: callers pass the NEWER IR second (two-stack
            # push/merge convention), matching py_update's last-seen-wins
            return b if b[0] >= a[0] else a
        return a if a[0] <= b[0] else b

    def py_finalize(self, ir, part):
        return ir[1]


@_register
class FirstOp(_FirstLastBase):
    op = Operation.FIRST
    keep_last = False


@_register
class LastOp(_FirstLastBase):
    op = Operation.LAST
    keep_last = True


# ------------------------------------------- FIRST_K / LAST_K / TOP_K / BOTTOM_K


class _KListBase(AggOp):
    """IR = list<struct<o, p>> where o is the ordering scalar (ts or value)
    and p the payload. Mirrors OrderByLimit(Timed) + MinHeap (reference
    TimedAggregators.scala:117-183; aggregator/base/MinHeap.scala:23-97).
    descending=True keeps the largest-o k items (LAST_K / TOP_K)."""

    descending = False
    payload_is_value = True  # TOP_K/BOTTOM_K: ordering key == payload

    def _order_cols(self, df):
        return ["o", "tb"] if "tb" in df else ["o"]

    def _prep(self, df):
        if self.payload_is_value:
            d = df.rename(columns={"v": "o"})
            d["p"] = d["o"]
        else:
            d = df.rename(columns={"ts": "o", "v": "p"})
        return d

    def partial(self, df, n, part):
        k = part.get_int("k")
        d = self._prep(df)
        d = d.sort_values(self._order_cols(d), ascending=not self.descending, kind="stable")
        d = d.groupby("g", sort=True).head(k)
        items = d.groupby("g", sort=True).apply(
            lambda x: list(zip(x["o"].tolist(), x["p"].tolist())), include_groups=False
        )
        return pd.DataFrame({"g": items.index.to_numpy(), "items": items.to_numpy()})

    def merge(self, ir, part):
        k = part.get_int("k")
        gb = ir.groupby("g", sort=True)["items"]

        def m(lists):
            allitems = [t for lst in lists for t in lst]
            allitems.sort(key=lambda t: t[0], reverse=self.descending)
            return allitems[:k]

        s = gb.agg(m)
        return pd.DataFrame({"g": s.index.to_numpy(), "items": s.to_numpy()})

    def finalize(self, ir, part):
        return ir["items"].map(lambda lst: [t[1] for t in lst])

    def ir_columns(self):
        return ["items"]

    def output_arrow_type(self, in_type, part):
        return pa.list_(in_type)

    def py_update(self, ir, v, ts, part):
        k = part.get_int("k")
        o = v if self.payload_is_value else ts
        item = (o, v)
        if ir is None:
            return [item]
        ir = list(ir)
        ir.append(item)
        if len(ir) > 4 * k:
            ir.sort(key=lambda t: t[0], reverse=self.descending)
            del ir[k:]
        return ir

    def py_clone(self, ir, part):
        return list(ir) if ir is not None else None

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        k = part.get_int("k")
        out = list(a) + list(b)
        out.sort(key=lambda t: t[0], reverse=self.descending)
        return out[:k]

    def py_finalize(self, ir, part):
        k = part.get_int("k")
        out = sorted(ir, key=lambda t: t[0], reverse=self.descending)[:k]
        return [t[1] for t in out]


@_register
class LastKOp(_KListBase):
    op = Operation.LAST_K
    descending = True
    payload_is_value = False
    needs_ts = True


@_register
class FirstKOp(_KListBase):
    op = Operation.FIRST_K
    descending = False
    payload_is_value = False
    needs_ts = True


@_register
class TopKOp(_KListBase):
    op = Operation.TOP_K
    descending = True
    payload_is_value = True


@_register
class BottomKOp(_KListBase):
    op = Operation.BOTTOM_K
    descending = False
    payload_is_value = True


# ----------------------------------------------------------- UNIQUE_COUNT

#: the one NaN a UNIQUE_COUNT set holds: a set tells NaN objects apart
#: (NaN != NaN), and each update or unpickle makes a fresh one
_NAN = float("nan")


def one_nan(s: set) -> set:
    """``s`` with its float NaNs collapsed into ``_NAN``, as DuckDB
    ``count(distinct)`` counts them."""
    nans = [v for v in s if isinstance(v, float) and v != v]
    if nans and (len(nans) > 1 or nans[0] is not _NAN):
        s.difference_update(nans)
        s.add(_NAN)
    return s


@_register
class UniqueCountOp(AggOp):
    """Exact distinct; IR = list of uniques (reference SimpleAggregators.scala:
    75-117, HashSet normalized to list)."""

    op = Operation.UNIQUE_COUNT

    def partial(self, df, n, part):
        # vectorized distinct-per-group: dedupe (g, v) pairs once, then
        # slice the g-sorted value array — no per-group python lambda
        d = df[["g", "v"]].drop_duplicates()
        d = d.sort_values("g", kind="stable")
        return self._regroup(d["g"].to_numpy(), d["v"].to_numpy())

    def merge(self, ir, part):
        ex = ir.explode("uniq")
        d = ex[["g", "uniq"]].drop_duplicates().sort_values("g", kind="stable")
        return self._regroup(d["g"].to_numpy(), d["uniq"].to_numpy())

    @staticmethod
    def _regroup(g: np.ndarray, v: np.ndarray) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"g": g, "uniq": []})
        bounds = np.flatnonzero(np.diff(g)) + 1
        groups = np.split(v, bounds)
        codes = g[np.concatenate([[0], bounds])]
        return pd.DataFrame({"g": codes,
                             "uniq": [list(x) for x in groups]})

    def finalize(self, ir, part):
        return ir["uniq"].map(len).astype(np.int64)

    def ir_columns(self):
        return ["uniq"]

    def output_arrow_type(self, in_type, part):
        return pa.int64()

    def py_update(self, ir, v, ts, part):
        if isinstance(v, float) and v != v:
            v = _NAN
        if ir is None:
            return {v}
        ir.add(v)
        return ir

    def py_clone(self, ir, part):
        return set(ir) if ir is not None else None

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return one_nan(a | b)

    def py_finalize(self, ir, part):
        return len(ir)


@_register
class ApproxUniqueCountOp(AggOp):
    """HLL-based approximate distinct; IR = binary registers. Reference uses a
    CPC sketch, lgK=8 default (SimpleAggregators.scala:602-652); estimates are
    approximate by contract in both."""

    op = Operation.APPROX_UNIQUE_COUNT

    def _lgk(self, part):
        return part.get_int("k", 8)

    def partial(self, df, n, part):
        lgk = self._lgk(part)
        m = 1 << lgk
        g = df["g"].to_numpy()
        codes, inv = np.unique(g, return_inverse=True)
        from .sketches import _hash64

        h = _hash64(df["v"].to_numpy())
        # per-group unique hashes (sorted by (group, hash)); groups with at
        # most m distinct stay in exact sparse mode (HLL++-style)
        order = np.lexsort((h, inv))
        gi, hi = inv[order], h[order]
        keep = np.ones(len(hi), dtype=bool)
        keep[1:] = (gi[1:] != gi[:-1]) | (hi[1:] != hi[:-1])
        gi, hi = gi[keep], hi[keep]
        starts = np.searchsorted(gi, np.arange(len(codes)))
        ends = np.append(starts[1:], len(gi))
        sketches = []
        for i in range(len(codes)):
            hs = hi[starts[i]:ends[i]]
            if len(hs) <= m:
                sketches.append(b"S" + bytes([lgk]) + hs.tobytes())
            else:
                dense = HLL._update_dense(np.zeros(m, dtype=np.uint8), hs)
                sketches.append(b"D" + dense.tobytes())
        return pd.DataFrame({"g": codes, "sketch": sketches})

    def merge(self, ir, part):
        def m(bufs):
            out = None
            for b in bufs:
                st = HLL.deserialize(b)
                out = st if out is None else HLL.merge(out, st)
            return HLL.serialize(out)

        s = ir.groupby("g", sort=True)["sketch"].agg(m)
        return pd.DataFrame({"g": s.index.to_numpy(), "sketch": s.to_numpy()})

    def finalize(self, ir, part):
        return ir["sketch"].map(
            lambda b: HLL.estimate(HLL.deserialize(b))).astype(np.int64)

    def ir_columns(self):
        return ["sketch"]

    def output_arrow_type(self, in_type, part):
        return pa.int64()

    def py_update(self, ir, v, ts, part):
        if ir is None:
            ir = HLL.empty(self._lgk(part))
        return HLL.update_many(ir, np.asarray([v]))

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return HLL.merge(a, b)

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return HLL.deserialize(HLL.serialize(ir))

    def py_finalize(self, ir, part):
        return int(HLL.estimate(ir))


@_register
class ApproxPercentileOp(AggOp):
    """KLL-style quantiles, k=128 default, percentiles arg (reference
    SimpleAggregators.scala:654-694). IR = pickled sketch bytes."""

    op = Operation.APPROX_PERCENTILE

    def _percentiles(self, part):
        p = part.args.get("percentiles", "0.5")
        if isinstance(p, str):
            return [float(x) for x in p.strip("[] ").split(",")]
        return list(p)

    def partial(self, df, n, part):
        k = part.get_int("k", 128)

        def mk(vals):
            st = KLL.empty(k)
            KLL.update_many(st, vals.to_numpy(dtype=np.float64))
            return KLL.serialize(st)

        s = df.groupby("g", sort=True)["v"].agg(mk)
        return pd.DataFrame({"g": s.index.to_numpy(), "sketch": s.to_numpy()})

    def merge(self, ir, part):
        def m(bufs):
            states = [KLL.deserialize(b) for b in bufs]
            out = states[0]
            for st in states[1:]:
                out = KLL.merge(out, st)
            return KLL.serialize(out)

        s = ir.groupby("g", sort=True)["sketch"].agg(m)
        return pd.DataFrame({"g": s.index.to_numpy(), "sketch": s.to_numpy()})

    def finalize(self, ir, part):
        qs = self._percentiles(part)
        return ir["sketch"].map(lambda b: KLL.quantiles(KLL.deserialize(b), qs).tolist())

    def ir_columns(self):
        return ["sketch"]

    def output_arrow_type(self, in_type, part):
        return pa.list_(pa.float64())

    def py_update(self, ir, v, ts, part):
        if ir is None:
            ir = KLL.empty(part.get_int("k", 128))
        return KLL.update_many(ir, np.asarray([v], dtype=np.float64))

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        return KLL.merge(a, b)

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return KLL.deserialize(KLL.serialize(ir))

    def py_finalize(self, ir, part):
        return KLL.quantiles(ir, self._percentiles(part)).tolist()


# -------------------------------------------------------------- HISTOGRAM


class _HistogramBase(AggOp):
    """Counts per STRING-CANONICAL value; IR = dict with str keys
    (reference output is Map[String, Long]). Keys are stringified at IR
    CREATION, not just at the Arrow boundary — a deserialized (str-keyed)
    checkpoint IR and raw-valued py updates must agree on the key space or
    counts split into duplicate entries. Finalize trims to top-k entries
    when k>0 (reference SimpleAggregators.scala:249-321)."""

    deletable = True

    def partial(self, df, n, part):
        d2 = df.copy()
        d2["v"] = d2["v"].map(str)
        cnt = d2.groupby(["g", "v"], sort=True).size()
        s = cnt.groupby(level=0, sort=True).agg(
            lambda x: dict(zip(x.index.get_level_values(1), x.astype(int)))
        )
        return pd.DataFrame({"g": s.index.to_numpy(), "hist": s.to_numpy()})

    def merge(self, ir, part):
        def m(dicts):
            out: dict = {}
            for d in dicts:
                for kk, vv in d.items():
                    out[kk] = out.get(kk, 0) + vv
            return out

        s = ir.groupby("g", sort=True)["hist"].agg(m)
        return pd.DataFrame({"g": s.index.to_numpy(), "hist": s.to_numpy()})

    def finalize(self, ir, part):
        k = part.get_int("k", 0)

        def fin(d):
            # string keys: reference outputs Map[String, Long]
            items = sorted((str(kk), vv) for kk, vv in d.items())
            if k and len(items) > k:
                items = sorted(items, key=lambda t: (-t[1], t[0]))[:k]
                items.sort()
            return items  # list[(key, count)] → arrow map

        return ir["hist"].map(fin)

    def ir_columns(self):
        return ["hist"]

    def output_arrow_type(self, in_type, part):
        return pa.map_(pa.string(), pa.int64())

    def py_update(self, ir, v, ts, part):
        if ir is None:
            ir = {}
        v = str(v)
        ir[v] = ir.get(v, 0) + 1
        return ir

    def py_delete(self, ir, v, ts, part):
        if ir is None:
            ir = {}
        v = str(v)
        ir[v] = ir.get(v, 0) - 1
        if ir[v] == 0:
            del ir[v]  # zero entries dropped (reference finalize semantics)
        return ir

    def py_clone(self, ir, part):
        return dict(ir) if ir is not None else None

    def py_merge(self, a, b, part):
        if a is None:
            return b
        if b is None:
            return a
        out = dict(a)
        for kk, vv in b.items():
            out[kk] = out.get(kk, 0) + vv
        return out

    def py_finalize(self, ir, part):
        k = part.get_int("k", 0)
        items = sorted((str(kk), vv) for kk, vv in ir.items())
        if k and len(items) > k:
            items = sorted(items, key=lambda t: (-t[1], t[0]))[:k]
            items.sort()
        return items


@_register
class HistogramOp(_HistogramBase):
    op = Operation.HISTOGRAM


@_register
class ApproxHistogramKOp(AggOp):
    """Bounded heavy-hitter histogram: exact map until > k distinct values,
    then a mergeable Misra-Gries summary capped at 2*next_pow2(k) entries
    (reference ApproxHistogram hybrid, SimpleAggregators.scala:458-600 +
    FrequentItems :375-456). Exact in the sparse regime; per-key IR size is
    bounded regardless of input cardinality. Not deletable (sketch tier
    cannot reverse updates — matches the reference monoid)."""

    op = Operation.APPROX_HISTOGRAM_K
    deletable = False

    def _k(self, part):
        return part.get_int("k", 128)

    def partial(self, df, n, part):
        from .sketches import MG

        k = self._k(part)
        # str-canonical keys at IR creation (see _HistogramBase note)
        d2 = df.copy()
        d2["v"] = d2["v"].map(str)
        cnt = d2.groupby(["g", "v"], sort=True).size()
        s = cnt.groupby(level=0, sort=True).agg(
            lambda x: MG.serialize(MG.from_exact(
                dict(zip(x.index.get_level_values(1), x.astype(int))), k))
        )
        return pd.DataFrame({"g": s.index.to_numpy(), "sketch": s.to_numpy()})

    def merge(self, ir, part):
        from .sketches import MG

        k = self._k(part)

        def m(bufs):
            out = None
            for b in bufs:
                st = MG.deserialize(b)
                out = st if out is None else MG.merge(out, st, k)
            return MG.serialize(out)

        s = ir.groupby("g", sort=True)["sketch"].agg(m)
        return pd.DataFrame({"g": s.index.to_numpy(), "sketch": s.to_numpy()})

    def finalize(self, ir, part):
        from .sketches import MG

        k = self._k(part)
        return ir["sketch"].map(lambda b: MG.finalize(MG.deserialize(b), k))

    def ir_columns(self):
        return ["sketch"]

    def output_arrow_type(self, in_type, part):
        return pa.map_(pa.string(), pa.int64())

    def py_update(self, ir, v, ts, part):
        from .sketches import MG

        if ir is None:
            ir = MG.empty()
        return MG.update(ir, str(v), self._k(part))

    def py_clone(self, ir, part):
        if ir is None:
            return None
        return ir[:1] + (dict(ir[1]),) + ir[2:]

    def py_merge(self, a, b, part):
        from .sketches import MG

        if a is None:
            return b
        if b is None:
            return a
        return MG.merge(a, b, self._k(part))

    def py_finalize(self, ir, part):
        from .sketches import MG

        return MG.finalize(ir, self._k(part))
