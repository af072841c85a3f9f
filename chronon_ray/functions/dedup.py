"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

No reference analog (the reference only has key-level dropDuplicates —
spark/Join.scala:582-585); built from the published algorithms (Broder 1997
MinHash; Charikar 2002 SimHash; Leskovec-Rajaraman-Ullman MMDS ch.3 LSH
banding) as Ray Data pipelines:

    shingle/sign per batch (stateless, vectorized numpy)
      → explode to (band, band_hash, id) rows
      → groupby(band, band_hash) emits candidate pairs
      → verify (signature-estimated or exact Jaccard)
      → connected components by iterative min-label propagation
        (a groupby per round — no driver-side union-find, so the edge set
        never has to fit on one node)

Every stage is a `map_batches`/`groupby` over Arrow; cluster output is
(id, cluster_id) where cluster_id = min id of the component.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..util import auto_partitions


def _canon_content_hash(t: pa.Table, cols: Sequence[str],
                        types_by_name: Optional[dict] = None) -> np.ndarray:
    """Block-stable, null-DISTINCT row hash of `cols`: the SAME content
    must hash identically in every block (to_pandas float-promotes int —
    and object-promotes bool — columns whenever the block carries a null,
    and hash(5.0) != hash(5) would let duplicates survive a hash-equality
    dedup), while NULL must never collide with any real value (these
    hashes gate content EQUALITY, and in incremental dedup they persist
    into day-over-day state — a sentinel fill would silently drop a
    distinct document). Int/bool columns therefore hash as
    (zero-filled values, is-null flags); the companion flag column is
    emitted even for null-free blocks so both block kinds agree.
    String/float columns pass through unchanged, so hashes for text
    content match the values stored by earlier runs.

    ``types_by_name``: the dataset-level UNIFIED types. Individual blocks
    may declare different dtypes for the same logical column (a pandas
    round trip promotes nullable int to double) — cast to the unified
    type FIRST, or a double block hashes 5.0 down the float path while an
    int block hashes (5, notnull) and the same content splits."""
    import pyarrow.compute as pc

    frame: dict = {}
    order: list = []
    for c in cols:
        a = t[c]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        want = (types_by_name or {}).get(c)
        if want is not None and a.type != want:
            try:
                a = pc.cast(a, want)
            except pa.ArrowInvalid:
                # genuinely unrepresentable content (e.g. 5.5 against a
                # persisted int64 canon) — such values can never collide
                # with persisted hashes anyway; hash the block's own type
                pass
        if pa.types.is_integer(a.type) or pa.types.is_boolean(a.type):
            fill = False if pa.types.is_boolean(a.type) \
                else pa.scalar(0, type=a.type)
            frame[c] = pc.fill_null(a, fill).to_pandas()
            nc = f"{c}\0isnull"
            frame[nc] = pc.is_null(a).to_pandas()
            order.extend([c, nc])
        else:
            frame[c] = a.to_pandas()
            order.append(c)
    pdf = pd.DataFrame(frame)
    return pd.util.hash_pandas_object(pdf[order], index=False).to_numpy()


# --------------------------------------------------------------- exact


def exact_dedup(
    ds: ray.data.Dataset,
    on: Sequence[str],
    id_col: str,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Keep one row per distinct `on` values — the one with the minimum id
    (hash-partition by content hash → per-group first)."""
    if num_partitions is None:
        num_partitions = auto_partitions(ds)
    from ..util import dataset_schema

    sch = dataset_schema(ds)
    on_types = {c: sch.field(c).type for c in on}

    def add_hash(batch: pa.Table) -> pa.Table:
        # strip pandas-origin schema metadata (unhashable → defeats the
        # sort exchange's schema-dedup) and hash against the UNIFIED
        # dataset types so dtype-divergent blocks agree on content
        if batch.schema.metadata:
            batch = batch.replace_schema_metadata(None)
        h = _canon_content_hash(batch, on, on_types)
        batch = batch.append_column("_h", pa.array(h.astype(np.int64)))
        return batch.append_column(
            "_part", pa.array((h % num_partitions).astype(np.int64)))

    def keep_first(pdf: pd.DataFrame) -> pa.Table:
        pdf = pdf.sort_values([*on, id_col], kind="stable")
        out = pdf.drop_duplicates(list(on), keep="first")
        out = out.drop(columns=["_h", "_part"])
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    keep_first.__name__ = "keep_first"
    tagged = ds.map_batches(add_hash, batch_format="pyarrow")
    return tagged.groupby("_part").map_groups(keep_first, batch_format="pandas")


# ------------------------------------------------------------- shingles


def _char_shingles(texts: "pd.Series", k: int) -> list[np.ndarray]:
    """k-char shingle hash sets per doc (vectorized per doc via numpy strides)."""
    out = []
    for t in texts:
        if t is None or len(t) < k:
            out.append(np.array([], dtype=np.uint64))
            continue
        b = np.frombuffer(t.encode("utf-8", "ignore"), dtype=np.uint8)
        if len(b) < k:
            out.append(np.array([], dtype=np.uint64))
            continue
        win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
        weights = np.power(np.uint64(31), np.arange(k, dtype=np.uint64),
                           dtype=np.uint64)
        h = (win * weights).sum(axis=1)
        h = h * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        out.append(np.unique(h))
    return out


_MERSENNE = (1 << 61) - 1


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — no per-value bin().count()."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


def _perm_params(num_perm: int, seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _minhash_sig_batch(shingle_list: list[np.ndarray], a: np.ndarray,
                       b: np.ndarray, chunk_shingles: int = 8192) -> np.ndarray:
    """Batched signatures: one (P, ΣS) matmul per chunk of docs +
    ``np.minimum.reduceat`` at doc offsets — identical arithmetic (and thus
    identical signatures) to the per-doc loop, without the per-doc python
    dispatch. The chunk bounds the (P, chunk) uint64 temporaries to ~8 MB so
    the mul/add/mod pipeline stays in cache — measured 10-20× faster than a
    64 MB working set, which thrashes L3 (and, with many concurrent workers,
    memory bandwidth)."""
    n = len(shingle_list)
    P = len(a)
    sigs = np.full((n, P), np.iinfo(np.uint64).max, dtype=np.uint64)
    lengths = np.array([len(s) for s in shingle_list], dtype=np.int64)
    i = 0
    while i < n:
        j = i
        tot = 0
        while j < n and (tot == 0 or tot + lengths[j] <= chunk_shingles):
            tot += int(lengths[j])
            j += 1
        nonempty = [k for k in range(i, j) if lengths[k] > 0]
        if nonempty:
            flat = np.concatenate([shingle_list[k] for k in nonempty])
            x = flat.astype(np.uint64) % np.uint64(_MERSENNE)
            prod = (x[None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
            offs = np.concatenate(
                [[0], np.cumsum(lengths[nonempty])[:-1]]).astype(np.int64)
            mins = np.minimum.reduceat(prod, offs, axis=1)  # (P, len(nonempty))
            sigs[nonempty, :] = mins.T
        i = j
    return sigs


def _tile_array(arr, times: int) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pa.concat_arrays([arr] * times)


class _MinHashTagged:
    """One pass over docs → tagged union of LEAN band rows (band ≥ 0:
    id, band, band_hash, sig=null) and ONE signature row per doc
    (band = -1, sig=list<int64>). Unlike the replicated layout, the full
    num_perm signature is emitted once, not once per band — the band
    exchange ships ~20 B/doc/band instead of ~1 KB/doc/band."""

    def __init__(self, text_col: str, id_col: str, num_perm: int = 128,
                 bands: int = 16, shingle_k: int = 5):
        assert num_perm % bands == 0
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        sh = _char_shingles(texts, self.k)
        sigs = _minhash_sig_batch(sh, self.a, self.b)
        r = self.rows_per_band
        n = len(texts)
        band_hash = np.empty((n, self.bands), dtype=np.int64)
        for bi in range(self.bands):
            seg = sigs[:, bi * r:(bi + 1) * r]
            hh = np.zeros(n, dtype=np.uint64)
            for c in range(r):
                hh = hh * np.uint64(1099511628211) + seg[:, c]
            band_hash[:, bi] = (hh >> np.uint64(1)).astype(np.int64)
        offsets = np.arange(0, (n + 1) * self.num_perm, self.num_perm,
                            dtype=np.int32)
        sig_list = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(sigs.view(np.int64).reshape(-1)))
        return pa.table({
            self.id_col: pa.concat_arrays([_tile_array(ids, self.bands), ids]),
            "band": pa.array(np.concatenate([
                np.repeat(np.arange(self.bands, dtype=np.int32), n),
                np.full(n, -1, dtype=np.int32)])),
            "band_hash": pa.array(np.concatenate([
                band_hash.T.reshape(-1), np.zeros(n, dtype=np.int64)])),
            "sig": pa.concat_arrays([
                pa.nulls(n * self.bands, pa.list_(pa.int64())), sig_list]),
        })


class _BandBucketCandidates:
    """One hash partition of lean (band, band_hash) buckets → raw candidate
    id pairs (a < b), no signatures. Pair emission per bucket is a single
    triu_indices gather — no python pair loop.

    Buckets larger than ``star_cutoff`` ids emit STAR edges to the bucket's
    min-id canonical instead of all O(m²) pairs: a web-scale duplicate
    cluster of 10⁶ docs yields 10⁶−1 edges per band instead of ~5·10¹¹.
    Star edges keep every bucket member connected to its canonical, which
    is exactly what the downstream dedup (connected components / canonical
    election) consumes. Truncation is OPT-IN at the pipeline level
    (minhash_lsh_pairs star_cutoff=None by default) and logged per
    collapsed bucket so a shrunken verified-pair set is always visible."""

    def __init__(self, id_col: str, id_dtype=np.int64,
                 star_cutoff: int = 1024):
        self.__name__ = type(self).__name__
        self.id_col = id_col
        self.id_dtype = id_dtype
        self.star_cutoff = star_cutoff

    def __call__(self, pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype=self.id_dtype),
                              "b": pd.Series(dtype=self.id_dtype)})
        if len(pdf) < 2:
            return empty
        order, bounds = _bucket_bounds([
            pdf["band"].to_numpy().astype(np.int64),
            pdf["band_hash"].to_numpy()])
        ids_all = pdf[self.id_col].to_numpy()
        out_a, out_b = [], []
        for s, e in bounds[(bounds[:, 1] - bounds[:, 0]) >= 2]:
            ids = np.unique(ids_all[order[s:e]])
            if len(ids) < 2:
                continue
            if len(ids) > self.star_cutoff:
                import logging

                logging.getLogger(__name__).warning(
                    "minhash LSH bucket with %d ids star-collapsed to %d "
                    "canonical edges (star_cutoff=%d): connectivity kept, "
                    "full pair set truncated", len(ids), len(ids) - 1,
                    self.star_cutoff)
                out_a.append(np.full(len(ids) - 1, ids[0],
                                     dtype=ids.dtype))
                out_b.append(ids[1:])
                continue
            i, j = np.triu_indices(len(ids), k=1)
            out_a.append(ids[i])
            out_b.append(ids[j])
        if not out_a:
            return empty
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b)})


def _attach_sigs_and_estimate(
    pairs: ray.data.Dataset,
    sig_rows: ray.data.Dataset,
    id_col: str,
    threshold: float,
    num_partitions: int,
    id_type: pa.DataType = None,
) -> ray.data.Dataset:
    """Distributed signature verification: pairs explode into two keyed
    halves, co-partitioned with the (one-copy) signature table; a second
    tiny exchange on (a, b) reunites the halves and computes the estimate.
    Signatures cross ONE exchange once each; no driver collection."""

    idt = id_type or pa.int64()
    int_ids = pa.types.is_integer(idt)

    def explode(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks() if isinstance(t["a"], pa.ChunkedArray) else t["a"]
        b = t["b"].combine_chunks() if isinstance(t["b"], pa.ChunkedArray) else t["b"]
        n = len(a)
        return pa.table({
            "key": pa.concat_arrays([a, b]),
            "slot": pa.array(np.repeat(np.array([0, 1], np.int8), n)),
            "a": pa.concat_arrays([a, a]),
            "b": pa.concat_arrays([b, b]),
            "sig": pa.nulls(2 * n, pa.list_(pa.int64())),
        })

    explode.__name__ = "explode_pair_halves"

    def tag_sigs(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "key": t[id_col],
            "slot": pa.array(np.full(n, -1, dtype=np.int8)),
            "a": pa.nulls(n, idt),
            "b": pa.nulls(n, idt),
            "sig": t["sig"],
        })

    tag_sigs.__name__ = "tag_sig_rows"

    u = pairs.map_batches(explode, batch_format="pyarrow") \
        .union(sig_rows.map_batches(tag_sigs, batch_format="pyarrow"))
    u = _partition_by_hash(u, ["key"], num_partitions)

    pd_id = np.int64 if int_ids else object

    def attach(pdf: pd.DataFrame) -> pd.DataFrame:
        halves = pdf[pdf["slot"] >= 0]
        sigs = pdf[pdf["slot"] < 0][["key", "sig"]]
        if not len(halves):
            return pd.DataFrame({"a": pd.Series(dtype=pd_id),
                                 "b": pd.Series(dtype=pd_id),
                                 "slot": pd.Series(dtype=np.int8),
                                 "sig": pd.Series(dtype=object)})
        out = halves[["key", "slot", "a", "b"]].merge(sigs, on="key")
        out = out[["a", "b", "slot", "sig"]]
        if int_ids:
            # null id cells from sig rows degrade the column to float64
            # in pandas — restore exact int64 (ids < 2^53)
            out = out.astype({"a": np.int64, "b": np.int64})
        return out

    attach.__name__ = "attach_sigs"
    attached = u.groupby("_part").map_groups(attach, batch_format="pandas")
    attached = _partition_by_hash(attached, ["a", "b"], num_partitions)

    def estimate(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype=pd_id),
                              "b": pd.Series(dtype=pd_id),
                              "jaccard": pd.Series(dtype=np.float64)})
        if not len(pdf):
            return empty
        pdf = pdf.sort_values(["a", "b", "slot"], kind="mergesort")
        S = np.stack([np.asarray(s, dtype=np.int64)
                      for s in pdf["sig"].to_numpy()])
        est = (S[0::2] == S[1::2]).mean(axis=1)
        keep = est >= threshold
        return pd.DataFrame({"a": pdf["a"].to_numpy()[0::2][keep],
                             "b": pdf["b"].to_numpy()[0::2][keep],
                             "jaccard": est[keep]})

    estimate.__name__ = "estimate_pairs"
    return attached.groupby("_part").map_groups(estimate,
                                                batch_format="pandas")


def _bucket_bounds(bucket_cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bucket grouping: rows → (sort order, bucket boundaries).

    A Ray-level ``groupby(bucket).map_groups`` pays a per-group UDF dispatch
    — ruinous when almost every bucket is a singleton (LSH bands). Instead
    the caller hash-partitions buckets into ~num_partitions groups and this
    helper finds bucket boundaries inside one partition in O(n log n) numpy."""
    key = np.stack([np.asarray(c) for c in bucket_cols], axis=1)
    order = np.lexsort(tuple(key[:, i] for i in range(key.shape[1] - 1, -1, -1)))
    sk = key[order]
    change = np.empty(len(sk), dtype=bool)
    change[0] = True
    np.not_equal(sk[1:], sk[:-1]).any(axis=1, out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(sk))
    return order, np.stack([starts, ends], axis=1)


def _partition_by_hash(ds: ray.data.Dataset, cols: list[str],
                       num_partitions: int) -> ray.data.Dataset:
    """Append ``_part`` = stable row-hash of `cols` % num_partitions."""

    def addp(t: pa.Table) -> pa.Table:
        # pandas-origin blocks arrive with pandas schema metadata (via
        # Ray's from_pandas conversion) — strip it so the downstream sort
        # exchange unifies hashable schemas (schema-dedup fast path)
        t = t.replace_schema_metadata(None) if t.schema.metadata else t
        h = _canon_content_hash(t, cols)
        return t.append_column(
            "_part", pa.array((h % num_partitions).astype(np.int64)))

    addp.__name__ = "add_part"
    return ds.map_batches(addp, batch_format="pyarrow")


def _dedup_pairs_ds(pairs: ray.data.Dataset,
                    num_partitions: int = 64) -> ray.data.Dataset:
    """Keep one row per (a, b): identical pairs hash to the same partition,
    so a per-partition drop_duplicates is exact. Bounded group count (the
    partitions), unlike a groupby("a") over every distinct left id."""

    def dd(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates(["a", "b"]).drop(columns=["_part"])

    dd.__name__ = "dedup_pairs"
    return _partition_by_hash(pairs, ["a", "b"], num_partitions) \
        .groupby("_part").map_groups(dd, batch_format="pandas")


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    concurrency: int | None = None,
    small_mode_cutoff: int = 100_000,
    star_cutoff: int | None = None,
) -> ray.data.Dataset:
    """Near-duplicate candidate pairs (a, b, jaccard-estimate), deduplicated.

    ``star_cutoff``: OPT-IN scale guard (default None = exact full pair
    emission). When set, band buckets larger than the cutoff emit star
    edges to the bucket's min-id canonical instead of all O(m²) pairs (a
    10⁶-doc dup cluster yields 10⁶−1 edges per band, not ~5·10¹¹). Star
    edges preserve dedup-cluster connectivity through the canonical; they
    do NOT preserve the full verified pair SET above the cutoff (a member
    pair whose star edge fails the jaccard threshold is not re-checked),
    which is why truncation is opt-in and logged per collapsed bucket —
    at 100-TB scale pass e.g. star_cutoff=1024, keeping work linear in
    bucket size.

    Lean-exchange plan: ONE minhash pass emits 20-byte band rows (×bands)
    plus the full signature ONCE per doc (tagged union, materialized so the
    band and signature consumers don't recompute the pass). Candidates come
    from a (band, band_hash) bucket exchange of band rows only; the few
    surviving pairs are verified against signatures either driver-side
    (small mode, bounded by `small_mode_cutoff` ids) or through a
    co-partitioned halves/signatures exchange — signatures cross a shuffle
    exactly once, vs once per band in a replicated layout (~16× fewer
    exchange bytes at the defaults)."""
    kw = dict(text_col=text_col, id_col=id_col, num_perm=num_perm, bands=bands,
              shingle_k=shingle_k)
    if concurrency:
        tagged = ds.map_batches(_MinHashTagged, fn_constructor_kwargs=kw,
                                batch_format="pyarrow",
                                concurrency=concurrency)
    else:  # plain tasks — cheap init, no CPU reservation
        tagged = ds.map_batches(_MinHashTagged(**kw), batch_format="pyarrow")
    tagged = tagged.materialize()
    nparts = auto_partitions(ds)
    from ..util import arrow_type_of
    dsch = ds.schema()
    idt = arrow_type_of(dict(zip(dsch.names, dsch.types))[id_col])
    pd_id = np.int64 if pa.types.is_integer(idt) else object

    def bands_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater_equal(t["band"], 0)).drop_columns(["sig"])

    bands_only.__name__ = "bands_only"

    def sigs_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.equal(t["band"], -1)).select([id_col, "sig"])

    sigs_only.__name__ = "sigs_only"

    band_rows = _partition_by_hash(
        tagged.map_batches(bands_only, batch_format="pyarrow"),
        ["band", "band_hash"], nparts)
    cand = band_rows.groupby("_part").map_groups(
        _BandBucketCandidates(id_col, id_dtype=pd_id,
                              star_cutoff=star_cutoff
                              if star_cutoff is not None else 2**62),
        batch_format="pandas")
    pairs = _dedup_pairs_ds(cand).materialize()  # tiny: unique (a, b)
    sig_rows = tagged.map_batches(sigs_only, batch_format="pyarrow")

    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_pandas(pd.DataFrame({
            "a": pd.Series(dtype=pd_id), "b": pd.Series(dtype=pd_id),
            "jaccard": pd.Series(dtype=np.float64)}))
    if 2 * n_pairs <= small_mode_cutoff:
        # small mode (reference small_mode_cutoff analog): the candidate id
        # set is tiny — broadcast it, stream-filter the sig table, and
        # estimate on the driver over ≤ cutoff signatures.
        pp = pairs.to_pandas()
        idset = ray.put(set(pp["a"]) | set(pp["b"]))

        def flt(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            wanted = ray.get(idset)
            mask = pc.is_in(t[id_col],
                            value_set=pa.array(list(wanted), idt))
            return t.filter(mask)

        flt.__name__ = "filter_pair_sigs"
        sp = sig_rows.map_batches(flt, batch_format="pyarrow").to_pandas()
        sig_of = dict(zip(sp[id_col],
                          (np.asarray(s, np.int64) for s in sp["sig"])))
        A = np.stack([sig_of[x] for x in pp["a"]])
        B = np.stack([sig_of[x] for x in pp["b"]])
        est = (A == B).mean(axis=1)
        keep = est >= threshold
        return ray.data.from_pandas(pd.DataFrame({
            "a": pp["a"].to_numpy()[keep], "b": pp["b"].to_numpy()[keep],
            "jaccard": est[keep]}))
    return _attach_sigs_and_estimate(pairs, sig_rows, id_col, threshold,
                                     nparts, id_type=idt)


def _label_checksum(labels: ray.data.Dataset) -> int:
    """Order-insensitive content hash of (node, label) rows — equal across
    rounds ⇔ converged (w.h.p.). One cheap pass over materialized blocks."""

    def block_sum(t: pa.Table) -> pa.Table:
        pdf = t.select(["node", "label"]).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return pa.table({"s": pa.array([int(h.astype(np.uint64).sum()) & 0x7FFFFFFFFFFFFFFF])})

    return labels.map_batches(block_sum, batch_format="pyarrow").sum("s")


class _PropagatePartition:
    """One co-partitioned round: rows are either label rows (node,label) or
    edge rows (src=node, dst); emits min label per node ∪ propagated labels
    to edge destinations. Vectorized pandas within the partition."""

    __name__ = "PropagatePartition"

    def __call__(self, pdf: pd.DataFrame) -> pa.Table:
        lab = pdf[pdf["_kind"] == 0][["node", "label"]]
        edg = pdf[pdf["_kind"] == 1][["node", "dst"]]
        cur = lab.groupby("node", sort=False)["label"].min().reset_index()
        if len(edg):
            prop = edg.merge(cur, on="node", how="inner")
            out = pd.concat([
                cur,
                pd.DataFrame({"node": prop["dst"], "label": prop["label"]}),
            ], ignore_index=True)
        else:
            out = cur
        return pa.table({"node": pa.array(out["node"].to_numpy()),
                         "label": pa.array(out["label"].to_numpy())})


def connected_components(
    pairs: ray.data.Dataset,
    ids: ray.data.Dataset,
    id_col: str,
    max_iters: int = 10,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Min-label propagation over undirected edges: every node's label
    converges to the min id in its component. Each round = ONE hash shuffle
    co-partitioning labels with the edges whose src lives in the partition
    (no driver-side union-find, no broadcast of the label table — scales to
    edge/node sets that don't fit one node). Rounds ≈ component diameter;
    near-dup components are shallow."""
    if num_partitions is None:
        num_partitions = auto_partitions(pairs)
    labels = ids.map_batches(
        lambda t: pa.table({"node": t[id_col], "label": t[id_col]}),
        batch_format="pyarrow").materialize()
    edges = pairs.map_batches(
        lambda t: pa.table({
            "node": pa.concat_arrays([_as_arr(t["a"]), _as_arr(t["b"])]),
            "dst": pa.concat_arrays([_as_arr(t["b"]), _as_arr(t["a"])]),
        }), batch_format="pyarrow")

    def tag(kind: int):
        def f(t: pa.Table) -> pa.Table:
            pdf = t.select(["node"]).to_pandas()
            part = (stable_hash_series(pdf["node"]) % num_partitions).astype(np.int64)
            cols = {"node": t["node"],
                    "dst": t["dst"] if kind == 1 else pa.nulls(len(t), t["node"].type),
                    "label": t["label"] if kind == 0 else pa.nulls(len(t), t["node"].type),
                    "_kind": pa.array(np.full(len(t), kind, dtype=np.int8)),
                    "_part": pa.array(part)}
            return pa.table(cols)
        f.__name__ = f"tag{kind}"
        return f

    edges_tagged = edges.map_batches(tag(1), batch_format="pyarrow").materialize()
    prev_sum = _label_checksum(labels)
    for _ in range(max_iters):
        lab_tagged = labels.map_batches(tag(0), batch_format="pyarrow")
        merged = lab_tagged.union(edges_tagged)
        # propagated labels land at dst nodes → second pass min per node
        prop = merged.groupby("_part").map_groups(
            _PropagatePartition(), batch_format="pandas")

        def min_per_node(pdf: pd.DataFrame) -> pa.Table:
            m = pdf.groupby("node", sort=False)["label"].min().reset_index()
            return pa.table({"node": pa.array(m["node"].to_numpy()),
                             "label": pa.array(m["label"].to_numpy())})

        min_per_node.__name__ = "min_per_node"
        # propagated labels land at dst nodes in other partitions → hash
        # co-partition on node (bounded group count), min inside each
        labels = _partition_by_hash(prop, ["node"], num_partitions) \
            .groupby("_part").map_groups(
                min_per_node, batch_format="pandas").materialize()
        new_sum = _label_checksum(labels)
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    return labels.map_batches(
        lambda t: pa.table({id_col: t["node"], "cluster_id": t["label"]}),
        batch_format="pyarrow")


def stable_hash_series(s: pd.Series) -> np.ndarray:
    return pd.util.hash_pandas_object(s, index=False).to_numpy()


def _as_arr(c):
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


def minhash_dedup(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    threshold: float = 0.7,
    **kw,
) -> ray.data.Dataset:
    """(id, cluster_id) near-dup clusters; cluster representative = min id."""
    pairs = minhash_lsh_pairs(ds, text_col, id_col, threshold=threshold, **kw)
    ids = ds.map_batches(lambda t: t.select([id_col]), batch_format="pyarrow")
    return connected_components(pairs, ids, id_col)


# -------------------------------------------------------------- SimHash


class SimHashStage:
    """64-bit SimHash over char-shingle hashes; near-dups share band values.
    (Charikar 2002; banding over 4×16-bit chunks for hamming ≤ 3-ish.)"""

    def __init__(self, text_col: str, id_col: str, shingle_k: int = 5,
                 n_bands: int = 4):
        self.text_col, self.id_col, self.k = text_col, id_col, shingle_k
        self.n_bands = n_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        sh = _char_shingles(texts, self.k)
        out = np.zeros(len(texts), dtype=np.uint64)
        for i, s in enumerate(sh):
            if len(s) == 0:
                continue
            bits = ((s[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)).astype(np.int64)
            score = bits.sum(axis=0) * 2 - len(s)
            sim = (score > 0).astype(np.uint64)
            out[i] = (sim << np.arange(64, dtype=np.uint64)).sum()
        cols = {self.id_col: batch[self.id_col],
                "simhash": pa.array(out.astype(np.int64))}
        width = 64 // self.n_bands
        for bi in range(self.n_bands):
            band = (out >> np.uint64(bi * width)) & np.uint64((1 << width) - 1)
            cols[f"simband_{bi}"] = pa.array(band.astype(np.int64))
        return pa.table(cols)


def simhash_pairs(ds: ray.data.Dataset, text_col: str, id_col: str,
                  max_hamming: int = 3, shingle_k: int = 5,
                  concurrency: int | None = None) -> ray.data.Dataset:
    """Candidate near-dup pairs by simhash banding, verified by hamming
    distance (pigeonhole over 4 bands ⇒ recalls all pairs with ≤3 bits)."""
    n_bands = 4
    kw = dict(text_col=text_col, id_col=id_col, shingle_k=shingle_k, n_bands=n_bands)
    if concurrency:
        sigs = ds.map_batches(SimHashStage, fn_constructor_kwargs=kw,
                              batch_format="pyarrow", concurrency=concurrency)
    else:
        sigs = ds.map_batches(SimHashStage(**kw), batch_format="pyarrow")

    def melt(t: pa.Table) -> pa.Table:
        # wide (simband_0..n) → long (band, band_hash) rows: ONE shuffle for
        # all bands instead of one groupby per band
        n = len(t)
        ids = _as_arr(t[id_col])
        hs = _as_arr(t["simhash"])
        return pa.table({
            id_col: pa.concat_arrays([ids] * n_bands),
            "simhash": pa.concat_arrays([hs] * n_bands),
            "band": pa.array(np.repeat(np.arange(n_bands, dtype=np.int64), n)),
            "band_hash": pa.concat_arrays(
                [_as_arr(t[f"simband_{bi}"]) for bi in range(n_bands)]),
        })

    melt.__name__ = "melt_bands"

    class _HammingPartition:
        """Buckets with ≥2 docs → pairs within max_hamming (vectorized)."""

        __name__ = "HammingPartition"

        def __call__(self, pdf: pd.DataFrame) -> pd.DataFrame:
            if len(pdf) < 2:
                return pd.DataFrame({"a": [], "b": [], "hamming": []})
            order, bounds = _bucket_bounds([
                pdf["band"].to_numpy(), pdf["band_hash"].to_numpy()])
            ids_all = pdf[id_col].to_numpy()
            hs_all = pdf["simhash"].to_numpy().astype(np.int64).view(np.uint64)
            a_, b_, d_ = [], [], []
            for s, e in bounds[(bounds[:, 1] - bounds[:, 0]) >= 2]:
                rows = order[s:e]
                uniq, first = np.unique(ids_all[rows], return_index=True)
                if len(uniq) < 2:
                    continue
                rows = rows[np.sort(first)]
                ids = ids_all[rows]
                hs = hs_all[rows]
                for i in range(len(ids) - 1):
                    dist = _popcount64(hs[i + 1:] ^ hs[i])
                    hit = np.flatnonzero(dist <= max_hamming)
                    for j in hit:
                        x1, y1 = ids[i], ids[i + 1 + j]
                        if x1 > y1:
                            x1, y1 = y1, x1
                        a_.append(x1)
                        b_.append(y1)
                        d_.append(int(dist[j]))
            return pd.DataFrame({"a": a_, "b": b_, "hamming": d_})

    long = _partition_by_hash(
        sigs.map_batches(melt, batch_format="pyarrow"),
        ["band", "band_hash"], auto_partitions(ds))
    pairs = long.groupby("_part").map_groups(
        _HammingPartition(), batch_format="pandas")
    return _dedup_pairs_ds(pairs)


# ----------------------------------------------------- n-gram Jaccard


def ngram_jaccard_pairs(ds: ray.data.Dataset, text_col: str, id_col: str,
                        shingle_k: int = 5, threshold: float = 0.8,
                        concurrency: int | None = None,
                        num_partitions: Optional[int] = None,
                        broadcast_limit: int = 2_000_000) -> ray.data.Dataset:
    """Exact Jaccard verification over MinHash-LSH candidates, fully
    distributed: candidate pairs are co-partitioned with per-doc shingle
    sets in two hash shuffles (one per pair side) — nothing corpus-derived
    is collected on the driver.

    When the candidate id set is small (≤ broadcast_limit) it is broadcast
    via ``ray.put`` once and the shingle stream is semi-join-filtered
    before the shuffle, so only candidate docs' shingles move."""
    if num_partitions is None:
        # shingle streams blow text up ~shingle_k-fold through the exchange
        num_partitions = auto_partitions(ds, expansion=float(shingle_k))
    from ..pipelines.assembly import key_partitioned_join

    cands = minhash_lsh_pairs(ds, text_col, id_col, threshold=threshold * 0.8,
                              concurrency=concurrency)
    cands = cands.map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow").materialize()
    n_cands = cands.count()
    if n_cands == 0:
        from ..util import dataset_schema

        id_type = dataset_schema(ds).field(id_col).type
        return ray.data.from_arrow(pa.table({
            "a": pa.array([], type=id_type),
            "b": pa.array([], type=id_type),
            "jaccard": pa.array([], type=pa.float64())}))

    def shingle_stage(batch: pa.Table) -> pa.Table:
        pdf = batch.select([id_col, text_col]).to_pandas()
        sh = _char_shingles(pdf[text_col], shingle_k)
        return pa.table({
            "_sid": pa.array(pdf[id_col].to_numpy(dtype=object)),
            "_sh": pa.array([s.tolist() for s in sh],
                            type=pa.list_(pa.uint64()))})

    sh = ds.map_batches(shingle_stage, batch_format="pyarrow")
    if n_cands * 2 <= broadcast_limit:
        ids = set()
        for b in cands.iter_batches(batch_format="pyarrow"):
            ids.update(b["a"].to_pylist())
            ids.update(b["b"].to_pylist())
        ids_ref = ray.put(ids)

        class SemiFilter:
            def __init__(self):
                self._ids = None

            def __call__(self, t: pa.Table) -> pa.Table:
                if self._ids is None:
                    self._ids = ray.get(ids_ref)
                m = pa.array([v in self._ids
                              for v in t["_sid"].to_pylist()])
                return t.filter(m)

        # materialize the filtered (candidate-only, small) shingle set so
        # the two join sides don't recompute the full shingle scan twice
        sh = sh.map_batches(SemiFilter, batch_format="pyarrow",
                            concurrency=2).materialize()
    else:
        # distributed path: both join sides consume `sh` — without a
        # materialize the full corpus shingle scan would execute twice
        sh = sh.materialize()

    # side A: pairs keyed on a ⋈ shingles keyed on _sid (one shuffle)
    c1 = cands.map_batches(
        lambda t: t.rename_columns(["_sid", "b"]), batch_format="pyarrow")
    p1 = key_partitioned_join(c1, [sh], keys=["_sid"], how="inner",
                              num_partitions=num_partitions)
    p1 = p1.map_batches(
        lambda t: t.rename_columns(
            ["a" if c == "_sid" else ("_sh_a" if c == "_sh" else c)
             for c in t.column_names]), batch_format="pyarrow")
    # side B: same co-partition trick on b
    c2 = p1.map_batches(
        lambda t: t.rename_columns(["_sid" if c == "b" else c
                                    for c in t.column_names]),
        batch_format="pyarrow")
    p2 = key_partitioned_join(c2, [sh], keys=["_sid"], how="inner",
                              num_partitions=num_partitions)

    def verify(t: pa.Table) -> pa.Table:
        """Row-wise |A ∩ B| for all candidate pairs in one vectorized pass:
        stack (row, shingle) keys of both sides; a key appearing twice is a
        shared shingle (each side's set is unique by construction)."""
        id_type = t.schema.field("a").type
        n = len(t)
        if n == 0:
            return pa.table({"a": pa.array([], type=id_type),
                             "b": pa.array([], type=id_type),
                             "jaccard": pa.array([], type=pa.float64())})

        def rows_vals(col):
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lens = pc.list_value_length(col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            vals = pc.list_flatten(col).to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(n, dtype=np.int64), lens)
            return rows, vals.view(np.int64), lens

        ra, va, la = rows_vals(t["_sh_a"])
        rb, vb, lb = rows_vals(t["_sh"])
        allk = np.concatenate([np.stack([ra, va], axis=1),
                               np.stack([rb, vb], axis=1)])
        uniq, counts = np.unique(allk, axis=0, return_counts=True)
        ix = np.bincount(uniq[counts == 2][:, 0], minlength=n).astype(np.int64)
        denom = la + lb - ix
        with np.errstate(invalid="ignore", divide="ignore"):
            j = np.where(denom > 0, ix / np.maximum(denom, 1), 0.0)
        mask = (j >= threshold) & (la > 0) & (lb > 0)
        sel = pa.array(mask)
        return pa.table({"a": t["a"].filter(sel),
                         "b": t["_sid"].filter(sel),
                         "jaccard": pa.array(j[mask], type=pa.float64())})

    return p2.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------------ embedding near-dup


class CosineBucketStage:
    """Random-hyperplane LSH signatures for unit-normalized embeddings
    (Charikar 2002 SRP-LSH), **multi-table**: each doc gets one bucket per
    hash table (independent plane sets), so a near-dup pair missed by one
    table's cut is caught by another — single-table SRP recall collapses at
    scale. Emits n_tables rows per doc; candidates are verified by exact
    cosine inside each (table, bucket) group."""

    def __init__(self, emb_col: str, id_col: str, n_planes: int = 16, dim: int = 64,
                 n_tables: int = 4, seed: int = 7):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.planes = rng.normal(size=(n_tables, dim, n_planes))
        self.n_tables = n_tables
        self.emb_col, self.id_col = emb_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = np.stack(batch[self.emb_col].to_pandas().to_numpy())
        n = len(emb)
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        embs = batch[self.emb_col]
        if isinstance(embs, pa.ChunkedArray):
            embs = embs.combine_chunks()
        sigs = np.empty((self.n_tables, n), dtype=np.int64)
        for t in range(self.n_tables):
            proj = emb @ self.planes[t]
            bits = (proj > 0).astype(np.uint64)
            sig = (bits << np.arange(bits.shape[1], dtype=np.uint64)).sum(axis=1)
            sigs[t] = sig.astype(np.int64)
        return pa.table({
            self.id_col: pa.concat_arrays([ids] * self.n_tables),
            "table": pa.array(np.repeat(np.arange(self.n_tables,
                                                  dtype=np.int32), n)),
            "bucket": pa.array(sigs.reshape(-1)),
            self.emb_col: pa.concat_arrays([embs] * self.n_tables),
        })


def embedding_neardup_pairs(ds: ray.data.Dataset, emb_col: str, id_col: str,
                            threshold: float = 0.95, n_planes: int = 12,
                            dim: int = 64, n_tables: int = 4,
                            concurrency: int | None = None) -> ray.data.Dataset:
    """Exact-cosine-verified near-dup pairs from multi-table SRP-LSH
    candidates. Output pairs are canonical (a < b) and deduplicated across
    tables/buckets with a per-a groupby (no driver collection)."""
    kw = dict(emb_col=emb_col, id_col=id_col, n_planes=n_planes, dim=dim,
              n_tables=n_tables)
    if concurrency:
        sigs = ds.map_batches(CosineBucketStage, fn_constructor_kwargs=kw,
                              batch_format="pyarrow", concurrency=concurrency)
    else:
        sigs = ds.map_batches(CosineBucketStage(**kw), batch_format="pyarrow")

    class _CosPartition:
        """Buckets with ≥2 docs → exact-cosine-verified pairs (vectorized)."""

        __name__ = "CosPartition"

        def __call__(self, pdf: pd.DataFrame) -> pd.DataFrame:
            if len(pdf) < 2:
                return pd.DataFrame({"a": [], "b": [], "cosine": []})
            order, bounds = _bucket_bounds([
                pdf["table"].to_numpy().astype(np.int64),
                pdf["bucket"].to_numpy()])
            ids_all = pdf[id_col].to_numpy()
            emb_all = pdf[emb_col].to_numpy()
            frames = []
            for s, e in bounds[(bounds[:, 1] - bounds[:, 0]) >= 2]:
                rows = order[s:e]
                uniq, first = np.unique(ids_all[rows], return_index=True)
                if len(uniq) < 2:
                    continue
                rows = rows[np.sort(first)]
                ids = ids_all[rows]
                m = np.stack([np.asarray(emb_all[r]) for r in rows])
                m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                                   1e-12)
                sim = m @ m.T
                iu = np.triu_indices(len(ids), k=1)
                hits = sim[iu] >= threshold
                if not hits.any():
                    continue
                aa, bb = ids[iu[0][hits]], ids[iu[1][hits]]
                swap = aa > bb
                frames.append(pd.DataFrame({
                    "a": np.where(swap, bb, aa),
                    "b": np.where(swap, aa, bb),
                    "cosine": sim[iu][hits]}))
            if not frames:
                return pd.DataFrame({"a": [], "b": [], "cosine": []})
            return pd.concat(frames, ignore_index=True)

    bucketed = _partition_by_hash(sigs, ["table", "bucket"],
                                  auto_partitions(ds))
    pairs = bucketed.groupby("_part").map_groups(
        _CosPartition(), batch_format="pandas")
    return _dedup_pairs_ds(pairs)


# --------------------------------------- corpus-wide duplicate n-grams


class _NgramEmit:
    """documents → one row per distinct (gram, doc) with its local count.

    Pre-aggregated inside the batch (a doc's text lives in one row, so a
    (gram, doc) pair never spans batches — the emitted rows are globally
    unique), which is the map-side combine that keeps the shuffle at
    distinct-gram volume instead of occurrence volume.

    Arrow in / Arrow out: the tokens are the maximal ``[a-z0-9]`` runs of
    ``utf8_lower(text)`` (``split_pattern_regex`` on the complement).
    ``utf8_lower`` applies the per-codepoint simple Unicode case mapping;
    the old ``re.findall("[a-z0-9]+", text.lower())`` path applied
    Python's full mapping. The two token streams agree except where the
    full mapping expands a codepoint: U+0130 lowers to 'i' + U+0307 under
    it, so 'İstanbul' tokenizes to 'istanbul' here and to 'i', 'stanbul'
    there. Gram strings assemble via ``binary_join_element_wise`` over
    shifted takes of the flat word array, and the per-(doc, gram) combine
    is an Arrow ``group_by`` — no pandas object columns anywhere in the
    emit path."""

    def __init__(self, text_col: str, id_col: str, n: int):
        self.__name__ = type(self).__name__
        self.text_col, self.id_col, self.n = text_col, id_col, n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids_arr = batch[self.id_col]
        if isinstance(ids_arr, pa.ChunkedArray):
            ids_arr = ids_arr.combine_chunks()
        empty = pa.table({"gram": pa.array([], pa.string()),
                          "doc": pa.array([], ids_arr.type),
                          "cnt": pa.array([], pa.int64())})
        if len(batch) == 0:
            return empty
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(pc.cast(pc.utf8_lower(texts), pa.string()), "")
        toks = pc.split_pattern_regex(texts, "[^a-z0-9]+")
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(flat, "")
        ne = nonempty.to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(ne)])
        wc = cs[offs[1:]] - cs[offs[:-1]]          # words per doc
        W = flat.filter(nonempty)                  # compacted word array
        new_off = np.concatenate([[0], np.cumsum(wc)])
        m = np.maximum(wc - self.n + 1, 0)         # grams per doc
        total = int(m.sum())
        if total == 0:
            return empty
        doc_idx = np.repeat(np.arange(len(wc)), m)
        cum = np.concatenate([[0], np.cumsum(m)[:-1]])
        starts = (np.arange(total) - cum[doc_idx]) + new_off[doc_idx]
        cols = [W.take(pa.array(starts + k)) for k in range(self.n)]
        gram = (cols[0] if self.n == 1
                else pc.binary_join_element_wise(*cols, " "))
        t = pa.table({"gram": gram, "doc": ids_arr.take(pa.array(doc_idx))})
        agg = t.group_by(["doc", "gram"]).aggregate([("gram", "count")])
        return pa.table({"gram": agg["gram"], "doc": agg["doc"],
                         "cnt": pc.cast(agg["gram_count"], pa.int64())})


def dup_ngram_stats(ds: ray.data.Dataset, text_col: str, id_col: str,
                    n: int = 5,
                    num_partitions: Optional[int] = None) -> ray.data.Dataset:
    """Corpus-wide duplicate word-n-gram statistics per document — the
    exact-substring-dedup family (Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better") at word-n-gram granularity.

    Per doc: ``n_grams`` (total n-gram occurrences), ``n_dup_grams``
    (occurrences whose gram appears >1 time anywhere in the corpus),
    ``n_cross_doc_grams`` (occurrences whose gram appears in ≥2 distinct
    docs), and the two fractions.

    Plan: emit (gram, doc, cnt) pre-aggregated per batch → hash-partition
    by gram → per-partition vectorized transform marks duplicate grams
    (total>1 / ndocs>1) and drops the gram strings → groupby(doc) sums.
    Two shuffles; gram strings cross only the first, and only at
    distinct-(gram, doc) volume. No driver-side materialization."""
    if num_partitions is None:
        # the distinct-(gram, doc) stream is ~n words per word of text
        num_partitions = auto_partitions(ds, expansion=float(n))
    grams = ds.map_batches(_NgramEmit(text_col, id_col, n),
                           batch_format="pyarrow")
    return _dup_gram_pipeline(grams, id_col, num_partitions)


def _dup_gram_pipeline(grams: ray.data.Dataset, id_col: str,
                       num_partitions: int) -> ray.data.Dataset:
    """Shared tail of the dup-gram family: (gram, doc, cnt) → per-doc stats.
    ``gram`` may be a string (word n-grams) or an int64 hash (char grams) —
    only the first exchange carries it either way."""

    def mark(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("gram", sort=False)["cnt"]
        total = g.transform("sum").to_numpy()
        ndocs = g.transform("size").to_numpy()
        cnt = pdf["cnt"].to_numpy()
        # pre-aggregate per doc inside the partition (combiner): the next
        # exchange then carries <= docs x partitions partial rows
        return pd.DataFrame({
            "doc": pdf["doc"].to_numpy(),
            "cnt": cnt,
            "dup": np.where(total > 1, cnt, 0).astype(np.int64),
            "cross": np.where(ndocs > 1, cnt, 0).astype(np.int64),
        }).groupby("doc", sort=False).sum().reset_index()

    mark.__name__ = "mark_dup_grams"
    marked = _partition_by_hash(grams, ["gram"], num_partitions) \
        .groupby("_part").map_groups(mark, batch_format="pandas")

    def doc_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop(columns=["_part"]) \
            .groupby("doc", sort=False).sum().reset_index()

    doc_sum.__name__ = "doc_sum"
    out = _partition_by_hash(marked, ["doc"], num_partitions) \
        .groupby("_part").map_groups(doc_sum, batch_format="pandas")

    def finish(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        dup = t["dup"].to_numpy(zero_copy_only=False).astype(np.int64)
        cross = t["cross"].to_numpy(zero_copy_only=False).astype(np.int64)
        denom = np.maximum(cnt, 1)
        return pa.table({
            id_col: t["doc"],
            "n_grams": pa.array(cnt),
            "n_dup_grams": pa.array(dup),
            "n_cross_doc_grams": pa.array(cross),
            "dup_gram_frac": pa.array(np.where(cnt > 0, dup / denom, 0.0)),
            "cross_doc_gram_frac": pa.array(np.where(cnt > 0, cross / denom,
                                                     0.0)),
        })

    finish.__name__ = "finish_dup_ngrams"
    return out.map_batches(finish, batch_format="pyarrow")


_FNV_B = np.uint64(0x100000001B3)  # FNV64 prime (odd ⇒ invertible mod 2^64)
_FNV_BINV = np.uint64(pow(int(_FNV_B), -1, 1 << 64))


def _char_window_hashes(texts: "pd.Series", L: int):
    """All L-char rolling-window hashes for a batch of texts, fully
    vectorized: texts decode to UTF-32 codepoint arrays (positions/lengths
    are CHARACTER-based, matching SQL substring()); every window hash comes
    from one polynomial prefix-scan — no per-doc Python loop.
    Hash: H(i,L) = sum c[j]·b^(i+L-1-j) mod 2^64, computed as
    (S[i+L]-S[i])·b^(i+L-1) with S the binv-weighted prefix sum.

    Returns (H int64 window hashes, doc_idx window→row index, starts global
    char offset per window, lens chars per row, c flat uint32 codepoints,
    offs per-row char offsets) — or None when the batch has no windows.

    Accepts a pandas Series, a pyarrow (Chunked)Array, or a list of str —
    the Arrow emit stages feed arrays straight from the batch with no
    pandas conversion."""
    if hasattr(texts, "str"):  # pandas Series
        enc = texts.str.encode("utf-32-le").to_numpy()
    else:
        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        enc = np.empty(len(texts), dtype=object)
        for i, s in enumerate(texts):
            enc[i] = (s or "").encode("utf-32-le")
    lens = np.fromiter((len(x) >> 2 for x in enc), dtype=np.int64,
                       count=len(enc))
    n = int(lens.sum())
    if n == 0:
        return None
    c32 = np.frombuffer(b"".join(enc), dtype=np.uint32)
    c = c32.astype(np.uint64)
    with np.errstate(over="ignore"):
        binv_pows = np.concatenate(
            [[np.uint64(1)],
             np.cumprod(np.full(n - 1, _FNV_BINV, dtype=np.uint64))]) \
            if n > 1 else np.array([1], dtype=np.uint64)
        b_pows = np.concatenate(
            [[np.uint64(1)],
             np.cumprod(np.full(n - 1, _FNV_B, dtype=np.uint64))]) \
            if n > 1 else np.array([1], dtype=np.uint64)
        S = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(c * binv_pows, out=S[1:])
        counts = np.maximum(lens - L + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return None
        doc_idx = np.repeat(np.arange(len(lens)), counts)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        cum = np.concatenate([[0], np.cumsum(counts)[:-1]])
        starts = offs[doc_idx] + (np.arange(total) - cum[doc_idx])
        H = ((S[starts + L] - S[starts]) * b_pows[starts + L - 1]) \
            .view(np.int64)
    return H, doc_idx, starts, lens, c32, offs


def _pair_counts(gram: np.ndarray, ids: np.ndarray):
    """Distinct (gram, id) pairs with occurrence counts — one lexsort +
    run-length scan, no pandas object columns in the hot emit path."""
    if ids.dtype.kind in "iu":
        key2 = ids
    else:  # lexsort is unreliable on object dtype — factorize first
        _, key2 = np.unique(ids, return_inverse=True)
    order = np.lexsort((key2, gram))
    g, k = gram[order], key2[order]
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    new[1:] = (g[1:] != g[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, len(g))).astype(np.int64)
    return g[starts], ids[order][starts], cnt


class _CharGramEmit:
    """Distinct (char-L-gram rolling hash, doc, cnt) rows per batch —
    see `_char_window_hashes` for the vectorized hashing scheme.
    Arrow in / Arrow out; counting is a numpy lexsort run-length."""

    def __init__(self, text_col: str, id_col: str, L: int):
        self.__name__ = type(self).__name__
        self.text_col, self.id_col, self.L = text_col, id_col, L

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_arr = batch[self.id_col]
        if isinstance(ids_arr, pa.ChunkedArray):
            ids_arr = ids_arr.combine_chunks()
        empty = pa.table({"gram": pa.array([], pa.int64()),
                          "doc": pa.array([], ids_arr.type),
                          "cnt": pa.array([], pa.int64())})
        hw = _char_window_hashes(batch[self.text_col], self.L)
        if hw is None:
            return empty
        H, doc_idx, _, _, _, _ = hw
        ids = ids_arr.to_numpy(zero_copy_only=False)[doc_idx]
        g, d, cnt = _pair_counts(H, ids)
        return pa.table({"gram": pa.array(g),
                         "doc": pa.array(d, type=ids_arr.type),
                         "cnt": pa.array(cnt)})


def char_dup_ngram_stats(ds: ray.data.Dataset, text_col: str, id_col: str,
                         L: int = 20,
                         num_partitions: Optional[int] = None
                         ) -> ray.data.Dataset:
    """dup_ngram_stats at CHARACTER granularity (Lee et al. 2022's
    exact-substring unit): per doc, how many of its L-char windows are
    duplicated elsewhere in the corpus. Grams cross the exchange as 8-byte
    rolling hashes, never as strings — collision odds ~(distinct²)/2^65.
    Same two-shuffle co-partitioned plan as dup_ngram_stats."""
    if num_partitions is None:
        num_partitions = auto_partitions(ds, expansion=8.0)
    grams = ds.map_batches(_CharGramEmit(text_col, id_col, L),
                           batch_format="pyarrow")
    return _dup_gram_pipeline(grams, id_col, num_partitions)


# ----------------------------------------------------- dup-span removal


def remove_dup_spans(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    L: int = 20,
    num_partitions: Optional[int] = None,
    broadcast_cutoff: int = 5_000_000,
) -> ray.data.Dataset:
    """Exact-substring span REMOVAL (the rewrite step of Lee et al. 2022):
    every character covered by an L-char window that also appears in
    ANOTHER document is cut — except in the window's canonical document
    (minimum doc id), which keeps its copy. Within-doc repeats are left
    alone (that's `RepetitionSignalsStage`'s job).

    Plan: pass 1 reuses the dup-gram exchange — distinct (gram, doc) rows,
    one hash partition by gram, per-partition reduce to cross-doc grams
    with their canonical doc. That table (duplicated grams only — usually a
    small fraction of the corpus) is broadcast via `ray.put` as two sorted
    numpy arrays; pass 2 is a pure streaming map that re-derives window
    hashes per batch and cuts covered chars with one diff-array scan.

    When the dup-gram table exceeds `broadcast_cutoff`, pass 2 switches to
    the fully-distributed plan instead: all window rows co-partition with
    the dup-gram table by gram (foreign windows → (doc, pos) intervals),
    then intervals co-partition with the documents by doc for the rewrite —
    the honest Lee-et-al. cost where the corpus crosses one exchange.
    Both paths produce identical rows.

    Output: (id, text rewritten, n_chars_removed)."""
    if num_partitions is None:
        num_partitions = auto_partitions(ds, expansion=8.0)
    grams = ds.map_batches(_CharGramEmit(text_col, id_col, L),
                           batch_format="pyarrow")

    def cross_doc(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("gram", sort=False)["doc"]
        agg = g.agg(["size", "min"])
        dup = agg[agg["size"] > 1]
        return pd.DataFrame({"gram": dup.index.to_numpy(),
                             "cdoc": dup["min"].to_numpy()})

    cross_doc.__name__ = "cross_doc_grams"
    dup_ds = _partition_by_hash(grams, ["gram"], num_partitions) \
        .groupby("_part").map_groups(cross_doc, batch_format="pandas") \
        .materialize()
    if dup_ds.count() > broadcast_cutoff:
        return _remove_dup_spans_shuffled(ds, dup_ds, text_col, id_col, L,
                                          num_partitions)
    dup_tbl = dup_ds.to_pandas()
    order = np.argsort(dup_tbl["gram"].to_numpy())
    ref = ray.put((dup_tbl["gram"].to_numpy()[order],
                   dup_tbl["cdoc"].to_numpy()[order]))

    class CutSpans:
        def __init__(self):
            self._t = None

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if self._t is None:
                self._t = ray.get(ref)
            gsort, cdocs = self._t
            ids_arr = t[id_col]
            if isinstance(ids_arr, pa.ChunkedArray):
                ids_arr = ids_arr.combine_chunks()
            ids = ids_arr.to_numpy(zero_copy_only=False)
            texts = t[text_col]
            if isinstance(texts, pa.ChunkedArray):
                texts = texts.combine_chunks()
            texts = pc.fill_null(pc.cast(texts, pa.string()), "")
            hw = _char_window_hashes(texts, L)
            if hw is None:
                return pa.table({
                    id_col: ids_arr, text_col: texts,
                    "n_chars_removed": pa.array(
                        np.zeros(len(ids), dtype=np.int64))})
            H, doc_idx, starts, lens, c32, offs = hw
            if len(gsort):
                ix = np.minimum(np.searchsorted(gsort, H), len(gsort) - 1)
                foreign = (gsort[ix] == H) & (cdocs[ix] != ids[doc_idx])
            else:
                foreign = np.zeros(len(H), dtype=bool)
            total_chars = int(lens.sum())
            diff = np.zeros(total_chars + 1, dtype=np.int64)
            fs = starts[foreign]
            np.add.at(diff, fs, 1)
            np.add.at(diff, fs + L, -1)
            covered = np.cumsum(diff[:-1]) > 0
            keep = ~covered
            # per-doc kept counts via prefix sums at row boundaries
            # (reduceat would mis-handle zero-length rows)
            ck = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
            ends = offs + lens
            kept_per_doc = ck[ends] - ck[offs]
            kept_codes = c32[keep]
            bounds = np.concatenate([[0], np.cumsum(kept_per_doc)])
            new_texts = [
                kept_codes[bounds[i]:bounds[i + 1]].tobytes()
                .decode("utf-32-le")
                for i in range(len(ids))]
            return pa.table({
                id_col: ids_arr,
                text_col: pa.array(new_texts, type=pa.string()),
                "n_chars_removed": pa.array(
                    (lens - kept_per_doc).astype(np.int64))})

    return ds.map_batches(CutSpans, batch_format="pyarrow",
                          concurrency=(1, 8))


def _remove_dup_spans_shuffled(
    ds: ray.data.Dataset,
    dup_ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    L: int,
    num_partitions: int,
) -> ray.data.Dataset:
    """Distributed pass 2 of `remove_dup_spans` for dup-gram tables too big
    to broadcast. Exchange A: all (gram, doc, pos) window rows co-partition
    with (gram, cdoc) dup rows → foreign (doc, pos) interval rows.
    Exchange B: intervals co-partition with the documents by doc; the
    per-doc diff-array rewrite runs inside the partition. Identical output
    to the broadcast path."""

    class WindowRows:
        """(gram, doc, pos) per window, tagged kind=0. Arrow in/out."""

        def __init__(self):
            self.__name__ = type(self).__name__

        def __call__(self, t: pa.Table) -> pa.Table:
            ids_arr = t[id_col]
            if isinstance(ids_arr, pa.ChunkedArray):
                ids_arr = ids_arr.combine_chunks()
            hw = _char_window_hashes(t[text_col], L)
            if hw is None:
                return pa.table({
                    "gram": pa.array([], pa.int64()),
                    "doc": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "_kind": pa.array([], pa.int8())})
            H, doc_idx, starts, lens, _, offs = hw
            local_pos = starts - offs[doc_idx]
            return pa.table({
                "gram": pa.array(H),
                "doc": pa.array(
                    ids_arr.to_numpy(zero_copy_only=False)[doc_idx]),
                "pos": pa.array(local_pos.astype(np.int64)),
                "_kind": pa.array(np.zeros(len(H), dtype=np.int8))})

    def tag_dup(t: pa.Table) -> pa.Table:
        return pa.table({
            "gram": t["gram"],
            "doc": t["cdoc"],
            "pos": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "_kind": pa.array(np.ones(len(t), dtype=np.int8))})

    tag_dup.__name__ = "tag_dup_grams"
    u = ds.map_batches(WindowRows(), batch_format="pyarrow") \
        .union(dup_ds.map_batches(tag_dup, batch_format="pyarrow"))
    u = _partition_by_hash(u, ["gram"], num_partitions)

    def foreign_intervals(pdf: pd.DataFrame) -> pd.DataFrame:
        dup = pdf[pdf["_kind"] == 1][["gram", "doc"]] \
            .rename(columns={"doc": "cdoc"})
        win = pdf[pdf["_kind"] == 0][["gram", "doc", "pos"]]
        if not len(dup) or not len(win):
            return pd.DataFrame({"doc": pd.Series(dtype=np.int64),
                                 "pos": pd.Series(dtype=np.int64)})
        hit = win.merge(dup, on="gram")
        hit = hit[hit["doc"] != hit["cdoc"]]
        return hit[["doc", "pos"]].reset_index(drop=True)

    foreign_intervals.__name__ = "foreign_intervals"
    intervals = u.groupby("_part").map_groups(foreign_intervals,
                                              batch_format="pandas")

    def tag_iv(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc": t["doc"], "pos": t["pos"],
            text_col: pa.nulls(len(t), type=pa.string()),
            "_kind": pa.array(np.zeros(len(t), dtype=np.int8))})

    tag_iv.__name__ = "tag_intervals"

    def tag_docs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "doc": t[id_col],
            "pos": pa.array(np.full(len(t), -1, dtype=np.int64)),
            text_col: pc.cast(t[text_col], pa.string()),
            "_kind": pa.array(np.ones(len(t), dtype=np.int8))})

    tag_docs.__name__ = "tag_docs"
    u2 = intervals.map_batches(tag_iv, batch_format="pyarrow") \
        .union(ds.map_batches(tag_docs, batch_format="pyarrow"))
    u2 = _partition_by_hash(u2, ["doc"], num_partitions)

    def rewrite(pdf: pd.DataFrame) -> pd.DataFrame:
        docs = pdf[pdf["_kind"] == 1]
        iv = pdf[pdf["_kind"] == 0]
        starts_by_doc = {d: g["pos"].to_numpy()
                         for d, g in iv.groupby("doc", sort=False)}
        ids, texts, removed = [], [], []
        for d, t in zip(docs["doc"].to_numpy(), docs[text_col].to_numpy()):
            t = "" if t is None or t is pd.NA else str(t)
            ss = starts_by_doc.get(d)
            if ss is None or not len(t):
                ids.append(d); texts.append(t); removed.append(0)
                continue
            diff = np.zeros(len(t) + 1, dtype=np.int64)
            np.add.at(diff, ss, 1)
            np.add.at(diff, np.minimum(ss + L, len(t)), -1)
            keep = np.cumsum(diff[:-1]) == 0
            codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            kept = codes[keep]
            ids.append(d)
            texts.append(kept.tobytes().decode("utf-32-le"))
            removed.append(len(t) - len(kept))
        return pd.DataFrame({
            id_col: np.asarray(ids, dtype=np.int64),
            text_col: texts,
            "n_chars_removed": np.asarray(removed, dtype=np.int64)})

    rewrite.__name__ = "rewrite_docs"
    return u2.groupby("_part").map_groups(rewrite, batch_format="pandas")


# ------------------------------------------------------------ SemDeDup


def semdedup(
    embeddings: ray.data.Dataset,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_clusters: int = 16,
    sample_limit: int = 20_000,
    target_cluster_rows: int = 4096,
    deterministic: bool = False,
) -> ray.data.Dataset:
    """Semantic dedup (Abbas et al. 2023, SemDeDup): k-means-cluster the
    embedding space, then inside each cluster drop every point whose cosine
    to an earlier KEPT point (ids ascending) reaches `threshold`. Greedy on
    the kept set — a chain a~b, b~c with a≁c keeps {a, c}, never
    over-removing through already-dropped intermediates.

    Scale shape: centroids learned on a bounded sample (driver-side, tiny)
    and broadcast; assignment is a streaming map; the only shuffle is
    groupby(_cluster). Pairwise work is O(rows²/n_clusters) per task —
    n_clusters auto-scales to keep clusters near `target_cluster_rows`
    rows, the paper's regime (50k clusters for LAION); raise sample_limit
    along with corpus size so centroids stay representative. No analog in
    the reference (training-data op named by the task brief).

    Output: (vec_id, cluster, keep, dup_of) — dup_of is the kept point
    that evicted this one (highest cosine among kept hits), null if kept.

    ``deterministic=True`` makes the whole run engine-reproducible (the
    driver's SQL oracle replays it): the centroid sample is the GLOBALLY
    first `sample_limit` rows by `id_col` (sort-then-limit, not whatever
    rows Ray's limit() happens to return), k-means seeds from the first
    `n_clusters` of them instead of a random draw, all float work runs in
    float64, and `n_clusters` is honored verbatim (no auto-bump — the
    oracle hardcodes k). Oracle precondition: the corpus must fit within
    `sample_limit`, since the SQL replays Lloyd over ALL rows.
    The deterministic=False default path is byte-identical to before this
    mode existed (float32 inputs stay float32).
    """
    from .knn import _kmeans, _normalize

    if deterministic:
        # materialize once: count() is metadata-only on parquet but would
        # EXECUTE a transformed pipeline, and to_pandas/assign would then
        # re-execute it
        embeddings = embeddings.materialize()
        if embeddings.count() > sample_limit:
            # the SQL oracle replays Lloyd over ALL rows, and the
            # auto-bump is off in this mode — oversized corpora would
            # silently diverge from the oracle AND run unbounded
            # per-cluster pairwise work. Fail loudly instead.
            raise ValueError(
                f"semdedup(deterministic=True) requires the corpus "
                f"(rows={embeddings.count()}) to fit sample_limit="
                f"{sample_limit}; raise sample_limit or use the "
                f"non-deterministic mode for large corpora")
        sample = embeddings.to_pandas().sort_values(id_col,
                                                    kind="mergesort")
    else:
        # keep per-cluster pairwise work bounded: one map_groups task holds
        # one cluster, so n_clusters must grow with the corpus (the paper's
        # regime)
        n_rows = embeddings.count()
        n_clusters = max(n_clusters,
                         -(-n_rows // max(target_cluster_rows, 1)))
        sample = embeddings.limit(sample_limit).to_pandas()
    m = np.stack(sample[emb_col].to_numpy())
    if deterministic:
        m = m.astype(np.float64)
    m = _normalize(m)
    cent = _kmeans(m, n_clusters, init="first" if deterministic else "random")
    ref = ray.put(cent)

    class Assign:
        def __init__(self):
            self._c = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._c is None:
                self._c = ray.get(ref)
            emb = np.stack(batch[emb_col].to_pandas().to_numpy())
            if deterministic:
                emb = emb.astype(np.float64)
            emb = _normalize(emb)
            cl = (emb @ self._c.T).argmax(axis=1)
            # metadata stripped: parquet's `pandas` blob breaks hash(schema)
            # in Ray's sort-reduce workers (noisy, unfilterable from here)
            return batch.append_column(
                "_cluster", pa.array(cl.astype(np.int64))) \
                .replace_schema_metadata(None)

    assigned = embeddings.map_batches(Assign, batch_format="pyarrow",
                                      concurrency=2)

    def dedup_cluster(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        X = np.stack(pdf[emb_col].to_numpy())
        if deterministic:
            X = X.astype(np.float64)
        X = _normalize(X)
        n = len(X)
        G = X @ X.T
        keep = np.ones(n, dtype=bool)
        dup_of = np.full(n, -1, dtype=np.int64)
        ids = pdf[id_col].to_numpy()
        for i in range(1, n):
            hits = np.where(keep[:i], G[i, :i], -np.inf)
            j = int(np.argmax(hits))
            if hits[j] >= threshold:
                keep[i] = False
                dup_of[i] = ids[j]
        out = pd.DataFrame({
            id_col: ids,
            "cluster": pdf["_cluster"].to_numpy(),
            "keep": keep,
        })
        out["dup_of"] = pd.array(
            [None if k else int(d) for k, d in zip(keep, dup_of)],
            dtype="Int64")
        return out

    dedup_cluster.__name__ = "semdedup_cluster"
    return assigned.groupby("_cluster").map_groups(
        dedup_cluster, batch_format="pandas")


# ------------------------------------------------- incremental dedup


def incremental_exact_dedup(
    new_docs: ray.data.Dataset,
    state_dir: str,
    ds_value: str,
    on: Sequence[str],
    id_col: str,
    config_hash: str = "inc-dedup-v2",  # v2: null-distinct int/bool content
                                        # hashes (value+isnull pairs) — old
                                        # v1 state must not validate against
                                        # the new scheme
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Day-over-day exact dedup against persisted state: the new
    partition's docs are kept iff their content hash (a) never appeared in
    any previously COMMITTED day and (b) is the minimum-id copy within the
    new partition. Today's kept hashes are then committed to
    `state_dir/ds=<ds_value>` through the atomic manifest writer, so the
    next day dedups against all history by reading 8-byte hash rows —
    never by rescanning historical text.

    Scale shape: history crosses the decision exchange as hash-only rows;
    new docs cross once with full columns (same budget as exact_dedup).
    No driver materialization. Rerunning a committed day recomputes the
    same output and skips the state write (manifest idempotence).

    Note: inside the merged decision partition, integer doc columns pass
    through a nullable-pandas frame — exact below 2^53 (content ids at any
    realistic scale)."""
    import os

    from ..state.lineage import completed_partitions, write_partitioned

    if num_partitions is None:
        num_partitions = auto_partitions(new_docs)
    from ..util import arrow_type_of

    sch = new_docs.schema()
    doc_cols = sch.names
    doc_types = {n: arrow_type_of(t) for n, t in zip(sch.names, sch.types)}

    # Canonical CONTENT types persist with the state: a later day whose
    # blocks arrive dtype-promoted (a pandas round trip turns nullable int
    # into double) must hash identically to the int hashes committed on
    # day 1, or every historical duplicate is silently re-admitted. Day 1
    # pins today's unified types in a zero-row parquet sidecar; every
    # subsequent day casts to the pinned types before hashing.
    import pyarrow.parquet as _pq

    sidecar = os.path.join(state_dir, f"_content_types_{config_hash}.parquet")
    if os.path.exists(sidecar):
        pinned = _pq.read_schema(sidecar)
        on_types = {c: pinned.field(c).type for c in on
                    if pinned.get_field_index(c) >= 0}
    else:
        on_types = {c: doc_types[c] for c in on}
        os.makedirs(state_dir, exist_ok=True)
        tmp = sidecar + ".tmp"
        _pq.write_table(
            pa.table({c: pa.nulls(0, type=on_types[c]) for c in on}), tmp)
        os.replace(tmp, sidecar)

    def tag_new(t: pa.Table) -> pa.Table:
        # canonical content hash (see _canon_content_hash): these hashes
        # persist in the dedup state across days, so null-promoted blocks
        # must not mint a second hash for the same content. Pure-Arrow
        # stage: a pandas block would re-acquire unhashable pandas schema
        # metadata at the sort exchange, defeating Ray's schema-dedup.
        t = t.replace_schema_metadata(None)
        # cast to the state-pinned canonical types first: dtype-divergent
        # blocks AND dtype-divergent days must hash identically — these
        # hashes persist into day-over-day state
        h = _canon_content_hash(t, on, on_types)
        n = len(t)
        t = t.append_column("_h", pa.array(h.astype(np.int64)))
        return t.append_column("_kind", pa.array(np.zeros(n, dtype=np.int8)))

    tag_new.__name__ = "tag_new_docs"
    tagged_new = new_docs.map_batches(tag_new, batch_format="pyarrow")

    committed = completed_partitions(state_dir, config_hash) \
        if os.path.isdir(state_dir) else []
    committed = [d for d in committed if d != ds_value]
    parts = [tagged_new]
    if committed:
        from ..sources import read_parquet as _read_parquet

        # expand to concrete files: ray.data.read_parquet accepts a single
        # directory but FAILS on a multi-element list of directories
        # ("Cannot open for reading: path ... is a directory"), so two or
        # more committed days would crash; file paths also skip the
        # manifest explicitly
        files = []
        for d in committed:
            p = f"{state_dir}/ds={d}"
            files.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                         if f.endswith(".parquet"))
        hist = _read_parquet(files, columns=["_h"])

        def tag_hist(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = {c: pa.nulls(n, doc_types[c]) for c in doc_cols}
            cols["_h"] = t["_h"]
            cols["_kind"] = pa.array(np.ones(n, dtype=np.int8))
            return pa.table(cols)

        tag_hist.__name__ = "tag_history"
        parts.append(hist.map_batches(tag_hist, batch_format="pyarrow"))
    u = parts[0] if len(parts) == 1 else parts[0].union(parts[1])
    u = _partition_by_hash(u, ["_h"], num_partitions)

    def decide(pdf: pd.DataFrame) -> pa.Table:
        new = pdf[pdf["_kind"] == 0]
        seen = pdf.loc[pdf["_kind"] == 1, "_h"].unique()
        keep = new[~new["_h"].isin(seen)]
        keep = keep.sort_values(["_h", id_col], kind="mergesort") \
            .drop_duplicates("_h", keep="first")
        out = keep.drop(columns=["_part", "_kind"])
        # the history-null union degrades every integer doc column to
        # float64 in the pandas frame — emit Arrow cast back to the INPUT
        # schema so the output schema matches the input exactly
        arrays = {}
        for c in out.columns:
            arr = pa.Array.from_pandas(out[c])
            want = doc_types.get(c, pa.int64() if c == "_h" else None)
            if want is not None and arr.type != want:
                arr = pc.cast(arr, want)
            arrays[c] = arr
        return pa.table(arrays)

    decide.__name__ = "incremental_decide"
    kept = u.groupby("_part").map_groups(decide, batch_format="pandas") \
        .materialize()

    if ds_value not in completed_partitions(state_dir, config_hash):
        def hashes_only(t: pa.Table) -> pa.Table:
            return pa.table({"_h": t["_h"],
                             "ds": pa.array([ds_value] * len(t))})

        hashes_only.__name__ = "state_hashes"
        write_partitioned(kept.map_batches(hashes_only,
                                           batch_format="pyarrow"),
                          state_dir, config_hash=config_hash)

    def strip(t: pa.Table) -> pa.Table:
        return t.drop_columns(["_h"])

    strip.__name__ = "strip_hash"
    return kept.map_batches(strip, batch_format="pyarrow")
