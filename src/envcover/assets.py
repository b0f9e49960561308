"""Asset catalog with embedding-based retrieval.

Object descriptions coming out of scene construction are free text; the
catalog maps them to concrete assets with real bounding boxes. Matching uses
a hashed bag-of-words embedding: each token is hashed into one of 256
buckets, counts are L2-normalized, and retrieval picks the catalog entry
with the highest cosine similarity (ties go to the smallest asset id).
A query is embedded as its nonzero buckets only, a few per description,
and scored against each stored vector from those; the dense vector that
embed_text returns is the same embedding, spread over every bucket.

Each catalog indexes itself once: it sorts its assets by id when it is
built, and it keeps a map from every description it has resolved to the
asset chosen for it, so a description repeated within a build is embedded
and scored once. The index lives on the catalog instance, so nothing
carries over from one load of a catalog to the next; the assets are fixed
once the catalog is built.

The embedding is deliberately cheap and fully deterministic. Anything that
embeds text the same way can swap in here, as long as stored vectors share
the dimension declared by the catalog file.
"""

from __future__ import annotations

import base64
import hashlib
import math
import struct
from dataclasses import dataclass, field

from .errors import EmptyCatalog, SchemaViolation
from .jsonio import parse_as, read_json, write_json
from .task_model import normalize_text

EMBEDDING_DIM = 256


def _tokens(text: str) -> list[str]:
    return normalize_text(text).split()


def _sparse_embedding(text: str, dim: int) -> list[tuple[int, float]]:
    """embed_text's nonzero buckets, as (bucket, value) pairs in bucket order.

    The norm sums the squares in bucket order, as over the dense vector:
    the zero buckets it skips add 0.0, which leaves a float sum unchanged,
    so every value equals its dense counterpart bit for bit.
    """
    counts: dict[int, float] = {}
    for token in _tokens(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % dim
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    pairs = sorted(counts.items())
    norm = math.sqrt(sum(v * v for _, v in pairs))
    return [(i, v / norm) for i, v in pairs]


def embed_text(text: str, dim: int = EMBEDDING_DIM) -> list[float]:
    """Hashed bag-of-words vector, L2-normalized. Empty text embeds to zeros."""
    vec = [0.0] * dim
    for i, v in _sparse_embedding(text, dim):
        vec[i] = v
    return vec


def encode_vector(vec: list[float]) -> str:
    return base64.b64encode(struct.pack(f"<{len(vec)}f", *vec)).decode("ascii")


def decode_vector(blob: str, dim: int) -> list[float]:
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except Exception as exc:
        raise SchemaViolation(f"embedding is not valid base64: {exc}") from exc
    if len(raw) != dim * 4:
        raise SchemaViolation(
            f"embedding holds {len(raw) // 4} floats, catalog dimension is {dim}"
        )
    return list(struct.unpack(f"<{dim}f", raw))


@dataclass(frozen=True)
class AssetRecord:
    id: str
    description: str
    size: tuple[float, float, float]
    embedding: tuple[float, ...] = ()
    norm: float = field(init=False, repr=False, compare=False)  # the embedding's L2 norm

    def __post_init__(self):
        # sums only nonzero squares, as _sparse_embedding does: a zero's adds 0.0
        object.__setattr__(self, "norm", math.sqrt(sum(v * v for v in self.embedding if v)))


@dataclass
class AssetCatalog:
    dim: int = EMBEDDING_DIM
    assets: list[AssetRecord] = field(default_factory=list)
    # the assets in id order, and query -> chosen asset for every query
    # retrieved so far
    _by_id: tuple[AssetRecord, ...] = field(init=False, repr=False, compare=False)
    _chosen: dict[str, AssetRecord] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self._by_id = tuple(sorted(self.assets, key=lambda a: a.id))


def build_catalog(entries: list[tuple[str, str, tuple[float, float, float]]]) -> AssetCatalog:
    """Catalog from (id, description, size) triples; embeddings computed here."""
    assets = [
        AssetRecord(id=i, description=d, size=s, embedding=tuple(embed_text(d)))
        for i, d, s in entries
    ]
    return AssetCatalog(assets=assets)


@dataclass
class _StoredAsset:
    id: str
    description: str
    size: tuple[float, float, float]
    embedding: str  # base64 of little-endian float32s, read by decode_vector


@dataclass
class _StoredCatalog:
    assets: tuple[_StoredAsset, ...]
    dim: int = EMBEDDING_DIM


def load_catalog(path) -> AssetCatalog:
    stored = parse_as(_StoredCatalog, read_json(path, "catalog"), f"catalog {path}")
    if stored.dim < 1:
        # embed_text hashes each token modulo the dimension
        raise SchemaViolation(
            f"malformed catalog {path}: dimension must be at least 1, got {stored.dim}", "dim"
        )
    assets = []
    seen = set()
    for i, raw in enumerate(stored.assets):
        if raw.id in seen:
            raise SchemaViolation(f"duplicate asset id {raw.id!r}", f"assets[{i}].id")
        seen.add(raw.id)
        if any(v <= 0 for v in raw.size):
            raise SchemaViolation("size must be three positive numbers", f"assets[{i}].size")
        vec = tuple(decode_vector(raw.embedding, stored.dim))
        assets.append(AssetRecord(raw.id, raw.description, raw.size, vec))
    return AssetCatalog(dim=stored.dim, assets=assets)


def save_catalog(catalog: AssetCatalog, path) -> None:
    stored = [
        _StoredAsset(a.id, a.description, a.size, encode_vector(list(a.embedding)))
        for a in catalog.assets
    ]
    write_json(path, _StoredCatalog(assets=tuple(stored), dim=catalog.dim))


def _scores(catalog: AssetCatalog, query: str):
    """(asset, cosine similarity to the query) in asset id order.

    The query is scored from its nonzero buckets alone, so it costs its
    tokens, not the catalog's dimension. Each score still equals the
    full-dot-product cosine of embed_text's vector bit for bit: the dot
    product and the query's norm skip only zero terms, which leave a float
    sum unchanged.
    """
    nonzero = _sparse_embedding(query, catalog.dim)
    query_norm = math.sqrt(sum(v * v for _, v in nonzero))
    for asset in catalog._by_id:
        vec = asset.embedding
        if len(vec) != catalog.dim:
            raise SchemaViolation(f"vector dimensions differ: {catalog.dim} vs {len(vec)}")
        if query_norm == 0.0 or asset.norm == 0.0:
            yield asset, 0.0
        else:
            yield asset, sum(v * vec[i] for i, v in nonzero) / (query_norm * asset.norm)


def retrieve_asset(catalog: AssetCatalog, query: str) -> AssetRecord:
    """Best-matching asset for a free-text description.

    Highest cosine similarity wins; equal scores fall back to the smallest
    asset id so retrieval stays deterministic. The catalog is scored on a
    query's first call, and its choice is read from the catalog's map after
    that.
    """
    if not catalog.assets:
        raise EmptyCatalog("asset catalog has no entries")
    best = catalog._chosen.get(query)
    if best is None:
        best_score = -2.0
        for asset, score in _scores(catalog, query):
            if score > best_score + 1e-12:
                best = asset
                best_score = score
        catalog._chosen[query] = best
    return best
