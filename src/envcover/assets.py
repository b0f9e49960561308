"""Asset catalog with embedding-based retrieval.

Object descriptions coming out of scene construction are free text; the
catalog maps them to concrete assets with real bounding boxes. Matching uses
a hashed bag-of-words embedding: each token is hashed into one of 256
buckets, counts are L2-normalized, and retrieval picks the catalog entry
with the highest cosine similarity (ties go to the smallest asset id).

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
from .jsonio import read_json, write_json
from .task_model import normalize_text

EMBEDDING_DIM = 256


def _tokens(text: str) -> list[str]:
    return normalize_text(text).split()


def embed_text(text: str, dim: int = EMBEDDING_DIM) -> list[float]:
    """Hashed bag-of-words vector, L2-normalized. Empty text embeds to zeros."""
    vec = [0.0] * dim
    for token in _tokens(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % dim
        vec[bucket] += 1.0
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        return vec
    return [v / norm for v in vec]


def cosine_similarity(a: list[float], b: list[float]) -> float:
    if len(a) != len(b):
        raise SchemaViolation(f"vector dimensions differ: {len(a)} vs {len(b)}")
    na = math.sqrt(sum(v * v for v in a))
    nb = math.sqrt(sum(v * v for v in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


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


@dataclass
class AssetCatalog:
    dim: int = EMBEDDING_DIM
    assets: list[AssetRecord] = field(default_factory=list)


def build_catalog(entries: list[tuple[str, str, tuple[float, float, float]]]) -> AssetCatalog:
    """Catalog from (id, description, size) triples; embeddings computed here."""
    assets = [
        AssetRecord(id=i, description=d, size=s, embedding=tuple(embed_text(d)))
        for i, d, s in entries
    ]
    return AssetCatalog(assets=assets)


def load_catalog(path) -> AssetCatalog:
    doc = read_json(path, "catalog")
    if not isinstance(doc, dict) or "assets" not in doc:
        raise SchemaViolation("catalog must be an object with an 'assets' list")
    dim = doc.get("dim", EMBEDDING_DIM)
    assets = []
    seen = set()
    for i, raw in enumerate(doc["assets"]):
        for key in ("id", "description", "size", "embedding"):
            if key not in raw:
                raise SchemaViolation(f"assets[{i}] is missing {key!r}")
        if raw["id"] in seen:
            raise SchemaViolation(f"duplicate asset id {raw['id']!r}")
        seen.add(raw["id"])
        size = tuple(float(v) for v in raw["size"])
        if len(size) != 3 or any(v <= 0 for v in size):
            raise SchemaViolation(f"assets[{i}] size must be three positive numbers")
        vec = decode_vector(raw["embedding"], dim)
        assets.append(
            AssetRecord(id=raw["id"], description=raw["description"], size=size, embedding=tuple(vec))
        )
    return AssetCatalog(dim=dim, assets=assets)


def save_catalog(catalog: AssetCatalog, path) -> None:
    doc = {
        "dim": catalog.dim,
        "assets": [
            {
                "id": a.id,
                "description": a.description,
                "size": [round(v, 6) for v in a.size],
                "embedding": encode_vector(list(a.embedding)),
            }
            for a in catalog.assets
        ],
    }
    write_json(path, doc)


def retrieve_asset(catalog: AssetCatalog, query: str) -> AssetRecord:
    """Best-matching asset for a free-text description.

    Highest cosine similarity wins; equal scores fall back to the smallest
    asset id so retrieval stays deterministic.
    """
    if not catalog.assets:
        raise EmptyCatalog("asset catalog has no entries")
    qvec = embed_text(query, catalog.dim)
    best: AssetRecord | None = None
    best_score = -2.0
    for asset in sorted(catalog.assets, key=lambda a: a.id):
        score = cosine_similarity(qvec, list(asset.embedding))
        if score > best_score + 1e-12:
            best = asset
            best_score = score
    return best
