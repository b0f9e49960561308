import hashlib
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from envcover import assets, scene
from envcover.assets import (
    EMBEDDING_DIM,
    AssetCatalog,
    AssetRecord,
    _scores,
    build_catalog,
    decode_vector,
    embed_text,
    encode_vector,
    load_catalog,
    retrieve_asset,
    save_catalog,
)
from envcover.errors import EmptyCatalog, SchemaViolation
from envcover.pipeline import RunPaths, resolve_bundle, stage_build, stage_collect, stage_derive
from oracles import cosine_similarity, dense_embedding


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embedding_is_deterministic_and_unit_length():
    a = embed_text("a brown fabric sofa")
    b = embed_text("a brown fabric sofa")
    assert a == b
    assert len(a) == EMBEDDING_DIM
    assert math.isclose(sum(v * v for v in a), 1.0, abs_tol=1e-12)


def test_empty_text_embeds_to_zero_vector():
    assert embed_text("") == [0.0] * EMBEDDING_DIM
    assert embed_text("  !!  ") == [0.0] * EMBEDDING_DIM


def test_token_lands_in_its_hash_bucket():
    # int.from_bytes(sha256(b"sofa").digest()[:8], "big") % 256 == 44,
    # computed with hashlib alone
    vec = embed_text("sofa")
    assert vec[44] == 1.0
    assert (
        int.from_bytes(hashlib.sha256(b"sofa").digest()[:8], "big") % EMBEDDING_DIM
        == 44
    )


def test_casing_and_punctuation_do_not_change_the_vector():
    assert embed_text("Sofa, brown!") == embed_text("sofa brown")


def scores(descriptions, query):
    """Retrieval's score of each description for the query, from a catalog
    that holds one asset per description."""
    catalog = build_catalog([(f"a{i}", d, (1, 1, 1)) for i, d in enumerate(descriptions)])
    return [score for _, score in _scores(catalog, query)]


def test_cosine_matches_reference_values():
    descriptions = ["a brown fabric two seater sofa", "a gray upholstered armchair"]
    d1, d2 = scores(descriptions, "a brown two seater sofa")
    # 5 shared tokens of 5 and 6: 5 / sqrt(5 * 6)
    assert math.isclose(d1, 0.912870929175277, abs_tol=1e-12)
    assert math.isclose(d2, 0.223606797749979, abs_tol=1e-12)


def test_cosine_dimension_mismatch_raises():
    catalog = AssetCatalog(dim=3, assets=[AssetRecord("a", "sofa", (1, 1, 1), (1.0, 0.0))])
    with pytest.raises(SchemaViolation, match="dimensions differ"):
        list(_scores(catalog, "sofa"))


def test_cosine_zero_vector_scores_zero():
    assert scores(["", "a sofa"], "") == [0.0, 0.0]
    assert scores(["  !!  "], "a sofa") == [0.0]


@given(st.lists(st.sampled_from("cup mug bowl plate red blue".split()), max_size=8))
def test_embedding_norm_is_one_or_zero(words):
    vec = embed_text(" ".join(words))
    norm = sum(v * v for v in vec)
    if words:
        assert math.isclose(norm, 1.0, abs_tol=1e-9)
        # the same bag of words in another order embeds to the same vector
        (score,) = scores([" ".join(words)], " ".join(reversed(words)))
        assert math.isclose(score, 1.0, abs_tol=1e-9)
    else:
        assert norm == 0.0


# ---------------------------------------------------------------------------
# vector codec
# ---------------------------------------------------------------------------


def test_codec_round_trip_within_float32_precision():
    vec = embed_text("a tall green bottle")
    back = decode_vector(encode_vector(vec), EMBEDDING_DIM)
    assert max(abs(x - y) for x, y in zip(vec, back)) < 1e-6


def test_decode_rejects_bad_base64():
    with pytest.raises(SchemaViolation):
        decode_vector("&&&not base64&&&", 4)


def test_decode_rejects_wrong_length():
    blob = encode_vector([1.0, 2.0, 3.0])
    with pytest.raises(SchemaViolation):
        decode_vector(blob, 4)


# ---------------------------------------------------------------------------
# catalog and retrieval
# ---------------------------------------------------------------------------


def small_catalog():
    return build_catalog(
        [
            ("chair_red", "a red wooden chair", (0.5, 0.9, 0.5)),
            ("sofa_fabric", "a brown fabric two seater sofa", (2.0, 0.8, 0.9)),
            ("plant_potted", "a potted green plant", (0.4, 1.1, 0.4)),
        ]
    )


def test_retrieval_picks_best_cosine_match():
    hit = retrieve_asset(small_catalog(), "a brown two seater sofa")
    assert hit.id == "sofa_fabric"


def test_retrieval_ties_break_to_smallest_id():
    catalog = build_catalog(
        [
            ("cup_b", "a red cup", (0.1, 0.1, 0.1)),
            ("cup_a", "a red cup", (0.1, 0.1, 0.1)),
        ]
    )
    assert retrieve_asset(catalog, "red cup").id == "cup_a"


def test_retrieval_from_empty_catalog_raises():
    with pytest.raises(EmptyCatalog):
        retrieve_asset(AssetCatalog(), "anything")


def test_catalog_save_load_round_trip(tmp_path):
    catalog = small_catalog()
    path = tmp_path / "catalog.json"
    save_catalog(catalog, str(path))
    loaded = load_catalog(str(path))
    assert [a.id for a in loaded.assets] == [a.id for a in catalog.assets]
    for a, b in zip(catalog.assets, loaded.assets):
        assert a.size == pytest.approx(b.size)
        assert max(abs(x - y) for x, y in zip(a.embedding, b.embedding)) < 1e-6
    assert retrieve_asset(loaded, "a brown two seater sofa").id == "sofa_fabric"


def test_load_rejects_duplicate_ids(tmp_path):
    catalog = build_catalog([("x", "a thing", (1, 1, 1))])
    path = tmp_path / "catalog.json"
    save_catalog(catalog, str(path))
    doc = path.read_text().replace('"assets": [', '"assets": [', 1)
    parsed = json.loads(doc)
    parsed["assets"].append(dict(parsed["assets"][0]))
    path.write_text(json.dumps(parsed))
    with pytest.raises(SchemaViolation):
        load_catalog(str(path))


def test_load_rejects_nonpositive_size(tmp_path):
    catalog = build_catalog([("x", "a thing", (1, 1, 1))])
    path = tmp_path / "catalog.json"
    save_catalog(catalog, str(path))
    parsed = json.loads(path.read_text())
    parsed["assets"][0]["size"] = [1.0, 0.0, 1.0]
    path.write_text(json.dumps(parsed))
    with pytest.raises(SchemaViolation):
        load_catalog(str(path))


@pytest.mark.parametrize("dim", [0, -3])
def test_load_rejects_a_dimension_below_one(dim, tmp_path):
    catalog = build_catalog([("x", "a thing", (1, 1, 1))])
    path = tmp_path / "catalog.json"
    save_catalog(catalog, str(path))
    parsed = json.loads(path.read_text())
    parsed["dim"] = dim
    parsed["assets"][0]["embedding"] = ""
    path.write_text(json.dumps(parsed))
    with pytest.raises(SchemaViolation) as info:
        load_catalog(str(path))
    assert info.value.field == "dim"


def test_a_loaded_catalog_starts_with_an_empty_query_map(tmp_path):
    path = tmp_path / "catalog.json"
    save_catalog(small_catalog(), str(path))
    first = load_catalog(str(path))
    assert retrieve_asset(first, "a brown two seater sofa").id == "sofa_fabric"
    assert list(first._chosen) == ["a brown two seater sofa"]
    assert first._chosen["a brown two seater sofa"].id == "sofa_fabric"
    assert load_catalog(str(path))._chosen == {}


@pytest.fixture
def embedded(monkeypatch):
    """Each text embedded from here on: retrieval and embed_text both embed
    through assets._sparse_embedding."""
    calls = []
    sparse_embedding = assets._sparse_embedding

    def counting(text, dim):
        calls.append(text)
        return sparse_embedding(text, dim)

    monkeypatch.setattr(assets, "_sparse_embedding", counting)
    return calls


def test_retrieval_embeds_each_query_once_per_catalog(embedded):
    catalog, other = small_catalog(), small_catalog()
    embedded.clear()
    for query in ["red chair", "a potted plant", "red chair", "red chair"]:
        retrieve_asset(catalog, query)
    assert embedded == ["red chair", "a potted plant"]
    retrieve_asset(other, "red chair")
    assert embedded == ["red chair", "a potted plant", "red chair"]


def test_retrieval_scores_the_catalog_once_per_query(monkeypatch):
    catalog = small_catalog()
    scored = []

    def counting(catalog, query):
        scored.append(query)
        return _scores(catalog, query)

    monkeypatch.setattr(assets, "_scores", counting)
    picks = [retrieve_asset(catalog, q).id for q in ["red chair", "a potted plant", "red chair"]]
    assert scored == ["red chair", "a potted plant"]
    assert picks[0] == picks[2] == catalog._chosen["red chair"].id
    assert list(catalog._chosen) == ["red chair", "a potted plant"]


def test_a_fixture_build_embeds_each_distinct_description_once(
    living_room_dir, tmp_path, monkeypatch, embedded
):
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir))
    stage_derive(paths, bundle)
    stage_collect(paths)

    retrieved = []

    def counting(catalog, query):
        retrieved.append(query)
        return retrieve_asset(catalog, query)

    monkeypatch.setattr(scene, "retrieve_asset", counting)
    stage_build(paths, bundle, grid=0.2)
    assert len(retrieved) == 30
    assert sorted(embedded) == sorted(set(retrieved))
    assert len(embedded) == 12


def test_retrieval_scores_equal_cosine_similarity_bit_for_bit():
    # long seeded texts over a small vocabulary: queries and assets share many
    # buckets, so a dot product summed in another order or precision would
    # differ in the last bits
    rng = random.Random(7)
    vocabulary = [f"word{i}" for i in range(80)]

    def text(n):
        return " ".join(rng.choice(vocabulary) for _ in range(n))

    def component():
        # stored vectors need not come from embed_text: negative, zero and
        # negative-zero components too
        return rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 0.0)])

    texts = build_catalog([(f"a{i:02d}", text(rng.randint(0, 40)), (1, 1, 1)) for i in range(12)])
    vectors = AssetCatalog(
        assets=[
            AssetRecord(f"v{i:02d}", "", (1, 1, 1), tuple(component() for _ in range(EMBEDDING_DIM)))
            for i in range(10)
        ]
        + [AssetRecord("zero", "", (1, 1, 1), (0.0,) * EMBEDDING_DIM)]
    )
    queries = [text(rng.randint(0, 40)) for _ in range(200)]
    queries += ["", "  !!  ", "word3", "Word3!", "sofa"] + vocabulary[:20]
    for catalog in (texts, vectors):
        for query in queries:
            qvec = embed_text(query, catalog.dim)
            # the second call scores the query afresh: retrieve_asset's map
            # holds chosen assets, not embeddings
            for _ in range(2):
                scores = list(_scores(catalog, query))
                assert [a.id for a, _ in scores] == sorted(a.id for a in catalog.assets)
                for asset, score in scores:
                    assert score == cosine_similarity(qvec, list(asset.embedding)), (query, asset.id)


def test_embed_text_equals_the_dense_embedding_bit_for_bit():
    # from no token to 400, and dimensions down to 1, where every token
    # shares one bucket: the vector and its nonzero pairs are the dense
    # reference's, bit for bit
    rng = random.Random(3)
    vocabulary = [f"w{i}" for i in range(300)]
    for n in [0, 1, 2, 5, 40, 400]:
        query = " ".join(rng.choice(vocabulary) for _ in range(n))
        for dim in (1, 7, EMBEDDING_DIM):
            vec = dense_embedding(query, dim)
            assert embed_text(query, dim) == vec, (query, dim)
            assert assets._sparse_embedding(query, dim) == [(i, v) for i, v in enumerate(vec) if v]


def _dense_norm(vec) -> float:
    return math.sqrt(sum(v * v for v in vec))


def test_a_stored_norm_equals_the_dense_norm_bit_for_bit(catalog):
    # the norm sums only the nonzero squares; on the fixture catalog as
    # loaded and as the dense reference embeds it, and on vectors of zeros,
    # negative zeros and subnormals, it is the dense sum, sign of zero included
    for asset in catalog.assets:
        assert asset.norm.hex() == _dense_norm(asset.embedding).hex(), asset.id
    vectors = [dense_embedding(a.description, catalog.dim) for a in catalog.assets]
    vectors += [
        [],
        [0.0] * 8,
        [-0.0, 0.0, -0.0],
        [5e-324, -5e-324, 0.0],
        [1e-160, -0.0, 1e-170, 3.0],
        [0.0, 2.2250738585072014e-308, -1.5, -0.0, 0.25],
        [1e-155] * 4,
    ]
    rng = random.Random(5)
    special = [0.0, -0.0, 5e-324, -1e-310, 1e-160, 2.2250738585072014e-308]
    for _ in range(200):
        vec = [0.0] * EMBEDDING_DIM
        for i in rng.sample(range(EMBEDDING_DIM), rng.randint(0, 9)):
            vec[i] = rng.choice(special) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
        vectors.append(vec)
    for vec in vectors:
        stored = AssetRecord("a", "a", (1.0, 1.0, 1.0), tuple(vec))
        assert stored.norm.hex() == _dense_norm(vec).hex(), vec


def test_fixture_catalog_resolves_bundle_descriptions(catalog):
    hit = retrieve_asset(catalog, "a brown fabric two seater sofa")
    assert hit.id == "sofa_fabric"
    assert hit.size == pytest.approx((2.0, 0.8, 0.9))
