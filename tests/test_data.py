"""Dataset container, binary format, normalization and generator tests."""

import json
import tracemalloc

import numpy as np
import pytest

from tmcn.clustering import accuracy, kmeans
from tmcn.data import (
    DataFormatError,
    MultiViewDataset,
    SyntheticSpec,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    normalize_views,
    rescale_views,
    save_dataset,
)


def _toy_dataset(seed=0, labeled=True):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(10, 3)), rng.normal(size=(10, 5))]
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]) if labeled else None
    return MultiViewDataset(views=views, labels=labels, name="toy")


# ---------------------------------------------------------------------------
# on-disk format

def test_matrix_file_size_law(tmp_path):
    ds = _toy_dataset()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "view0.mvcd").stat().st_size == 12 + 4 * 10 * 3
    assert (tmp_path / "view1.mvcd").stat().st_size == 12 + 4 * 10 * 5
    assert (tmp_path / "labels.mvcl").stat().st_size == 8 + 4 * 10


def test_save_load_round_trip_is_bit_exact(tmp_path):
    ds = _toy_dataset()
    manifest = save_dataset(ds, tmp_path)
    back = load_dataset(manifest)
    assert back.name == "toy"
    assert back.n_clusters == 3
    assert np.array_equal(back.labels, ds.labels)
    for a, b in zip(back.views, ds.views):
        assert np.array_equal(a, b)


def test_serialization_is_deterministic(tmp_path):
    ds = _toy_dataset()
    m1 = save_dataset(ds, tmp_path / "a")
    m2 = save_dataset(ds, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "a/view0.mvcd").read_bytes() == (tmp_path / "b/view0.mvcd").read_bytes()
    assert dataset_fingerprint(m1) == dataset_fingerprint(m2)


def test_fingerprint_tracks_content(tmp_path):
    m1 = save_dataset(_toy_dataset(seed=0), tmp_path / "a")
    m2 = save_dataset(_toy_dataset(seed=1), tmp_path / "b")
    assert dataset_fingerprint(m1) != dataset_fingerprint(m2)


def test_unlabeled_dataset_round_trip(tmp_path):
    ds = _toy_dataset(labeled=False)
    manifest = save_dataset(ds, tmp_path)
    assert "labels_file" not in json.loads(manifest.read_text())
    back = load_dataset(manifest)
    assert back.labels is None
    assert back.n_clusters is None


def test_bad_magic_is_diagnosed(tmp_path):
    manifest = save_dataset(_toy_dataset(), tmp_path)
    (tmp_path / "view0.mvcd").write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(DataFormatError, match="bad magic"):
        load_dataset(manifest)


def test_truncated_payload_is_diagnosed(tmp_path):
    manifest = save_dataset(_toy_dataset(), tmp_path)
    raw = (tmp_path / "view0.mvcd").read_bytes()
    (tmp_path / "view0.mvcd").write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match="truncated or oversized"):
        load_dataset(manifest)


def test_manifest_dim_mismatch_is_diagnosed(tmp_path):
    manifest = save_dataset(_toy_dataset(), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["views"][0]["dim"] = 99
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="dim mismatch"):
        load_dataset(manifest)


def test_manifest_missing_key_is_diagnosed(tmp_path):
    manifest = save_dataset(_toy_dataset(), tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["n_samples"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="missing key"):
        load_dataset(manifest)


@pytest.mark.parametrize("key", ["file", "dim"])
def test_manifest_view_entry_missing_key_is_diagnosed(tmp_path, key):
    manifest = save_dataset(_toy_dataset(), tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["views"][1][key]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"view 1 entry missing key '{key}'"):
        load_dataset(manifest)


def test_invalid_json_is_diagnosed(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_dataset(manifest)


# ---------------------------------------------------------------------------
# container validation

def test_row_count_mismatch_between_views():
    with pytest.raises(DataFormatError, match="row-count mismatch"):
        MultiViewDataset(views=[np.zeros((4, 2)), np.zeros((5, 2))])


def test_label_length_mismatch():
    with pytest.raises(DataFormatError, match="row-count mismatch"):
        MultiViewDataset(views=[np.zeros((4, 2))], labels=np.array([0, 1, 0]))


def test_negative_labels_rejected():
    with pytest.raises(DataFormatError, match="non-negative"):
        MultiViewDataset(views=[np.zeros((3, 2))], labels=np.array([0, -1, 1]))


def test_label_out_of_declared_range():
    with pytest.raises(DataFormatError, match="label out of range"):
        MultiViewDataset(views=[np.zeros((3, 2))], labels=np.array([0, 1, 2]), n_clusters=2)


@pytest.mark.parametrize("labels, k", [([0, 1, 60_000_000], None), ([0, 1, 1], 10**12)])
def test_more_clusters_than_samples_rejected(labels, k):
    # every id 0..k-1 must occur, so k <= N; the check builds no set of k ids
    with pytest.raises(DataFormatError, match=f"clusters cannot all occur in 3 samples "
                                              rf"\(largest label {max(labels)}\)"):
        MultiViewDataset(views=[np.zeros((3, 2))], labels=np.array(labels), n_clusters=k)


def test_missing_cluster_ids_rejected():
    with pytest.raises(DataFormatError, match=r"missing cluster id\(s\): \[1\]"):
        MultiViewDataset(views=[np.zeros((3, 2))], labels=np.array([0, 2, 2]), n_clusters=3)


def test_empty_and_non_2d_views_rejected():
    with pytest.raises(DataFormatError, match="at least one view"):
        MultiViewDataset(views=[])
    with pytest.raises(DataFormatError, match="2-D"):
        MultiViewDataset(views=[np.zeros(4)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_values_rejected(bad):
    second = np.zeros((5, 3))
    second[2, 1] = bad            # 1e300 overflows float32 to inf
    second[4, 0] = np.nan
    with pytest.raises(DataFormatError, match="view 1: non-finite value in row 2"):
        MultiViewDataset(views=[np.zeros((5, 2)), second])


def test_views_quantize_through_float32_at_construction():
    third = np.full((2, 2), 1.0 / 3.0)
    ds = MultiViewDataset(views=[third])
    assert np.array_equal(ds.views[0], third.astype(np.float32).astype(np.float64))
    assert not np.array_equal(ds.views[0], third)


def test_construction_from_float32_views_makes_one_float64_copy():
    # a float32 view is widened once; there is no float64 copy of the input
    # beside the quantized one (the float64 path peaked at 1.5x of this)
    rng = np.random.default_rng(2)
    views = [rng.normal(size=(2_000, d)).astype(np.float32) for d in (20, 30, 25)]
    widened = sum(8 * v.size for v in views)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = MultiViewDataset(views=views)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * widened, f"construction peaked at {peak / widened:.2f}x the views"
    for a, b in zip(ds.views, views):
        assert a.dtype == np.float64 and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_min_max_example():
    ds = MultiViewDataset(views=[np.array([[2.0], [4.0], [6.0]])])
    out = normalize_views(ds)
    assert np.allclose(out.views[0][:, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_column_maps_to_zero():
    ds = MultiViewDataset(views=[np.array([[7.0, 1.0], [7.0, 3.0]])])
    out = normalize_views(ds)
    assert np.array_equal(out.views[0][:, 0], [0.0, 0.0])
    assert np.allclose(out.views[0][:, 1], [0.0, 1.0])


def test_normalize_is_pure_and_idempotent():
    ds = _toy_dataset()
    before = [v.copy() for v in ds.views]
    once = normalize_views(ds)
    twice = normalize_views(once)
    for orig, kept in zip(before, ds.views):
        assert np.array_equal(orig, kept)
    for a, b in zip(once.views, twice.views):
        assert np.array_equal(a, b)


def test_rescale_hits_the_target_level_per_view():
    rng = np.random.default_rng(11)
    ds = MultiViewDataset(views=[rng.normal(size=(40, 3)) * 9.0,
                                 rng.normal(size=(40, 5)) + 100.0])
    out = rescale_views(ds)
    for v in out.views:
        assert abs(v.mean(axis=0)).max() < 1e-6
        assert np.sqrt((v ** 2).mean()) == pytest.approx(0.125, rel=1e-6)


def test_rescale_preserves_within_view_geometry():
    # one scalar stretch per view: pairwise distance ratios survive exactly
    rng = np.random.default_rng(12)
    ds = MultiViewDataset(views=[rng.normal(size=(12, 4)) * 3.0 + 5.0])
    out = rescale_views(ds)
    d_in = np.linalg.norm(ds.views[0][:, None] - ds.views[0][None, :], axis=2)
    d_out = np.linalg.norm(out.views[0][:, None] - out.views[0][None, :], axis=2)
    mask = d_in > 0
    ratios = d_out[mask] / d_in[mask]
    # spread only from the container's float32 quantization of the result
    assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-6


def test_rescale_constant_view_stays_zero():
    ds = MultiViewDataset(views=[np.full((6, 2), 3.0)])
    out = rescale_views(ds)
    assert np.array_equal(out.views[0], np.zeros((6, 2)))


# ---------------------------------------------------------------------------
# synthetic generator

def test_synthetic_is_deterministic():
    a = generate_synthetic(SyntheticSpec(n_samples=50, seed=3))
    b = generate_synthetic(SyntheticSpec(n_samples=50, seed=3))
    c = generate_synthetic(SyntheticSpec(n_samples=50, seed=4))
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.views[0], c.views[0])


def test_synthetic_views_are_the_float64_expression_quantized():
    # the views are rounded to float32 inside the generator; the bytes are
    # those of the float64 expression quantized at construction
    spec = SyntheticSpec(n_samples=61, n_clusters=3, view_dims=[4, 9], separation=2.5,
                         noise_std=1.5, seed=11)
    ds = generate_synthetic(spec)
    n, k = spec.n_samples, spec.n_clusters
    rng = np.random.default_rng(spec.seed)
    latent_dim = max(4, k)
    centroids = rng.normal(size=(k, latent_dim)) * spec.separation
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = rng.permutation(np.repeat(np.arange(k), counts))
    latent = centroids[labels] + rng.normal(size=(n, latent_dim))
    assert np.array_equal(ds.labels, labels)
    for dim, view in zip(spec.view_dims, ds.views):
        w = rng.normal(size=(latent_dim, dim)) / np.sqrt(latent_dim)
        expected = (latent @ w + rng.normal(size=(n, dim)) * spec.noise_std)
        assert view.dtype == np.float64
        assert view.tobytes() == expected.astype(np.float32).astype(np.float64).tobytes()


def test_synthetic_save_load_round_trip_is_bit_exact(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n_samples=40, seed=5))
    back = load_dataset(save_dataset(ds, tmp_path))
    assert np.array_equal(back.labels, ds.labels)
    for a, b in zip(back.views, ds.views):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_synthetic_labels_are_balanced():
    ds = generate_synthetic(SyntheticSpec(n_samples=103, n_clusters=4, seed=0))
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 103


def test_synthetic_shapes_and_metadata():
    spec = SyntheticSpec(n_samples=30, n_clusters=3, view_dims=[5, 7], seed=1, name="blobs")
    ds = generate_synthetic(spec)
    assert ds.n_samples == 30
    assert ds.view_dims == [5, 7]
    assert ds.n_clusters == 3
    assert ds.name == "blobs"


def test_synthetic_validation():
    with pytest.raises(ValueError, match="n_samples >= n_clusters"):
        generate_synthetic(SyntheticSpec(n_samples=2, n_clusters=3))
    with pytest.raises(ValueError, match="view_dims"):
        generate_synthetic(SyntheticSpec(view_dims=[0]))
    with pytest.raises(ValueError, match="positive"):
        generate_synthetic(SyntheticSpec(separation=-1.0))



@pytest.mark.parametrize("field, value", [
    ("separation", float("inf")), ("separation", 0.0), ("separation", True),
    ("noise_std", float("nan")), ("noise_std", "0.5"), ("noise_std", -0.5),
])
def test_synthetic_spread_is_checked_before_any_draw(monkeypatch, field, value):
    def no_draw(*args, **kwargs):
        raise AssertionError("data drawn before the spec was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=f"^{field} must be a finite positive number, got"):
        generate_synthetic(SyntheticSpec(**{field: value}))


def test_well_separated_blobs_cluster_from_a_raw_view():
    # high separation, low noise: a single view should already be clusterable
    spec = SyntheticSpec(n_samples=200, n_clusters=4, view_dims=[12],
                         separation=10.0, noise_std=0.1, seed=5)
    ds = generate_synthetic(spec)
    result = kmeans(ds.views[0], 4, seed=0)
    assert accuracy(result.assignments, ds.labels) >= 0.95
