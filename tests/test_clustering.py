"""K-means and agreement metric tests against enumeration oracles."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    accuracy_bruteforce,
    best_two_partition_centers,
    kmeans_reference,
    nmi_reference,
    purity_reference,
)
from tmcn import clustering
from tmcn.clustering import (
    MetricTriple,
    _lloyd,
    accuracy,
    evaluate_labels,
    kmeans,
    nmi,
    purity,
)


# ---------------------------------------------------------------------------
# k-means

def test_single_cluster_center_is_the_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 3))
    result = kmeans(pts, 1, seed=0)
    assert np.array_equal(result.assignments, np.zeros(10, dtype=np.int64))
    assert np.allclose(result.centers[0], pts.mean(axis=0))
    assert result.objective == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())


def test_k_equals_n_gives_zero_objective():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(6, 2))
    result = kmeans(pts, 6, seed=0)
    assert result.objective == pytest.approx(0.0, abs=1e-20)
    assert len(set(result.assignments.tolist())) == 6


def test_two_pair_line_recovers_exact_centers():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    result = kmeans(pts, 2, seed=0)
    assert sorted(result.centers[:, 0].tolist()) == [0.5, 10.5]
    assert result.objective == pytest.approx(1.0)
    # enumeration over every split of the sorted line agrees
    assert sorted(best_two_partition_centers(pts[:, 0])) == [0.5, 10.5]


def test_objective_trace_never_increases():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 4))
    for k in (2, 5, 9):
        trace = kmeans(pts, k, seed=3).objective_trace
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier * (1.0 + 1e-12) + 1e-12


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 3))
    a = kmeans(pts, 4, seed=7)
    b = kmeans(pts, 4, seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centers, b.centers)
    assert a.objective == b.objective


def test_empty_cluster_reseeds_on_the_farthest_point():
    pts = np.array([[0.0], [0.1], [0.2], [50.0]])
    # both starting centers in the left clump: the right one starts empty-bound
    centers = np.array([[0.0], [0.05]])
    assign, new_centers, obj, _, _ = _lloyd(pts, (pts * pts).sum(axis=1), centers.copy(),
                                            max_iters=50, tol=1e-9)
    assert len(set(assign.tolist())) == 2
    assert obj < ((pts - pts.mean()) ** 2).sum()  # better than one blob


def test_tight_blobs_are_recovered_exactly():
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    labels = np.repeat(np.arange(3), 20)
    pts = centers[labels] + 0.05 * rng.normal(size=(60, 2))
    result = kmeans(pts, 3, seed=0)
    assert accuracy(result.assignments, labels) == 1.0


def test_kmeans_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="k must be"):
        kmeans(pts, 0)
    with pytest.raises(ValueError, match="k must be"):
        kmeans(pts, 5)
    with pytest.raises(ValueError, match="matrix"):
        kmeans(np.zeros(4), 2)
    # rows whose squared norm is not a float: named, not turned into NaN distances
    for value in (np.inf, np.nan, 1e200):
        bad = np.ones((4, 2))
        bad[2, 1] = value
        with pytest.raises(ValueError, match="row 2 has a non-finite squared norm"):
            kmeans(bad, 2)
    # finite squared norms whose distances and their sums do not fit a float
    huge = [[1.2e154, 0.0], [0.0, 1.2e154], [1.1e154, 1e153], [0.0, 1.1e154]]
    with pytest.raises(ValueError, match=r"distance scale 4 \* max squared norm \(1.44e\+308\) "
                                         r"\* N \(4\) overflows"):
        kmeans(huge, 2)


@pytest.mark.parametrize("n, d, k, seed", [
    (1, 3, 1, 0), (7, 1, 3, 1), (30, 4, 5, 2), (60, 2, 9, 3), (200, 16, 4, 4),
    (500, 64, 10, 5),
    (20, 2, 7, 9),  # one restart reseeds an empty cluster on its farthest point
    (300, 8, 5, 6),  # blocks of 128, 128 and 44 rows
])
def test_kmeans_matches_the_allocating_reference_bitwise(n, d, k, seed):
    # The assignments and iteration counts must match bit for bit.  The floats
    # differ by about an ulp: the library sums the centers and the objective
    # block by block, the reference over all rows at once.
    pts = np.random.default_rng([n, d, k, seed]).normal(size=(n, d))
    got = kmeans(pts, k, seed=seed)
    want = kmeans_reference(pts, k, seed=seed)
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert got.n_iter == want.n_iter
    assert np.allclose(got.centers, want.centers, rtol=1e-12, atol=0.0)
    assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)
    assert got.objective_trace == pytest.approx(want.objective_trace, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, d, k, seed", [(300, 8, 5, 0), (40, 3, 7, 1), (100, 2, 5, 1)])
def test_lloyd_from_permuted_centers_ties_bitwise(n, d, k, seed):
    # a center's sum and the objective do not depend on the cluster's index
    rng = np.random.default_rng([n, d, k, seed])
    pts = rng.normal(size=(n, d))
    init = pts[rng.choice(n, k, replace=False)]
    perm = rng.permutation(k)
    norms = (pts * pts).sum(axis=1)
    assign, centers, obj, n_iter, trace = _lloyd(pts, norms, init.copy(), 300, 1e-9)
    p_assign, p_centers, p_obj, p_iter, p_trace = _lloyd(pts, norms, init[perm].copy(),
                                                         300, 1e-9)
    assert np.array_equal(perm[p_assign], assign)
    assert p_centers.tobytes() == centers[perm].tobytes()
    assert (p_obj, p_iter, p_trace) == (obj, n_iter, trace)


def test_restarts_that_reach_one_partition_tie_and_the_first_wins(monkeypatch):
    n, d, k, seed = 20, 2, 7, 9
    pts = np.random.default_rng([n, d, k, seed]).normal(size=(n, d))
    objectives = []
    real = clustering._lloyd

    def spy(*args):
        out = real(*args)
        objectives.append(out[2])
        return out

    monkeypatch.setattr(clustering, "_lloyd", spy)
    got = kmeans(pts, k, seed=seed)
    want = kmeans_reference(pts, k, seed=seed)
    # restarts 3 (2 iterations) and 6 (4 iterations) reach one partition
    assert objectives.count(got.objective) == 2
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert got.n_iter == want.n_iter == 2


def test_kmeans_makes_no_point_sized_array():
    # cluster_large's eval size: the points take 5.9 MiB, and no copy of them,
    # doubled or squared, may live alongside
    pts = np.random.default_rng(11).normal(size=(2000, 384))
    tracemalloc.start()
    try:
        kmeans(pts, 4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"k-means peaked at {peak / 2**20:.2f} MiB"


def test_objective_is_exact_far_from_the_origin():
    # the norms identity loses about 2e-3 of this objective to cancellation
    rng = np.random.default_rng(0)
    centers = 1e4 + rng.normal(size=(3, 8))
    labels = np.repeat(np.arange(3), 100)
    pts = centers[labels] + 1e-3 * rng.normal(size=(300, 8))
    result = kmeans(pts, 3, seed=0)
    direct = float(((pts - result.centers[result.assignments]) ** 2).sum())
    assert result.objective == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert accuracy(result.assignments, labels) == 1.0


def test_coincident_points_reseed_each_empty_cluster_on_its_own_point():
    result = kmeans(np.zeros((6, 3)), 3, seed=0)
    assert result.n_iter == 1
    assert np.bincount(result.assignments, minlength=3).min() == 1
    assert np.array_equal(result.centers, np.zeros((3, 3)))
    assert result.objective == 0.0


# ---------------------------------------------------------------------------
# metrics, frozen examples

def test_accuracy_frozen_examples():
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert accuracy([0, 1, 2], [2, 0, 1]) == 1.0    # pure relabeling
    assert accuracy([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25


def test_nmi_frozen_examples():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0   # independent partitions
    assert nmi([1, 1, 0, 0], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0   # constant side
    assert nmi([0, 1, 0, 1], [0, 0, 0, 0]) == 0.0


def test_purity_frozen_example():
    assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    assert purity([0, 1, 2], [0, 0, 0]) == 1.0      # singletons are trivially pure


def test_perfect_labelings_score_one_under_any_relabeling():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 4, size=40)
    truth[:4] = [0, 1, 2, 3]  # every class present
    perm = np.array([2, 3, 1, 0])
    triple = evaluate_labels(perm[truth], truth)
    assert triple.acc == 1.0
    assert triple.nmi == pytest.approx(1.0)
    assert triple.pur == 1.0


# ---------------------------------------------------------------------------
# metrics vs oracles

def test_accuracy_matches_brute_force_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 13))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, int(rng.integers(2, 5)), size=n)
        assert accuracy(pred, truth) == pytest.approx(accuracy_bruteforce(pred, truth))


def test_matcher_sum_matches_brute_force_on_random_tables():
    # contingency tables up to 7 x 7, square or not; small counts make many
    # ties between bijections, large ones make a single best bijection
    rng = np.random.default_rng(9)
    for trial in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 8, size=2))
        table = rng.integers(0, 3 if trial % 2 else 12, size=(rows, cols))
        table[-1, -1] += 1          # the last class and cluster occur: the shape holds
        truth, pred = np.nonzero(table)
        reps = table[truth, pred]
        truth, pred = np.repeat(truth, reps), np.repeat(pred, reps)
        # both divide the best matched count by n, so equal counts give equal floats
        assert accuracy(pred, truth) == accuracy_bruteforce(pred, truth)


def test_nmi_and_purity_match_contingency_references():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        pred = rng.integers(0, int(rng.integers(2, 6)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 6)), size=n)
        assert nmi(pred, truth) == pytest.approx(nmi_reference(pred, truth), abs=1e-12)
        assert purity(pred, truth) == pytest.approx(purity_reference(pred, truth), abs=1e-12)


def test_accuracy_never_falls_below_one_over_k():
    # averaging the matched total over the k cyclic bijections covers every
    # contingency cell once, so the best bijection scores at least n/k
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 30
        k = int(rng.integers(2, 5))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        assert accuracy(pred, truth) >= 1.0 / k - 1e-12


def test_metric_validation():
    with pytest.raises(ValueError, match="equal-length"):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        nmi([0, -1], [0, 1])
    with pytest.raises(ValueError, match="equal-length"):
        purity([], [])


def test_metrics_return_plain_floats():
    triple = evaluate_labels([0, 1, 1, 0], [0, 1, 0, 1])
    assert isinstance(triple, MetricTriple)
    for value in (triple.acc, triple.nmi, triple.pur):
        assert type(value) is float
