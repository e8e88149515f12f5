"""Release acceptance suite: ten numbered criteria, one checklist line each.

Every test prints its verdict on the real stdout (bypassing capture) so a
full run reads as a checklist even under -q.  The synthetic benchmark and
the shared ablation are module fixtures; criterion 10's sixteen-cell grid
dominates the runtime at a few minutes single-threaded.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    OP_KINDS,
    accuracy_bruteforce,
    best_two_partition_centers,
    check_grads,
    contrastive_reference,
    cosine_matrix_reference,
    grad_rel_error,
    nmi_reference,
    numeric_grads,
    op_grad_case,
    purity_reference,
    scan_reference,
)
from tmcn import (
    ContrastiveConfig,
    ModelConfig,
    SyntheticSpec,
    Tape,
    Tensor,
    TmcnModel,
    TrainConfig,
    accuracy,
    average_similarity,
    contrastive_loss,
    evaluate,
    evaluate_labels,
    generate_synthetic,
    kmeans,
    nmi,
    parameter,
    purity,
    reconstruction_loss,
    rescale_views,
    run_ablation,
    save_dataset,
    train,
    view_similarity,
)
from tmcn.cli import main
from tmcn.fusion import MambaParams, selective_scan

# the pinned release configuration: every end-to-end criterion runs at
# exactly these settings, so a pass here certifies this configuration
ACCEPTANCE = TrainConfig(pretrain_epochs=15, joint_epochs=10, seed=1,
                         ascl_weight=0.01, hidden_dims=(128,),
                         seq_len=8, seq_dim=16, state_size=8)

BENCHMARK = SyntheticSpec(n_samples=500, n_clusters=4, view_dims=[20, 30, 25],
                          separation=6.0, noise_std=0.5, seed=7)


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    # capture is suspended so the checklist shows even for passing tests
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def raw_benchmark():
    return generate_synthetic(BENCHMARK)


@pytest.fixture(scope="module")
def scaled_benchmark(raw_benchmark):
    return rescale_views(raw_benchmark)


@pytest.fixture(scope="module")
def ablation(scaled_benchmark):
    return run_ablation(ACCEPTANCE, scaled_benchmark)


# ---------------------------------------------------------------------------
# 1. gradient suite: every op, then the full forward graph

def _full_graph_fd_error():
    """Worst FD relative error over every parameter of a tiny full model.

    Four samples, two views, 2x3 token grid, expansion 2, state size 3.
    The similarity weighting enters the training loss as detached data,
    so it is held fixed here as well.  Central differences straddle ReLU
    kinks, so the draw is checked to keep every hidden pre-activation
    well clear of zero before any gradients are compared.
    """
    rng = np.random.default_rng(8)
    model = TmcnModel([5, 4], ModelConfig(seq_len=2, seq_dim=3, expand_factor=2,
                                          state_size=3, proj_dim=4, hidden_dims=(6,)))
    xs = [Tensor(rng.normal(size=(4, d)) * 0.5) for d in (5, 4)]
    for m, (ae, x) in enumerate(zip(model.autoencoders, xs)):
        p = ae.params(f"view{m}")
        pre = (x.data @ p[f"view{m}.encoder.layer0.weight"].data
               + p[f"view{m}.encoder.layer0.bias"].data)
        z = (np.maximum(pre, 0.0) @ p[f"view{m}.encoder.layer1.weight"].data
             + p[f"view{m}.encoder.layer1.bias"].data)
        dpre = (z @ p[f"view{m}.decoder.layer0.weight"].data
                + p[f"view{m}.decoder.layer0.bias"].data)
        clearance = min(np.abs(pre).min(), np.abs(dpre).min())
        assert clearance > 1e-3, \
            f"view{m}: pre-activation {clearance:.1e} from a ReLU kink, FD unusable"
    ccfg = ContrastiveConfig(temperature=0.5)
    sim = average_similarity([view_similarity(z.data)
                              for z in model.encode_views(xs)])

    def forward():
        zs = model.encode_views(xs)
        rec = reconstruction_loss(xs, model.decode_views(zs))
        u = model.fuse(zs)
        h_fused, h_views = model.project(u, zs)
        closs, _ = contrastive_loss(h_fused, h_views, sim, ccfg)
        return rec * 0.25 + closs * 0.5   # per-sample rec plus weighted contrast

    leaves = list(model.params().values())
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        tape.backward(forward())
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in leaves]
    numeric = numeric_grads(lambda: forward().item(), leaves)
    return grad_rel_error(analytic, numeric)


def test_criterion_1_gradient_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_op, worst_kind = 0.0, "none"
    for kind in OP_KINDS:
        for _ in range(4):
            leaves, build = op_grad_case(kind, rng)
            # collect the error here, assert once at the criterion bound
            err = check_grads(build, leaves, rtol=float("inf"))
            if err > worst_op:
                worst_op, worst_kind = err, kind
    graph_err = _full_graph_fd_error()
    elapsed = time.perf_counter() - start
    ok = worst_op < 1e-5 and graph_err < 1e-4 and elapsed < 30.0
    _report(capsys, 1, ok, f"ops worst {worst_op:.2e} ({worst_kind}, bound 1e-5), "
                   f"full graph {graph_err:.2e} (bound 1e-4), {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 2. fused scan against the scalar unrolled recurrence

def test_criterion_2_scan_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 17))
        dp = int(rng.integers(1, 9))
        state = int(rng.integers(1, 5))
        params = MambaParams(
            a_log=parameter(rng.normal(scale=0.5, size=(dp, state))),
            b_proj=parameter(rng.normal(scale=0.5, size=(dp, state))),
            c_proj=parameter(rng.normal(scale=0.5, size=(dp, state))),
            delta_proj=parameter(rng.normal(scale=0.5, size=(dp, dp))),
            delta_bias=parameter(rng.normal(scale=0.5, size=dp)),
            skip=parameter(rng.normal(size=dp)),
        )
        x = rng.normal(size=(n, length, dp))
        got = selective_scan(Tensor(x), params).data
        ref = scan_reference(x, params.a_log.data, params.b_proj.data,
                             params.c_proj.data, params.delta_proj.data,
                             params.delta_bias.data, params.skip.data)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(capsys, 2, ok, f"50 cases, worst abs dev {worst:.2e} (bound 1e-10), "
                   f"{elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# 3. clustering metrics against enumeration oracles

def test_criterion_3_metric_oracles(capsys):
    rng = np.random.default_rng(31)
    acc_exact = True
    worst_nmi = worst_pur = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 41))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        acc_exact &= accuracy(pred, truth) == accuracy_bruteforce(pred, truth)
        worst_nmi = max(worst_nmi, abs(nmi(pred, truth) - nmi_reference(pred, truth)))
        worst_pur = max(worst_pur, abs(purity(pred, truth) - purity_reference(pred, truth)))
    ok = acc_exact and worst_nmi < 1e-12 and worst_pur < 1e-12
    _report(capsys, 3, ok, f"200 trials: ACC exact={acc_exact}, "
                   f"NMI dev {worst_nmi:.1e}, PUR dev {worst_pur:.1e} (bound 1e-12)")


# ---------------------------------------------------------------------------
# 4. k-means descent and the hand-checkable two-cluster optimum

def test_criterion_4_kmeans_descent_and_exact_centers(capsys):
    rng = np.random.default_rng(41)
    monotone = True
    for _ in range(30):
        pts = rng.normal(size=(int(rng.integers(10, 80)), int(rng.integers(1, 5))))
        res = kmeans(pts, int(rng.integers(1, 6)), seed=int(rng.integers(1000)),
                     restarts=3)
        # every restart is also guarded inside the solver; this checks the
        # winning trace end to end with the same tolerance
        monotone &= all(b <= a * (1.0 + 1e-12) + 1e-12
                        for a, b in zip(res.objective_trace, res.objective_trace[1:]))
    res = kmeans(np.array([[0.0], [1.0], [10.0], [11.0]]), 2, seed=0, restarts=5)
    centers = sorted(float(c) for c in res.centers.ravel())
    oracle = sorted(best_two_partition_centers([0.0, 1.0, 10.0, 11.0]))
    exact = centers == [0.5, 10.5] and centers == oracle
    ok = monotone and exact
    _report(capsys, 4, ok, f"30 traces non-increasing={monotone}, "
                   f"1-D centers {centers} == [0.5, 10.5] exactly={exact}")


# ---------------------------------------------------------------------------
# 5. contrastive loss closed form and the literal-mode floor

def test_criterion_5_contrastive_closed_form(capsys):
    # two orthogonal samples, one view, tau=1: every positive cosine is 1,
    # the self-excluded denominator is a single unit term, loss = -1/2
    h = Tensor(np.eye(2))
    sim = np.eye(2)
    loss, stats = contrastive_loss(
        h, [Tensor(np.eye(2))], sim,
        ContrastiveConfig(temperature=1.0, mode="self-excluded"))
    ref_loss, _ = contrastive_reference(
        [cosine_matrix_reference(np.eye(2), np.eye(2))], sim,
        1.0, "self-excluded", 1e-8)
    closed = (abs(loss.item() - (-0.5)) < 1e-9
              and abs(loss.item() - ref_loss) < 1e-9
              and stats.clamped == 0)
    # literal mode keeps j=i and subtracts e**(1/tau), driving the same
    # geometry's denominator negative: the floor must catch every term
    lit_loss, lit_stats = contrastive_loss(
        h, [Tensor(np.eye(2))], sim,
        ContrastiveConfig(temperature=1.0, mode="literal", floor=1e-8))
    floored = lit_stats.clamp_frac == 1.0 and np.isfinite(lit_loss.item())
    ok = closed and floored
    _report(capsys, 5, ok, f"self-excluded loss {loss.item():+.9f} (expect -0.5), "
                   f"literal clamp_frac {lit_stats.clamp_frac}")


# ---------------------------------------------------------------------------
# 6. end-to-end descent on the synthetic benchmark

def test_criterion_6_training_descends(capsys, scaled_benchmark):
    start = time.perf_counter()
    _, history = train(ACCEPTANCE, scaled_benchmark)
    elapsed = time.perf_counter() - start
    joint = [r.total_loss for r in history.phase_records("joint")]
    smooth = [float(np.mean(joint[max(0, i - 4):i + 1])) for i in range(len(joint))]
    # window-5 average is fully populated from the fifth joint epoch on
    descending = all(smooth[i + 1] <= smooth[i] for i in range(4, len(smooth) - 1))
    ok = descending and elapsed < 300.0
    _report(capsys, 6, ok, f"smoothed joint loss {smooth[4]:.2f} -> {smooth[-1]:.2f} "
                   f"non-increasing={descending}, {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 7. clustering quality and ablation direction

def test_criterion_7_quality_and_ablation_direction(capsys, ablation):
    acc = {mode: run.metrics.acc for mode, run in ablation.runs.items()}
    ok = (acc["full"] >= 0.95
          and acc["full"] >= acc["no-tmfn"]
          and acc["full"] >= acc["no-ascl"])
    _report(capsys, 7, ok, f"full {acc['full']:.4f} (>=0.95), "
                   f"no-tmfn {acc['no-tmfn']:.4f}, no-ascl {acc['no-ascl']:.4f}")


# ---------------------------------------------------------------------------
# 8. dominance over k-means on the raw concatenated views

def test_criterion_8_beats_raw_concat_kmeans(capsys, raw_benchmark, ablation):
    baseline = kmeans(np.concatenate(raw_benchmark.views, axis=1),
                      raw_benchmark.n_clusters, seed=ACCEPTANCE.seed, restarts=10)
    base_acc = evaluate_labels(baseline.assignments, raw_benchmark.labels).acc
    full_acc = ablation.runs["full"].metrics.acc
    ok = full_acc >= base_acc
    _report(capsys, 8, ok, f"full {full_acc:.4f} >= raw-concat k-means {base_acc:.4f}")


# ---------------------------------------------------------------------------
# 9. byte-identical reruns through the command line

def test_criterion_9_reruns_byte_identical(capsys, tmp_path, raw_benchmark):
    # the import-time default already pins the BLAS pools to one thread;
    # byte identity is only claimed under that pin
    manifest = save_dataset(raw_benchmark, tmp_path / "data")
    args = ["--set", "pretrain_epochs=4", "--set", "joint_epochs=3",
            "--set", "hidden_dims=64", "--set", "seq_len=4", "--set", "seq_dim=8",
            "--set", "state_size=4", "--set", "proj_dim=32", "--seed", "1"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main(["train", "--dataset", str(manifest), "--out", str(out)] + args)
        assert rc == 0
        outs.append(out)
    same_history = ((outs[0] / "history.csv").read_bytes()
                    == (outs[1] / "history.csv").read_bytes())
    same_checkpoint = ((outs[0] / "checkpoint.tmcn").read_bytes()
                       == (outs[1] / "checkpoint.tmcn").read_bytes())
    ok = same_history and same_checkpoint
    _report(capsys, 9, ok, f"history.csv identical={same_history}, "
                   f"checkpoint.tmcn identical={same_checkpoint}")


# ---------------------------------------------------------------------------
# 10. accuracy stays flat across the token-width / expansion grid

def test_criterion_10_sweep_flatness(capsys, scaled_benchmark):
    accs = {}
    for d, alpha in itertools.product((4, 16, 64, 128), (2, 4, 8, 12)):
        config = replace(ACCEPTANCE, seq_dim=d, expand_factor=alpha)
        model, _ = train(config, scaled_benchmark)
        result = evaluate(model, scaled_benchmark, seed=config.seed)
        accs[(d, alpha)] = result.metrics.acc
    spread = max(accs.values()) - min(accs.values())
    ok = spread < 0.15
    _report(capsys, 10, ok, f"16-cell grid acc in [{min(accs.values()):.3f}, "
                    f"{max(accs.values()):.3f}], spread {spread:.4f} (<0.15)")
