"""The three loss terms and a finite-difference gradient audit.

Shows the separation of concerns: cross-entropy penalizes every wrong pixel,
the reconstruction term only punishes mass placed outside the true object,
and the graph-matching term watches the part layout. Ends by checking the
combined analytic gradient against central finite differences.
"""

import numpy as np

import partgraph as pg
from partgraph.losses import total_loss


def main():
    rng = np.random.default_rng(0)
    mapping = pg.PartsToObjectsMapping((0, 1, 3))  # background + object with parts 1, 2
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[2:6, 2:6] = 1
    gt_parts = pg.LabelMap(gt, num_classes=3)
    gt_objects = pg.project_labels(gt_parts, mapping)
    cfg = pg.AdjacencyConfig(soft_mode="hard_max")
    weights = pg.LossWeights(lambda1=1e-3, lambda2=0.1)

    def describe(tag, pred):
        report, _ = total_loss(pred, gt_parts, gt_objects, mapping, cfg, weights)
        print(f"  {tag:<38} ce={report.ce:.4f} rec={report.rec:.4f} "
              f"gm={report.gm:.4f} total={report.total:.4f}")

    print("ground truth: part 1 square inside background")
    describe("perfect prediction", pg.one_hot(gt_parts, 3))

    within = np.where(gt == 1, 2, gt).astype(np.int32)
    describe("part 2 instead of part 1 (same object)",
             pg.one_hot(pg.LabelMap(within, num_classes=3), 3))

    outside = np.zeros_like(gt)
    outside[0:4, 0:4] = 1
    describe("right part, wrong place",
             pg.one_hot(pg.LabelMap(outside, num_classes=3), 3))

    print("note the middle row: reconstruction stays at zero because the mass"
          " never left the true object; only cross-entropy objects.")

    # gradient audit on a soft prediction
    probs = rng.random((8, 8, 3)) + 0.05
    probs /= probs.sum(axis=2, keepdims=True)
    pred = pg.ProbMap(probs)
    smooth_cfg = pg.AdjacencyConfig(soft_mode="smooth_max", beta=20.0)
    report, grad = total_loss(pred, gt_parts, gt_objects, mapping, smooth_cfg, weights)
    print(f"random prediction: total={report.total:.4f}")

    from partgraph.adjacency import gm_value, adjacency_from_labels, normalize_rows
    from partgraph.losses import _cross_entropy_raw, _reconstruction_raw
    reference = normalize_rows(adjacency_from_labels(gt_parts, 3, smooth_cfg))

    def objective(x):
        # the kernels take a (C, N, H, W) block and add their gradients into a buffer
        block = np.moveaxis(x, 2, 0)[:, None]
        discarded = np.zeros_like(block)
        ce = _cross_entropy_raw(block, gt_parts.labels[None], discarded)
        rec = _reconstruction_raw(block, gt_objects.labels[None], mapping, discarded)
        return ce + weights.lambda1 * rec + weights.lambda2 * gm_value(x, reference, smooth_cfg)

    h = 1e-4
    worst = 0.0
    for _ in range(12):
        idx = tuple(int(rng.integers(0, s)) for s in probs.shape)
        plus, minus = probs.copy(), probs.copy()
        plus[idx] += h
        minus[idx] -= h
        fd = (objective(plus) - objective(minus)) / (2 * h)
        worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-12))
    print(f"worst relative gradient error over 12 sampled coordinates: {worst:.2e}")


if __name__ == "__main__":
    main()
