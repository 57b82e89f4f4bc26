"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The training criterion
takes a couple of minutes; everything else is seconds.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    AdjacencyMatrix,
    ConfusionMatrix,
    EmbeddingConfig,
    LabelMap,
    LabelSet,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    SceneSpec,
    ToyNetConfig,
    adjacency_from_labels,
    argmax_map,
    confusion,
    cross_entropy,
    generate_dataset,
    init_toy_params,
    mean_gm_loss,
    normalize_rows,
    one_hot,
    project_labels,
    reconstruction_loss,
    report,
    soft_adjacency,
    train_toy,
)
from partgraph.adjacency import gm_value, gm_value_and_grad
from partgraph.condnet import _toy_forward_cached, toy_backward
from partgraph.losses import total_loss

from oracles import (
    cross_entropy_kernel,
    dilate_intersect_oracle,
    fd_check,
    random_probs,
    reconstruction_kernel,
    rel_err,
    sample_coords,
)

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def random_mapping(rng, num_parts):
    """Background part 0 plus a random split of the remaining parts."""
    cuts = sorted(set(rng.choice(np.arange(2, num_parts), size=min(2, num_parts - 2),
                                 replace=False).tolist())) if num_parts > 2 else []
    return PartsToObjectsMapping((0, 1, *cuts, num_parts))


def test_criterion_1_readme_states_desk_scale_scope():
    with criterion(1, "README states that full-scale benchmark numbers are out of scope"):
        readme = (ROOT / "README.md").read_text()
        assert "59.0" in readme and "45.8" in readme
        lowered = readme.lower()
        assert "not" in lowered and "scope" in lowered
        # the substitute verification strategy is named
        assert "finite difference" in lowered or "finite-difference" in lowered
        assert "oracle" in lowered


def test_criterion_2_gradients_match_finite_differences():
    with criterion(2, "analytic gradients match central finite differences"):
        start = time.time()
        rng = np.random.default_rng(2025)
        cfg = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0)
        worst_ce = worst_rec = worst_gm = 0.0
        for _ in range(50):
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            c = int(rng.integers(3, 7))
            mapping = random_mapping(rng, c)
            probs = random_probs(rng, h, w, c)
            parts = rng.integers(0, c, (h, w)).astype(np.int32)
            objects = mapping.object_lookup()[parts]
            coords = sample_coords(rng, probs.shape, 20)

            _, g_ce = cross_entropy_kernel(probs, parts)
            worst_ce = max(worst_ce, fd_check(
                lambda x: cross_entropy_kernel(x, parts)[0], probs, g_ce, coords))

            _, g_rec = reconstruction_kernel(probs, objects, mapping)
            worst_rec = max(worst_rec, fd_check(
                lambda x: reconstruction_kernel(x, objects, mapping)[0], probs, g_rec, coords))

            reference = normalize_rows(adjacency_from_labels(
                LabelMap(parts), c, cfg))
            _, g_gm = gm_value_and_grad(probs, reference, cfg)
            worst_gm = max(worst_gm, fd_check(
                lambda x: gm_value(x, reference, cfg), probs, g_gm, coords))

        assert worst_ce < 1e-4, f"cross-entropy gradient off by {worst_ce}"
        assert worst_rec < 1e-4, f"reconstruction gradient off by {worst_rec}"
        assert worst_gm < 1e-4, f"graph-matching gradient off by {worst_gm}"

        # end-to-end network check: directional derivatives of the total loss
        mapping = PartsToObjectsMapping((0, 1, 3, 5))
        net = ToyNetConfig(num_stages=2, encoder_channels=(4, 6), decoder_channels=(6, 4),
                           embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=3)
        params = init_toy_params(net, 5, 3)
        x = rng.random((3, 8, 8))
        parts = LabelMap(rng.integers(0, 5, (8, 8)).astype(np.int32))
        objects = project_labels(parts, mapping)
        obj_probs = one_hot(objects, 3)
        weights = LossWeights()

        def loss_at(p):
            out, _ = _toy_forward_cached(x, obj_probs, net, p)
            rep, _ = total_loss(ProbMap(np.moveaxis(out, 0, 2)), parts, objects,
                                mapping, cfg, weights)
            return rep.total

        out, cache = _toy_forward_cached(x, obj_probs, net, params)
        rep, grad_probs = total_loss(ProbMap(np.moveaxis(out, 0, 2)), parts, objects,
                                     mapping, cfg, weights)
        grads = toy_backward(cache, np.moveaxis(grad_probs, 2, 0))
        step = 1e-5
        for _ in range(5):
            direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
            analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items())
            fd = (loss_at({k: v + step * direction[k] for k, v in params.items()})
                  - loss_at({k: v - step * direction[k] for k, v in params.items()})) / (2 * step)
            assert rel_err(analytic, fd) < 1e-3

        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_3_adjacency_matches_brute_force():
    with criterion(3, "adjacency equals the pixel-pair brute force, soft path equals discrete"):
        start = time.time()
        rng = np.random.default_rng(33)
        cfg = AdjacencyConfig(distance_threshold=4, soft_mode="hard_max")
        for _ in range(100):
            num_parts = int(rng.integers(2, 7))
            labels = rng.integers(0, num_parts, (16, 16)).astype(np.int32)
            m = LabelMap(labels, num_classes=num_parts)
            fast = adjacency_from_labels(m, num_parts, cfg).entries
            slow = dilate_intersect_oracle(labels, num_parts, "square", cfg.dilation_radius)
            assert np.array_equal(fast, slow)

            p = one_hot(m, num_parts)
            raw, _ = soft_adjacency(p, cfg)
            discrete = adjacency_from_labels(argmax_map(p), num_parts, cfg).entries
            assert np.array_equal(raw.entries, discrete)
        elapsed = time.time() - start
        assert elapsed < 30.0, f"adjacency checks took {elapsed:.1f}s"


def test_criterion_4_normalization_invariant():
    with criterion(4, "normalized rows have unit L2 norm, zero rows stay zero"):
        rng = np.random.default_rng(4)
        produced = []
        for _ in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * rng.integers(1, 100)
            raw[rng.integers(0, n)] = 0.0  # force a zero row
            np.fill_diagonal(raw, 0.0)
            produced.append(normalize_rows(AdjacencyMatrix(raw)))
        for _ in range(20):
            probs = random_probs(rng, 8, 8, 4)
            _, norm = soft_adjacency(ProbMap(probs), AdjacencyConfig())
            produced.append(norm)
        for matrix in produced:
            norms = np.linalg.norm(matrix.entries, axis=1)
            zero_rows = ~matrix.entries.any(axis=1)
            assert np.all(np.abs(norms[~zero_rows] - 1.0) <= 1e-9)
            assert np.all(norms[zero_rows] == 0.0)


def test_criterion_5_within_object_confusion_only_hits_cross_entropy():
    with criterion(5, "misplacing parts inside the correct object gives rec=0, ce>0"):
        mapping = PartsToObjectsMapping((0, 1, 3))  # 3 parts, 2 objects
        gt = np.zeros((8, 8), dtype=np.int32)
        gt[2:6, 2:6] = 1
        gt_parts = LabelMap(gt, num_classes=3)
        swapped = np.where(gt == 1, 2, gt).astype(np.int32)
        pred = one_hot(LabelMap(swapped, num_classes=3), 3)
        gt_objects = project_labels(gt_parts, mapping)
        rec, _ = reconstruction_loss(pred, gt_objects, mapping)
        ce, _ = cross_entropy(pred, gt_parts)
        assert rec == 0.0
        assert ce > 0.0


def _training_setup():
    spec = SceneSpec(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2),
                     seed=100)
    scenes, mapping = generate_dataset(spec, 30)
    net = ToyNetConfig(num_stages=2, encoder_channels=(8, 16), decoder_channels=(16, 8),
                       embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=0)
    cfg = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0)
    return scenes[:20], scenes[20:], mapping, net, cfg


def test_criterion_6_training_trend_and_graph_term_direction():
    with criterion(6, "200 training steps halve the loss; the graph term lowers held-out gm"):
        start = time.time()
        train_scenes, heldout, mapping, net, cfg = _training_setup()
        params_gm, trace_gm = train_toy(train_scenes, mapping, net,
                                        LossWeights(lambda1=1e-3, lambda2=0.1),
                                        cfg, steps=200, lr=0.2, seed=7)
        assert trace_gm[-1].total < 0.5 * trace_gm[0].total, (
            f"loss went {trace_gm[0].total:.4f} -> {trace_gm[-1].total:.4f}")

        params_plain, _ = train_toy(train_scenes, mapping, net,
                                    LossWeights(lambda1=1e-3, lambda2=0.0),
                                    cfg, steps=200, lr=0.2, seed=7)
        gm_with = mean_gm_loss(heldout, mapping, net, params_gm, cfg)
        gm_without = mean_gm_loss(heldout, mapping, net, params_plain, cfg)
        assert gm_with < gm_without, (
            f"held-out gm {gm_with:.5f} (with) vs {gm_without:.5f} (without)")
        elapsed = time.time() - start
        assert elapsed < 300.0, f"training criterion took {elapsed:.1f}s"


def test_criterion_7_ablation_plumbing():
    with criterion(7, "conditioning and weighting ablations run, differ, and reproduce"):
        spec = SceneSpec(width=16, height=16, num_objects=1, parts_per_object=(2,),
                         min_instance=4, seed=40)
        scenes, mapping = generate_dataset(spec, 2)
        weights = LossWeights()

        def run(conditioning, weighting):
            net = ToyNetConfig(num_stages=2, encoder_channels=(4, 6),
                               decoder_channels=(6, 4), embedding=EmbeddingConfig.toy(2),
                               conditioning=conditioning, seed=0)
            cfg = AdjacencyConfig(soft_mode="smooth_max", weighting=weighting)
            _, trace = train_toy(scenes, mapping, net, weights, cfg,
                                 steps=4, lr=0.05, seed=9)
            return tuple((r.ce, r.rec, r.gm, r.total) for r in trace)

        traces = {
            ("multi", "weighted"): run("multi", "weighted"),
            ("single", "weighted"): run("single", "weighted"),
            ("off", "weighted"): run("off", "weighted"),
            ("multi", "unweighted"): run("multi", "unweighted"),
        }
        keys = list(traces)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert traces[a] != traces[b], f"{a} and {b} produced identical traces"
        assert run("multi", "weighted") == traces[("multi", "weighted")]
        assert run("multi", "unweighted") == traces[("multi", "unweighted")]


def test_criterion_8_metrics_oracle():
    with criterion(8, "metric values match hand computation and accumulate exactly"):
        label_set = LabelSet(PartsToObjectsMapping((0, 1, 2)))
        cm = confusion(LabelMap(np.array([[0], [1], [1], [1]])),
                       LabelMap(np.array([[0], [0], [1], [1]])), 2)
        result = report(cm, label_set)
        assert abs(result.miou - 7.0 / 12.0) < 1e-12
        assert result.per_class_iou[0] == 0.5
        assert abs(result.per_class_iou[1] - 2.0 / 3.0) < 1e-15

        rng = np.random.default_rng(88)
        labels = rng.integers(0, 5, (8, 8)).astype(np.int32)
        labels.ravel()[:5] = np.arange(5)
        perfect = report(confusion(LabelMap(labels), LabelMap(labels), 5),
                         LabelSet(PartsToObjectsMapping((0, 1, 3, 5))))
        assert perfect.miou == 1.0 and perfect.mpa == 1.0 and perfect.mca == 1.0
        assert perfect.object_avg == 1.0

        five_set = LabelSet(PartsToObjectsMapping((0, 1, 3, 5)))
        total = ConfusionMatrix(np.zeros((5, 5), dtype=np.int64))
        preds, gts = [], []
        for _ in range(10):
            pred = rng.integers(0, 5, (6, 6)).astype(np.int32)
            gt = rng.integers(0, 5, (6, 6)).astype(np.int32)
            preds.append(pred)
            gts.append(gt)
            total = total + confusion(LabelMap(pred), LabelMap(gt), 5)
        direct = confusion(LabelMap(np.concatenate(preds)), LabelMap(np.concatenate(gts)), 5)
        assert np.array_equal(total.counts, direct.counts)
        a, b = report(total, five_set), report(direct, five_set)
        assert a.miou == b.miou and a.mpa == b.mpa and a.mca == b.mca
        assert np.array_equal(a.per_class_iou, b.per_class_iou, equal_nan=True)


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "partgraph", *args],
                          capture_output=True)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical across --threads 1 and 8"):
        # shared fixtures
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[2:6, 1:4] = 1
        labels[2:6, 5:8] = 2
        parts = LabelMap(labels, num_classes=3)
        from partgraph import save_labelset, save_map, save_probmap
        save_map(parts, tmp_path / "parts.segmap")
        save_labelset(LabelSet(PartsToObjectsMapping((0, 1, 3))), tmp_path / "ls.json")
        save_probmap(one_hot(parts, 3), tmp_path / "pred.probmap")
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        save_map(parts, gt_dir / "a.segmap")
        save_map(parts, pred_dir / "a.segmap")
        config = {"scene": {"width": 16, "height": 16, "num_objects": 1,
                            "parts_per_object": [2], "min_instance": 4, "seed": 11},
                  "train_scenes": 2, "heldout_scenes": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(config))

        def commands(tag: str):
            w = tmp_path / tag
            w.mkdir()
            return [
                (("dilate", "--in", str(tmp_path / "parts.segmap"), "--radius", "2",
                  "--out", str(w / "d.segmap")), [w / "d.segmap"]),
                (("graph", "--in", str(tmp_path / "parts.segmap"), "--parts", "3",
                  "--T", "4"), []),
                (("loss", "--pred", str(tmp_path / "pred.probmap"),
                  "--gt", str(tmp_path / "parts.segmap"),
                  "--mapping", str(tmp_path / "ls.json"), "--json"), []),
                (("metrics", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                  "--labelset", str(tmp_path / "ls.json"), "--json"), []),
                (("train-toy", "--config", str(tmp_path / "cfg.json"), "--steps", "3",
                  "--lr", "0.05", "--seed", "5", "--trace", str(w / "trace.csv"),
                  "--params", str(w / "params.tprm")),
                 [w / "trace.csv", w / "params.tprm"]),
                (("synth", "--out-dir", str(w / "scenes"), "--count", "2", "--seed", "3"),
                 [w / "scenes" / "scene_0000.parts.segmap",
                  w / "scenes" / "scene_0000.objects.probmap",
                  w / "scenes" / "scene_0000.ppm",
                  w / "scenes" / "labelset.json"]),
            ]

        runs = {}
        for tag, threads in (("t1", "1"), ("t8", "8")):
            outputs = []
            for argv, files in commands(tag):
                result = _run_cli(*argv, "--threads", threads)
                assert result.returncode == 0, (argv, result.stderr)
                outputs.append(result.stdout)
                for f in files:
                    outputs.append(f.read_bytes())
            runs[tag] = outputs
        assert runs["t1"] == runs["t8"]
