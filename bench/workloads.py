"""The benchmark's three workloads.

Each workload builds its inputs from the seed, warms up, then runs one timed
operation at a time through partgraph's public entry points (``train_toy``,
``total_loss`` and ``cli.main``) and checks the outputs outside the timed
region. Every call goes through a module attribute looked up at call time,
so the tracer's patches see it.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from partgraph import adjacency, cli, condnet, core, formats, losses, metrics, synth
from partgraph.adjacency import AdjacencyConfig
from partgraph.condnet import EmbeddingConfig, ToyNetConfig
from partgraph.losses import LossWeights

# Criterion-6 configuration (tests/test_acceptance.py).
ACCEPTANCE_SEED = 100
INIT_SEED = 7
LR = 0.2
NET = ToyNetConfig(num_stages=2, encoder_channels=(8, 16), decoder_channels=(16, 8),
                   embedding=EmbeddingConfig.toy(2), conditioning="multi", seed=0)
ADJ = AdjacencyConfig(distance_threshold=4, soft_mode="smooth_max", beta=20.0)
ADJ_HARD = AdjacencyConfig(distance_threshold=4, soft_mode="hard_max")
WEIGHTS = LossWeights(lambda1=1e-3, lambda2=0.1)

TOY_SCENES = 20
TOY_SPEC = dict(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2))
# Steps per train_toy call. More than one, so that work repeated on every
# step (the reference adjacency, the one-hots) shows as waste.
TRAIN_STEPS = 5
REFERENCE_TRACE = Path(__file__).with_name("reference_trace.json")

# Paper scale: 12 objects x 9 parts = 108 parts plus background, 256 x 256.
PAPER_SPEC = dict(width=256, height=256, num_objects=12, parts_per_object=(9,) * 12)
PAPER_CLASSES = 109
CLI_SCENES = 8
# Seeds of different workloads and repetitions stay far apart.
SEED_STRIDE = 1000


# ---------------------------------------------------------------------------
# Calibration kernels
# ---------------------------------------------------------------------------
# On a shared host the machine's speed drifts, by up to 1.5x, and holds each
# level for seconds to minutes, longer than a run. The benchmark times a fixed
# kernel around every operation and reports timings at the speed where that
# kernel takes REFERENCE_S (README.md, "Run-to-run noise"). The kernels call
# no partgraph code, so no change to the program can move them. Code on small
# arrays slows with the drift far more than code on paper-scale fields, so
# each workload has a kernel of its own kind; a mismatched one added noise.

def _window_slices(n: int, r: int) -> list:
    """(output, input) slices of an n x n field for every offset within r."""
    axis = [(slice(max(d, 0), n + min(d, 0)), slice(max(-d, 0), n + min(-d, 0)))
            for d in range(-r, r + 1)]
    return [((oy, ox), (iy, ix)) for oy, iy in axis for ox, ix in axis]


def _windowed_max_exp(x: np.ndarray, windows: list) -> None:
    """Shifted-window max and exp accumulation, the pattern of soft dilation."""
    peak = x.copy()  # fresh every call, so the values and the timing never drift
    for out, win in windows:
        np.maximum(peak[out], x[win], out=peak[out])
        peak[out] += np.exp(x[win] - peak[out])


class SmallArrayKernel:
    """Python arithmetic, numpy calls on 32x32 arrays and small products."""

    REFERENCE_S = 0.050

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.windows = rng.random((32, 32)), _window_slices(32, 4)
        self.w, self.t = rng.random((16, 8)), rng.random((8, 32, 32))
        self.m = rng.random((300, 300))

    def __call__(self) -> None:
        s = 0
        for i in range(200_000):
            s += i * i
        for _ in range(12):
            _windowed_max_exp(self.x, self.windows)
            for _ in range(20):
                np.tensordot(self.w, self.t, axes=([1], [0]))
        for _ in range(16):
            self.m @ self.m


class FieldKernel:
    """Shifted-window max and exp over one channel of a channel-last stack.

    Soft dilation at paper scale reads channel c of an (H, W, 109) map, a
    strided view with one cache line per pixel, so it is bound by cache
    traffic more than by arithmetic. This kernel reads its field the same way.
    """

    REFERENCE_S = 0.055

    def __init__(self):
        self.x = np.random.default_rng(0).random((256, 256, 8))[:, :, 0]
        self.windows = _window_slices(256, 4)

    def __call__(self) -> None:
        _windowed_max_exp(self.x, self.windows)


@dataclass
class OpResult:
    seconds: float   # timed wall time of the operation
    items: int       # work items it completed (scene-steps, images, scenes)
    samples: dict    # timing name -> list of seconds
    attempted: int
    failed: int


def noisy_softmax(labels: np.ndarray, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Softmax of (3 * one-hot(labels) + 0.5 * standard normal noise), channel-last."""
    h, w = labels.shape
    logits = 0.5 * rng.standard_normal((h, w, num_classes))
    logits[np.arange(h)[:, None], np.arange(w)[None, :], labels] += 3.0
    logits -= logits.max(axis=2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=2, keepdims=True)
    return logits


def brute_force_adjacency(labels: np.ndarray, num_parts: int, radius: int) -> np.ndarray:
    """Row-normalized square-element dilate-intersect adjacency, pixel by pixel.

    Entry (i, j) counts the pixels whose border-clipped (2r+1)^2 window holds
    both label i and label j, which is the number of pixels in both dilated
    part masks. Shares no code with partgraph's dilation.
    """
    h, w = labels.shape
    r = radius
    padded = np.full((h + 2 * r, w + 2 * r), num_parts, dtype=np.int64)  # sentinel class
    padded[r:r + h, r:r + w] = labels
    windows = sliding_window_view(padded, (2 * r + 1, 2 * r + 1)).reshape(h * w, -1)
    present = np.zeros((h * w, num_parts + 1))
    present[np.arange(h * w)[:, None], windows] = 1.0
    present = present[:, :num_parts]
    counts = present.T @ present
    np.fill_diagonal(counts, 0.0)
    norms = np.linalg.norm(counts, axis=1)
    return counts / np.where(norms > 0.0, norms, 1.0)[:, None]


# ---------------------------------------------------------------------------
# train_toy32
# ---------------------------------------------------------------------------

def toy_trace(spec_seed: int, steps: int) -> list[list[float]]:
    """(ce, rec, gm, total) per step of train_toy on the 20-scene 32x32 set."""
    scenes, mapping = synth.generate_dataset(synth.SceneSpec(**TOY_SPEC, seed=spec_seed),
                                             TOY_SCENES)
    _, trace = condnet.train_toy(scenes, mapping, NET, WEIGHTS, ADJ, steps, LR, seed=INIT_SEED)
    return [[r.ce, r.rec, r.gm, r.total] for r in trace]


class TrainToy32:
    name = "train_toy32"
    item = "scene-step"
    throughput = "train.scene_steps_per_s"
    timings = (("train.step_ms_p50", "step", 50),)
    kernel = SmallArrayKernel

    def __init__(self, seed: int, workdir: Path):
        self.spec = synth.SceneSpec(**TOY_SPEC, seed=ACCEPTANCE_SEED + SEED_STRIDE * seed)
        self.first_trace = None

    def setup(self) -> None:
        self.scenes, self.mapping = synth.generate_dataset(self.spec, TOY_SCENES)
        condnet.train_toy(self.scenes, self.mapping, NET, WEIGHTS, ADJ, 1, LR, seed=INIT_SEED)

    def op(self, index: int) -> OpResult:
        start = perf_counter()
        _, trace = condnet.train_toy(self.scenes, self.mapping, NET, WEIGHTS, ADJ,
                                     TRAIN_STEPS, LR, seed=INIT_SEED)
        seconds = perf_counter() - start
        rows = [(r.ce, r.rec, r.gm, r.total) for r in trace]
        if self.first_trace is None:
            self.first_trace = rows
        # same inputs, same code: the trace must repeat bit for bit
        ok = len(rows) == TRAIN_STEPS and bool(np.isfinite(rows).all()) and rows == self.first_trace
        return OpResult(seconds, TOY_SCENES * TRAIN_STEPS, {"step": [seconds / TRAIN_STEPS]},
                        1, 0 if ok else 1)

    def checks(self) -> list[tuple[str, bool, str]]:
        ref = json.loads(REFERENCE_TRACE.read_text())
        got = toy_trace(ref["spec_seed"], len(ref["trace"]))
        worst = float(np.max(np.abs(np.subtract(got, ref["trace"])) / np.abs(ref["trace"])))
        ok = bool(np.isfinite(got).all()) and worst <= ref["rel_tol"]
        return [("reference loss trace", ok,
                 f"{len(got)} steps, worst relative error {worst:.2e} (tolerance {ref['rel_tol']:g})")]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# loss_paper108
# ---------------------------------------------------------------------------

class LossPaper108:
    name = "loss_paper108"
    item = "image"
    throughput = "loss.images_per_s"
    timings = (("loss.image_ms_p50", "image", 50),)
    kernel = FieldKernel

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = synth.SceneSpec(**PAPER_SPEC, seed=ACCEPTANCE_SEED + SEED_STRIDE * seed)
        self.last = None

    def _probs(self, index: int) -> np.ndarray:
        # a fresh prediction for every operation, so nothing can be reused
        return noisy_softmax(self.parts.labels, PAPER_CLASSES,
                             np.random.default_rng([self.seed, index]))

    def setup(self) -> None:
        self.last = None
        self.parts, self.objects, self.mapping, _ = synth.generate(self.spec)
        pred = core.ProbMap(self._probs(0))
        losses.total_loss(pred, self.parts, self.objects, self.mapping, ADJ, WEIGHTS)

    def op(self, index: int) -> OpResult:
        self.last = None
        probs = self._probs(index + 1)
        pred = core.ProbMap(probs)
        start = perf_counter()
        result, grad = losses.total_loss(pred, self.parts, self.objects, self.mapping,
                                         ADJ, WEIGHTS)
        seconds = perf_counter() - start
        ok = math.isfinite(result.total) and bool(np.isfinite(grad).all())
        self.last = (probs, grad)
        return OpResult(seconds, 1, {"image": [seconds]}, 1, 0 if ok else 1)

    def _value(self, probs: np.ndarray, reference) -> float:
        pred = core.ProbMap(probs)
        ce, _ = losses.cross_entropy(pred, self.parts)
        rec, _ = losses.reconstruction_loss(pred, self.objects, self.mapping)
        gm = adjacency.gm_value(probs, reference, ADJ)
        return ce + WEIGHTS.lambda1 * rec + WEIGHTS.lambda2 * gm

    def checks(self) -> list[tuple[str, bool, str]]:
        out = []
        soft, _ = adjacency.soft_adjacency(core.one_hot(self.parts, PAPER_CLASSES), ADJ_HARD)
        discrete = adjacency.adjacency_from_labels(self.parts, PAPER_CLASSES, ADJ_HARD)
        diff = float(np.abs(soft.entries - discrete.entries).max())
        out.append(("one-hot hard_max soft adjacency equals discrete counts",
                    diff == 0.0, f"max |difference| {diff:g}"))

        probs, grad = self.last
        rng = np.random.default_rng([self.seed, 1 << 30])
        direction = rng.standard_normal(probs.shape)
        direction -= direction.mean(axis=2, keepdims=True)  # stays on the simplex
        direction /= np.abs(direction).max()
        h = min(1e-4, 0.5 * float(probs.min()))
        reference = adjacency.normalize_rows(
            adjacency.adjacency_from_labels(self.parts, PAPER_CLASSES, ADJ))
        numeric = (self._value(probs + h * direction, reference)
                   - self._value(probs - h * direction, reference)) / (2.0 * h)
        analytic = float(np.sum(grad * direction))
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        out.append(("directional central difference of total_loss", err < 1e-4,
                    f"analytic {analytic:.9g}, numeric {numeric:.9g}, relative error {err:.2e} "
                    f"(step {h:.2g}, tolerance 1e-4)"))
        return out

    def close(self) -> None:
        self.last = None


# ---------------------------------------------------------------------------
# cli_eval
# ---------------------------------------------------------------------------

class CliEval:
    name = "cli_eval"
    item = "scene"
    throughput = "cli.scenes_per_s"
    timings = (("cli.graph_ms_p50", "graph", 50), ("cli.graph_ms_p90", "graph", 90),
               ("cli.metrics_ms_p50", "metrics", 50))
    kernel = SmallArrayKernel

    def __init__(self, seed: int, workdir: Path):
        self.base_seed = ACCEPTANCE_SEED + SEED_STRIDE * seed
        self.dir = workdir
        self.gt_dir, self.pred_dir, self.out_dir = (workdir / d for d in ("gt", "pred", "out"))
        self.labelset = workdir / "labelset.json"

    def _graph_argv(self, i: int) -> list[str]:
        return ["graph", "--in", str(self.gt_dir / f"scene_{i:03d}.segmap"),
                "--parts", str(PAPER_CLASSES), "--normalized",
                "--out", str(self.out_dir / f"graph_{i:03d}.csv")]

    def _metrics_argv(self) -> list[str]:
        return ["metrics", "--pred-dir", str(self.pred_dir), "--gt-dir", str(self.gt_dir),
                "--labelset", str(self.labelset), "--out", str(self.out_dir / "metrics.json")]

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        for d in (self.gt_dir, self.pred_dir, self.out_dir):
            d.mkdir(parents=True)
        # scene i is the ground truth of file i and the prediction of file i - 1,
        # so every prediction comes from a different synth seed than its truth
        scenes = [synth.generate(synth.SceneSpec(**PAPER_SPEC, seed=self.base_seed + i))
                  for i in range(CLI_SCENES + 1)]
        formats.save_labelset(core.LabelSet(scenes[0][2]), self.labelset)
        for i in range(CLI_SCENES):
            formats.save_map(scenes[i][0], self.gt_dir / f"scene_{i:03d}.segmap")
            formats.save_map(scenes[i + 1][0], self.pred_dir / f"scene_{i:03d}.segmap")
        cli.main(self._graph_argv(0))
        cli.main(self._metrics_argv())

    def op(self, index: int) -> OpResult:
        graph, failed = [], 0
        for i in range(CLI_SCENES):
            start = perf_counter()
            code = cli.main(self._graph_argv(i))
            graph.append(perf_counter() - start)
            failed += code != 0
        start = perf_counter()
        code = cli.main(self._metrics_argv())
        metrics_s = perf_counter() - start
        failed += code != 0
        return OpResult(sum(graph) + metrics_s, CLI_SCENES,
                        {"graph": graph, "metrics": [metrics_s]}, CLI_SCENES + 1, failed)

    def checks(self) -> list[tuple[str, bool, str]]:
        out = []
        gt = formats.load_map(self.gt_dir / "scene_000.segmap")
        printed = np.loadtxt(self.out_dir / "graph_000.csv", delimiter=",")
        expected = brute_force_adjacency(gt.labels, PAPER_CLASSES, ADJ.dilation_radius)
        worst = float(np.abs(printed - expected).max())
        out.append(("graph output equals brute-force adjacency", printed.shape == expected.shape
                    and bool(np.allclose(printed, expected, rtol=1e-8, atol=1e-12)),
                    f"max |difference| {worst:.2e} over {expected.size} entries"))

        total = correct = 0
        for i in range(CLI_SCENES):
            name = f"scene_{i:03d}.segmap"
            pred, truth = formats.load_map(self.pred_dir / name), formats.load_map(self.gt_dir / name)
            total += metrics.confusion(pred, truth, PAPER_CLASSES).total
            correct += int(np.count_nonzero(pred.labels == truth.labels))
        pixels = CLI_SCENES * PAPER_SPEC["width"] * PAPER_SPEC["height"]
        out.append(("confusion totals equal the pixel count", total == pixels,
                    f"{total} counted, {pixels} pixels"))
        mpa = json.loads((self.out_dir / "metrics.json").read_text())["mpa"]
        out.append(("metrics mpa equals pixel accuracy", math.isclose(mpa, correct / pixels,
                                                                    rel_tol=1e-12),
                    f"printed {mpa!r}, counted {correct}/{pixels}"))
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainToy32, LossPaper108, CliEval)}
