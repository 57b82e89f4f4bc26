"""Command-line interface.

Subcommands: dilate, graph, loss, metrics, train-toy, synth. Results go to
stdout (or ``--out``/``--trace`` files); diagnostics go to stderr. Exit
codes: 0 success, 1 usage error, 2 data or format error (an input too
large for memory included), 3 numeric failure.

Identical invocations produce byte-identical output. ``--threads`` is
accepted and ignored: every command runs on one thread.

JSON configs (``train-toy --config``, ``synth --spec``) set only the keys
they name; every other value is the default of its config class. A key that
breaks the JSON rules in ``formats`` is a data error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import AdjacencyConfig, adjacency_from_labels, normalize_rows
from .condnet import CONDITIONING_MODES, ToyNetConfig, _check_schedule, mean_gm_loss, train_toy
from .core import LabelMap, LabelSet, argmax_map, one_hot
from .errors import DomainError, NumericError
from .formats import (
    FORMAT_VERSION,
    PROB_MAGIC,
    _config_fields,
    _load_json,
    _typed,
    load_labelset,
    load_map,
    load_probmap,
    save_labelset,
    save_map,
    save_params,
    save_ppm,
    save_probmap,
    save_segmap,
)
from .losses import LossWeights, total_loss
from .metrics import confusion, report
from .morphology import ELEMENT_SHAPES, SOFT_MODES, StructuringElement, dilate_array
from .synth import SceneSpec, generate, generate_dataset


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _write_result(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(rows) -> str:
    """CSV text, one %-template a row: floats as %.9g, other values as %s, and
    None (an undefined metric) as an empty cell."""
    return "".join(",".join(["%.9g" if isinstance(v, float) else "%s" for v in row])
                   % tuple(["" if v is None else v for v in row]) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# JSON configs
# ---------------------------------------------------------------------------

# JSON key -> field name, where a config accepts other keys than its field names
_ADJACENCY_KEYS = {"T": "distance_threshold", "element": "element_shape",
                   "weighting": "weighting", "soft_mode": "soft_mode", "beta": "beta"}
_NET_KEYS = {"stages": "num_stages", "encoder_channels": "encoder_channels",
             "decoder_channels": "decoder_channels", "conditioning": "conditioning",
             "embedding": "embedding"}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_dilate(args) -> int:
    grown = dilate_array(load_map(args.infile).labels != 0,
                         StructuringElement(args.shape, args.radius))
    save_map(LabelMap(grown.astype(np.int32), num_classes=2), args.out)
    return 0


def _adjacency_config(args, doc: dict | None = None) -> AdjacencyConfig:
    """AdjacencyConfig from the train-toy JSON keys in ``doc`` and the flags given."""
    return AdjacencyConfig(**_config_fields(
        AdjacencyConfig, doc or {}, "config", _ADJACENCY_KEYS,
        distance_threshold=args.T,
        element_shape=args.element,
        weighting="unweighted" if args.unweighted else None,
        include_background=False if getattr(args, "no_background", False) else None,
        soft_mode=getattr(args, "soft_mode", None),
        beta=getattr(args, "beta", None),
    ))


def _loss_weights(args, doc: dict | None = None) -> LossWeights:
    return LossWeights(**_config_fields(LossWeights, doc or {}, "config",
                                        lambda1=args.lambda1, lambda2=args.lambda2))


def _cmd_graph(args) -> int:
    label_map = load_map(args.infile)
    cfg = _adjacency_config(args)
    matrix = adjacency_from_labels(label_map, args.parts, cfg)
    if args.normalized:
        matrix = normalize_rows(matrix)
    if args.format == "json":
        doc = {"size": matrix.size, "kind": matrix.kind, "entries": matrix.entries.tolist()}
        _write_result(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        # Python floats: numpy scalars take twice as long to format
        _write_result(_csv(matrix.entries.tolist()), args.out)
    return 0


def _load_object_labels(path: str) -> LabelMap:
    """A label map, or a one-hot PROB file (as ``synth`` writes) read as its argmax labels."""
    with open(path, "rb") as f:
        is_prob = f.read(len(PROB_MAGIC)) == PROB_MAGIC
    if not is_prob:
        return load_map(path)
    objects = load_probmap(path)
    if not np.all((objects.probs == 0.0) | (objects.probs == 1.0)):
        raise DomainError(f"{path}: object probabilities are not one-hot")
    return argmax_map(objects)


def _cmd_loss(args) -> int:
    pred = load_probmap(args.pred)
    gt_parts = load_map(args.gt)
    label_set = load_labelset(args.mapping)
    gt_objects = _load_object_labels(args.gt_objects) if args.gt_objects else None
    cfg = _adjacency_config(args)
    weights = _loss_weights(args)
    result, _ = total_loss(pred, gt_parts, gt_objects, label_set.mapping, cfg, weights)
    if not np.isfinite(result.total):
        raise NumericError(f"loss is not finite: {result}")
    doc = asdict(result)
    width = max(map(len, doc))
    text = "".join(f"{key:<{width}} {value:.9g}\n" for key, value in doc.items())
    _write_result(json.dumps(doc, indent=2) + "\n" if args.json else text, args.out)
    return 0


def _cmd_metrics(args) -> int:
    label_set = load_labelset(args.labelset)
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    names = sorted(p.name for p in pred_dir.glob("*.segmap"))
    gt_names = sorted(p.name for p in gt_dir.glob("*.segmap"))
    if not names:
        raise DomainError(f"no .segmap files in {pred_dir}")
    if names != gt_names:
        raise DomainError("prediction and ground-truth directories hold different file names")
    total = None
    for name in names:
        cm = confusion(load_map(pred_dir / name), load_map(gt_dir / name), label_set.num_parts)
        total = cm if total is None else total + cm
    doc = report(total, label_set).to_dict()
    if args.format == "csv":
        # one row per class with a column per per-class list, then one row per scalar
        columns = {key.removeprefix("per_class_"): values for key, values in doc.items()
                   if key.startswith("per_class_")}
        part_names = label_set.mapping.part_names or [f"part_{i}" for i in range(label_set.num_parts)]
        rows = [["index", "name", *columns]]
        rows += [[i, name, *(values[i] for values in columns.values())]
                 for i, name in enumerate(part_names)]
        rows += [[key, "", value, *[""] * (len(columns) - 1)] for key, value in doc.items()
                 if not isinstance(value, list)]
        _write_result(_csv(rows), args.out)
    else:
        _write_result(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_train_toy(args) -> int:
    doc = _load_json(args.config, "train-toy config") if args.config else {}
    run = {"steps": 200, "lr": 5e-3, "seed": 7, "train_scenes": 20, "heldout_scenes": 0}
    weight_keys = ("lambda1", "lambda2")
    known = {"scene", "net", *weight_keys, *_ADJACENCY_KEYS, *run}
    for key in doc:
        if key not in known:
            raise DomainError(
                f"unknown key {key!r} in config; expected one of {', '.join(sorted(known))}")
        if key in run:
            run[key] = _typed(doc[key], type(run[key]), f"config.{key}")
    run.update((key, getattr(args, key)) for key in ("steps", "lr", "seed")
               if getattr(args, key) is not None)
    steps, lr, seed = run["steps"], run["lr"], run["seed"]
    num_train, num_heldout = run["train_scenes"], run["heldout_scenes"]
    for key, least in (("train_scenes", 1), ("heldout_scenes", 0)):
        if run[key] < least:
            raise DomainError(f"config.{key} must be >= {least}, got {run[key]}")

    spec = SceneSpec(**_config_fields(SceneSpec, doc.get("scene", {}), "scene"))
    net = ToyNetConfig(**_config_fields(ToyNetConfig, doc.get("net", {}), "net", _NET_KEYS,
                                        conditioning=args.conditioning))
    cfg = _adjacency_config(args, {k: v for k, v in doc.items() if k in _ADJACENCY_KEYS})
    weights = _loss_weights(args, {k: v for k, v in doc.items() if k in weight_keys})

    _check_schedule(steps, lr)  # before the scenes are built
    scenes, mapping = generate_dataset(spec, num_train + num_heldout)
    train_scenes, heldout = scenes[:num_train], scenes[num_train:]
    params, trace = train_toy(train_scenes, mapping, net, weights, cfg, steps, lr, seed=seed)

    if args.trace:
        rows = [["step", *asdict(trace[0])]]
        rows += [[t, *asdict(rep).values()] for t, rep in enumerate(trace)]
        _write_result(_csv(rows), args.trace)
    if args.params:
        save_params(params, args.params)

    summary = {
        "steps": steps,
        "scenes": num_train,
        "initial_total": trace[0].total,
        "final_total": trace[-1].total,
        "final_ce": trace[-1].ce,
        "final_rec": trace[-1].rec,
        "final_gm": trace[-1].gm,
    }
    if heldout:
        summary["heldout_gm"] = mean_gm_loss(heldout, mapping, net, params, cfg)
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_synth(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    doc = _load_json(args.spec, "scene spec") if args.spec else {}
    spec = SceneSpec(**_config_fields(SceneSpec, doc, "scene spec", seed=args.seed))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    mapping = spec.mapping()
    save_labelset(LabelSet(mapping), out_dir / "labelset.json")
    written = ["labelset.json"]
    for i in range(args.count):
        parts, objects, _, rgb = generate(replace(spec, seed=spec.seed + i))
        stem = f"scene_{i:04d}"
        save_segmap(parts, out_dir / f"{stem}.parts.segmap")
        save_probmap(one_hot(objects, mapping.num_objects), out_dir / f"{stem}.objects.probmap")
        save_ppm(rgb, out_dir / f"{stem}.ppm")
        written += [f"{stem}.parts.segmap", f"{stem}.objects.probmap", f"{stem}.ppm"]
    sys.stdout.write("\n".join(written) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="partgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"partgraph {__version__} "
                                f"(formats: SEGM v{FORMAT_VERSION}, PROB v{FORMAT_VERSION}, "
                                f"TPRM v{FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted and ignored (every command runs on one thread)")

    def add_adjacency_flags(p, background: bool):
        p.add_argument("--T", type=int, default=None, help="distance threshold in pixels")
        p.add_argument("--element", choices=ELEMENT_SHAPES, default=None)
        p.add_argument("--unweighted", action="store_true")
        if background:
            p.add_argument("--no-background", action="store_true")

    def add_soft_loss_flags(p):
        p.add_argument("--soft-mode", dest="soft_mode", choices=SOFT_MODES, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lambda1", type=float, default=None)
        p.add_argument("--lambda2", type=float, default=None)

    p = sub.add_parser("dilate", parents=[common], help="dilate the nonzero pixels of a label map")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--shape", choices=ELEMENT_SHAPES, default="square")
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("graph", parents=[common], help="part-adjacency matrix of a label map")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--parts", type=int, required=True)
    add_adjacency_flags(p, background=True)
    p.add_argument("--normalized", action="store_true", help="emit proximity ratios")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("loss", parents=[common], help="evaluate the training losses")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--gt-objects", dest="gt_objects", default=None)
    p.add_argument("--mapping", required=True)
    add_adjacency_flags(p, background=True)
    add_soft_loss_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("metrics", parents=[common], help="evaluate predictions against ground truth")
    p.add_argument("--pred-dir", dest="pred_dir", required=True)
    p.add_argument("--gt-dir", dest="gt_dir", required=True)
    p.add_argument("--labelset", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const", const="json")
    group.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(format="json", func=_cmd_metrics)

    p = sub.add_parser("train-toy", parents=[common], help="gradient descent on synthetic scenes")
    p.add_argument("--config", default=None, help="JSON config; flags win over its values")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--conditioning", choices=CONDITIONING_MODES, default=None)
    add_adjacency_flags(p, background=False)
    add_soft_loss_flags(p)
    p.add_argument("--trace", default=None, help="write the per-step loss trace CSV here")
    p.add_argument("--params", default=None, help="write the trained parameters here")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("synth", parents=[common], help="generate synthetic scene files")
    p.add_argument("--spec", default=None, help="scene spec JSON")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("partgraph: error: a subcommand is required\n")
        return 1
    try:
        return args.func(args)
    except (DomainError, OSError, MemoryError, NumericError) as exc:
        sys.stderr.write(f"partgraph {args.command}: {str(exc) or 'out of memory'}\n")
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
