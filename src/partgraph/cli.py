"""Command-line interface.

Subcommands: dilate, graph, loss, metrics, train-toy, synth. Results go to
stdout (or ``--out``/``--trace`` files); diagnostics go to stderr. Exit
codes: 0 success, 1 usage error, 2 data or format error (an input too
large for memory included), 3 numeric failure.

Identical invocations produce byte-identical output for a fixed BLAS thread
count; paper-scale ``loss --json`` can differ in its last digits between thread
counts. ``--threads`` is accepted and ignored.

A config flag's argparse dest is the name of the config field it sets.
A flag that is given sets that field, over the value of the JSON config
(``train-toy --config``, ``synth --spec``); a flag left out keeps the JSON
value, or else the default of the config class. A key that breaks the JSON
rules in ``formats`` is a data error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import AdjacencyConfig, adjacency_from_labels, normalize_rows
from .condnet import CONDITIONING_MODES, ToyNetConfig, TrainRun, mean_gm_loss, train_toy
from .core import DomainError, LabelMap, LabelSet, NumericError, argmax_map, one_hot
from .formats import (
    FORMAT_VERSION,
    PROB_MAGIC,
    _config_fields,
    _load_json,
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
from .synth import SceneSpec, _scenes, generate_dataset


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _write_result(text: str, out: str | None) -> None:
    """Write ``text`` as UTF-8 to ``out``, or to stdout, whatever the locale's encoding."""
    if out is not None:  # an empty path is an error, as for every other file
        with open(out, "wb") as f:
            f.write(text.encode("utf-8"))
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text already written to stdout goes out first
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text-only stream, such as io.StringIO under contextlib.redirect_stdout
        sys.stdout.write(text)


def _cell(value):
    """A %s cell: empty for None (an undefined metric), and quoted as RFC 4180 asks
    (inner quotes doubled) for a string holding a comma, quote or line break."""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"%s"' % value.replace('"', '""')
    return "" if value is None else value


def _csv(rows) -> str:
    """CSV text, one %-template a row: floats as %.9g, other values as :func:`_cell`.

    A 2-D float array fills only its nonzero cells: a 0 that is not -0.0 is the
    literal 0 in the template, the text %.9g gives it.
    """
    if isinstance(rows, np.ndarray):
        zero = (rows == 0.0) & ~np.signbit(rows)
        template = "".join([",".join(row) + "\n" for row in np.where(zero, "0", "%.9g").tolist()])
        return template % tuple(rows[~zero].tolist())
    return "".join(",".join(["%.9g" if isinstance(v, float) else "%s" for v in row])
                   % tuple([_cell(v) for v in row]) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# JSON configs
# ---------------------------------------------------------------------------

# JSON key -> field name, where a config accepts other keys than its field names
_ADJACENCY_KEYS = {"T": "distance_threshold", "element": "element_shape",
                   "weighting": "weighting", "soft_mode": "soft_mode", "beta": "beta"}
_NET_KEYS = {"stages": "num_stages", "encoder_channels": "encoder_channels",
             "decoder_channels": "decoder_channels", "conditioning": "conditioning",
             "embedding": "embedding"}
_TRAIN_KEYS = {**_ADJACENCY_KEYS, "scene": "scene", "net": "net",
               **{f.name: f.name for cls in (LossWeights, TrainRun) for f in fields(cls)}}


def _config(cls, args, doc: dict | None = None, where: str = "config", keys=_TRAIN_KEYS):
    """``cls`` from every flag whose dest is one of its fields, over the JSON object
    ``doc`` read under ``keys`` and named ``where`` in errors, as in ``_config_fields``."""
    names = {f.name for f in fields(cls)}
    return cls(**_config_fields(cls, {} if doc is None else doc, where, keys,
                                **{dest: v for dest, v in vars(args).items() if dest in names}))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_dilate(args) -> int:
    grown = dilate_array(load_map(args.infile).labels != 0, _config(StructuringElement, args))
    save_map(LabelMap(grown.astype(np.int32), num_classes=2), args.out)
    return 0


def _cmd_graph(args) -> int:
    label_map = load_map(args.infile)
    matrix = adjacency_from_labels(label_map, args.parts, _config(AdjacencyConfig, args))
    if args.normalized:
        matrix = normalize_rows(matrix)
    if args.format == "json":
        doc = {"size": matrix.size, "kind": matrix.kind, "entries": matrix.entries.tolist()}
        _write_result(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _write_result(_csv(matrix.entries), args.out)
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
    gt_objects = None if args.gt_objects is None else _load_object_labels(args.gt_objects)
    result, _ = total_loss(pred, gt_parts, gt_objects, label_set.mapping,
                           _config(AdjacencyConfig, args), _config(LossWeights, args))
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
    doc = {} if args.config is None else _load_json(args.config, "train-toy config")
    run = _config(TrainRun, args, doc)
    cfg = _config(AdjacencyConfig, args, doc)
    weights = _config(LossWeights, args, doc)
    spec = SceneSpec(**_config_fields(SceneSpec, doc.get("scene", {}), "scene"))
    net = ToyNetConfig(**_config_fields(ToyNetConfig, doc.get("net", {}), "net", _NET_KEYS,
                                        conditioning=args.conditioning))  # --seed is the run's

    scenes, mapping = generate_dataset(spec, run.train_scenes + run.heldout_scenes)
    params, trace = train_toy(scenes[:run.train_scenes], mapping, net, weights, cfg, run.steps,
                              run.lr, seed=run.seed)

    if args.trace is not None:
        rows = [["step", *asdict(trace[0])]]
        rows += [[t, *asdict(rep).values()] for t, rep in enumerate(trace)]
        _write_result(_csv(rows), args.trace)
    if args.params is not None:
        save_params(params, args.params)

    summary = {
        "steps": run.steps,
        "scenes": run.train_scenes,
        "initial_total": trace[0].total,
        "final_total": trace[-1].total,
        "final_ce": trace[-1].ce,
        "final_rec": trace[-1].rec,
        "final_gm": trace[-1].gm,
    }
    if run.heldout_scenes:
        summary["heldout_gm"] = mean_gm_loss(scenes[run.train_scenes:], mapping, net, params, cfg)
    _write_result(json.dumps(summary, indent=2) + "\n", None)
    return 0


def _cmd_synth(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    doc = {} if args.spec is None else _load_json(args.spec, "scene spec")
    spec = _config(SceneSpec, args, doc, "scene spec", None)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    mapping = spec.mapping()
    save_labelset(LabelSet(mapping), out_dir / "labelset.json")
    written = ["labelset.json"]
    for i, (parts, objects, _, rgb) in enumerate(_scenes(spec, args.count)):
        stem = f"scene_{i:04d}"
        save_segmap(parts, out_dir / f"{stem}.parts.segmap")
        save_probmap(one_hot(objects, mapping.num_objects), out_dir / f"{stem}.objects.probmap")
        save_ppm(rgb, out_dir / f"{stem}.ppm")
        written += [f"{stem}.parts.segmap", f"{stem}.objects.probmap", f"{stem}.ppm"]
    _write_result("\n".join(written) + "\n", None)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMANDS = ("dilate", "graph", "loss", "metrics", "train-toy", "synth")


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser, with only ``command``'s subparser if it names one; the same text either way."""
    parser = _Parser(prog="partgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"partgraph {__version__} "
                                f"(formats: SEGM v{FORMAT_VERSION}, PROB v{FORMAT_VERSION}, "
                                f"TPRM v{FORMAT_VERSION})")
    names = (command,) if command in _COMMANDS else _COMMANDS
    sub = parser.add_subparsers(dest="command",  # a one-command usage line lists every command
                                metavar=None if names == _COMMANDS else "{%s}" % ",".join(_COMMANDS))

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted and ignored (BLAS uses the environment's thread count)")
        p.set_defaults(func=func, paths=[])
        return p

    def add_path(p, flag, **kwargs):  # main rejects an empty file or directory name
        p.get_default("paths").append((flag, p.add_argument(flag, **kwargs).dest))

    def add_adjacency_flags(p, background: bool):
        p.add_argument("--T", dest="distance_threshold", metavar="T", type=int, default=None,
                       help="distance threshold in pixels")
        p.add_argument("--element", dest="element_shape", choices=ELEMENT_SHAPES, default=None)
        p.add_argument("--unweighted", dest="weighting", action="store_const", const="unweighted")
        if background:
            p.add_argument("--no-background", dest="include_background", action="store_const",
                           const=False)

    def add_soft_loss_flags(p):
        p.add_argument("--soft-mode", dest="soft_mode", choices=SOFT_MODES, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lambda1", type=float, default=None)
        p.add_argument("--lambda2", type=float, default=None)

    if "dilate" in names:
        p = add_command("dilate", _cmd_dilate, "dilate the nonzero pixels of a label map")
        add_path(p, "--in", dest="infile", required=True)
        add_path(p, "--out", required=True)
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--shape", choices=ELEMENT_SHAPES)

    if "graph" in names:
        p = add_command("graph", _cmd_graph, "part-adjacency matrix of a label map")
        add_path(p, "--in", dest="infile", required=True)
        p.add_argument("--parts", type=int, required=True)
        add_adjacency_flags(p, background=True)
        p.add_argument("--normalized", action="store_true", help="emit proximity ratios")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        add_path(p, "--out", default=None)

    if "loss" in names:
        p = add_command("loss", _cmd_loss, "evaluate the training losses")
        add_path(p, "--pred", required=True)
        add_path(p, "--gt", required=True)
        add_path(p, "--gt-objects", dest="gt_objects", default=None)
        add_path(p, "--mapping", required=True)
        add_adjacency_flags(p, background=True)
        add_soft_loss_flags(p)
        p.add_argument("--json", action="store_true")
        add_path(p, "--out", default=None)

    if "metrics" in names:
        p = add_command("metrics", _cmd_metrics, "evaluate predictions against ground truth")
        add_path(p, "--pred-dir", dest="pred_dir", required=True)
        add_path(p, "--gt-dir", dest="gt_dir", required=True)
        add_path(p, "--labelset", required=True)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", dest="format", action="store_const", const="json")
        group.add_argument("--csv", dest="format", action="store_const", const="csv")
        add_path(p, "--out", default=None)
        p.set_defaults(format="json")

    if "train-toy" in names:
        p = add_command("train-toy", _cmd_train_toy, "gradient descent on synthetic scenes")
        add_path(p, "--config", default=None, help="JSON config; flags win over its values")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--conditioning", choices=CONDITIONING_MODES, default=None)
        add_adjacency_flags(p, background=False)
        add_soft_loss_flags(p)
        add_path(p, "--trace", default=None, help="write the per-step loss trace CSV here")
        add_path(p, "--params", default=None, help="write the trained parameters here")

    if "synth" in names:
        p = add_command("synth", _cmd_synth, "generate synthetic scene files")
        add_path(p, "--spec", default=None, help="scene spec JSON")
        add_path(p, "--out-dir", dest="out_dir", required=True)
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("partgraph: error: a subcommand is required\n")
        return 1
    try:
        for flag, dest in args.paths:  # Path("") would be the current directory
            if getattr(args, dest) == "":
                raise DomainError(f"{flag} must not be empty")
        with np.errstate(all="ignore"):  # every non-finite result is checked explicitly
            return args.func(args)
    except (DomainError, OSError, MemoryError, NumericError) as exc:
        sys.stderr.write(f"partgraph {args.command}: {str(exc) or 'out of memory'}\n")
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
