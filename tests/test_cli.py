import dataclasses
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    EmbeddingConfig,
    LabelMap,
    LabelSet,
    LossWeights,
    PartsToObjectsMapping,
    ProbMap,
    adjacency_from_labels,
    confusion,
    load_labelset,
    normalize_rows,
    one_hot,
    project_labels,
    report,
    save_labelset,
    save_map,
    save_probmap,
)
from partgraph import cli
from partgraph.cli import (
    _ADJACENCY_KEYS,
    _NET_KEYS,
    _adjacency_config,
    _config_fields,
    _loss_weights,
    build_parser,
)
from partgraph.formats import load_params, load_segmap
from partgraph.synth import SceneSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def run_cli(*args, **kwargs):
    """Run the CLI and check its stderr contract: empty on success, one line
    and no traceback on a data (2) or numeric (3) error."""
    result = subprocess.run([sys.executable, "-m", "partgraph", *args],
                            capture_output=True, text=False, **kwargs)
    lines = result.stderr.decode().splitlines()
    if result.returncode == 0:
        assert result.stderr == b"", lines
    elif result.returncode in (2, 3):
        assert len(lines) == 1 and "Traceback" not in lines[0], lines
    return result


def assert_one_line_data_error(result, *needles):
    assert result.returncode == 2
    assert result.stdout == b""
    for needle in needles:
        assert needle in result.stderr.decode()


def test_no_arguments_is_a_usage_error():
    result = run_cli()
    assert result.returncode == 1
    assert b"usage" in result.stderr.lower()
    assert result.stdout == b""


@pytest.mark.parametrize("flag", [("--bogus",), ("--beta", "5"), ("--soft-mode", "hard_max")],
                         ids=["bogus", "beta", "soft-mode"])
def test_unknown_flag_is_a_usage_error(scene_files, flag):
    # graph builds the discrete reference graph: the soft-dilation flags are not its own
    base, _, _ = scene_files
    result = run_cli("graph", "--in", str(base / "parts.segmap"), "--parts", "3", *flag)
    assert result.returncode == 1
    assert b"unrecognized arguments: " + flag[0].encode() in result.stderr


SHARED_FLAGS = ("--T", "2", "--element", "diamond", "--unweighted", "--soft-mode", "hard_max",
                "--beta", "10", "--lambda1", "0.01", "--lambda2", "0.5")


@pytest.mark.parametrize("command", [("loss", "--pred", "p", "--gt", "g", "--mapping", "m"),
                                     ("train-toy",)], ids=["loss", "train-toy"])
def test_loss_and_train_toy_take_every_shared_flag(command):
    args = build_parser().parse_args([*command, *SHARED_FLAGS])
    assert _adjacency_config(args) == AdjacencyConfig(
        distance_threshold=2, element_shape="diamond", weighting="unweighted",
        soft_mode="hard_max", beta=10.0)
    assert _loss_weights(args) == LossWeights(lambda1=0.01, lambda2=0.5)


def test_version_reports_format_versions():
    result = run_cli("--version")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "partgraph 0.1.0" in out
    assert "SEGM v1" in out and "PROB v1" in out and "TPRM v1" in out


@pytest.fixture()
def scene_files(tmp_path):
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[2:6, 1:4] = 1
    labels[2:6, 5:8] = 2
    parts = LabelMap(labels, num_classes=3)
    save_map(parts, tmp_path / "parts.segmap")
    mapping = PartsToObjectsMapping((0, 1, 3))
    save_labelset(LabelSet(mapping), tmp_path / "labelset.json")
    pred = one_hot(parts, 3)
    save_probmap(pred, tmp_path / "pred.probmap")
    return tmp_path, parts, mapping


def test_dilate_command(tmp_path, scene_files):
    base, parts, _ = scene_files
    out = base / "dilated.segmap"
    result = run_cli("dilate", "--in", str(base / "parts.segmap"), "--radius", "2",
                     "--shape", "square", "--out", str(out))
    assert result.returncode == 0, result.stderr
    grown = load_segmap(out)
    assert grown.num_classes == 2
    assert grown.labels.sum() > (parts.labels != 0).sum()


@pytest.mark.parametrize("shape,covering", [("square", 8), ("diamond", 16)])
def test_dilate_radius_beyond_the_image_costs_what_the_image_costs(tmp_path, scene_files,
                                                                    shape, covering):
    # on the 8x8 map, radius 8 (square) or 16 (diamond) reaches every pixel
    base, _, _ = scene_files
    outputs = []
    for radius in (covering, 100000, 10**9):
        out = tmp_path / f"dilated-{radius}.segmap"
        result = run_cli("dilate", "--in", str(base / "parts.segmap"), "--radius", str(radius),
                         "--shape", shape, "--out", str(out), timeout=30)
        assert result.returncode == 0, result.stderr
        outputs.append(load_segmap(out).labels)
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


def test_graph_command_matches_library(scene_files):
    base, parts, _ = scene_files
    result = run_cli("graph", "--in", str(base / "parts.segmap"), "--parts", "3",
                     "--T", "4")
    assert result.returncode == 0, result.stderr
    rows = [line.split(",") for line in result.stdout.decode().strip().splitlines()]
    got = np.array([[float(v) for v in row] for row in rows])
    want = adjacency_from_labels(parts, 3, AdjacencyConfig(distance_threshold=4)).entries
    assert np.array_equal(got, want)


def test_graph_json_and_normalized(scene_files):
    base, parts, _ = scene_files
    result = run_cli("graph", "--in", str(base / "parts.segmap"), "--parts", "3",
                     "--normalized", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "normalized"
    entries = np.array(doc["entries"])
    norms = np.linalg.norm(entries, axis=1)
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-9


@pytest.mark.parametrize("size", [1, 7, 109])
def test_graph_json_output_is_json_dumps_with_indent_2(tmp_path, size):
    # a 1-part map's graph is the 1 x 1 zero matrix; the others cycle their parts over the map
    label_map = LabelMap(np.resize(np.arange(size), (12, 12)), num_classes=size)
    save_map(label_map, tmp_path / "parts.segmap")
    raw = adjacency_from_labels(label_map, size, AdjacencyConfig())
    for flags, matrix in (((), raw), (("--normalized",), normalize_rows(raw))):
        result = run_cli("graph", "--in", str(tmp_path / "parts.segmap"), "--parts", str(size),
                         "--format", "json", *flags)
        assert result.returncode == 0
        doc = {"size": matrix.size, "kind": matrix.kind, "entries": matrix.entries.tolist()}
        assert result.stdout.decode() == json.dumps(doc, indent=2) + "\n"


def test_csv_cells_keep_their_9g_text():
    # the bytes format(v, ".9g") gives a float, str(v) any other value and ""
    # a None (an undefined metric), non-finite, signed-zero and tiny floats included
    rows = [[float("nan"), float("inf"), -0.0, 1e-300, 7, "part_1", None],
            [0.1, 2.0, 123456789012.0, True]]
    assert cli._csv(rows) == "nan,inf,-0,1e-300,7,part_1,\n0.1,2,1.23456789e+11,True\n"
    # one call over rows of different cell types, as metrics --csv mixes them: a
    # header, per-class rows (one of them repeating a row's types with other
    # values) and summary rows, with numpy floats, bools, ints and None
    rows = [["index", "name", "iou", "pa"],
            [0, "a", np.float64(0.1), 1 / 3],
            [1, "b", None, np.float64(-0.0)],
            [2, "c", np.float64(2.5e-9), 2.0],
            [3, "d", True, None],
            ["miou", "", np.float64(2 / 3), ""],
            ["mpa", "", 0.75, ""],
            ["steps", None, 7, False]]
    want = "".join(",".join("" if v is None else format(v, ".9g") if isinstance(v, float)
                            else str(v) for v in row) + "\n" for row in rows)
    assert cli._csv(rows) == want


def test_graph_missing_file_is_a_data_error(tmp_path):
    result = run_cli("graph", "--in", str(tmp_path / "missing.segmap"), "--parts", "3")
    assert result.returncode == 2
    assert b"missing.segmap" in result.stderr


def test_loss_command_json(scene_files):
    base, parts, mapping = scene_files
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(base / "parts.segmap"),
                     "--mapping", str(base / "labelset.json"),
                     "--soft-mode", "hard_max", "--json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["ce"] == 0.0
    assert doc["rec"] == 0.0
    assert doc["gm"] == 0.0
    assert doc["total"] == 0.0


@pytest.mark.parametrize("option", [("--element", "diamond"), ("--unweighted",),
                                    ("--no-background",)])
def test_loss_of_the_ground_truth_one_hot_is_zero(scene_files, option):
    # the reference and the prediction graph are built the same way under
    # every graph option, so a perfect prediction scores exactly 0
    base, _, _ = scene_files
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(base / "parts.segmap"),
                     "--mapping", str(base / "labelset.json"),
                     "--soft-mode", "hard_max", *option)
    assert result.returncode == 0, result.stderr
    assert ["gm", "0"] in [line.split() for line in result.stdout.decode().splitlines()]


def test_loss_size_mismatch_names_both_sizes(tmp_path, scene_files):
    base, parts, mapping = scene_files
    small = LabelMap(np.zeros((4, 4), dtype=np.int32), num_classes=3)
    save_map(small, tmp_path / "small.segmap")
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(tmp_path / "small.segmap"),
                     "--mapping", str(base / "labelset.json"))
    assert result.returncode == 2
    assert b"8x8" in result.stderr and b"4x4" in result.stderr


@pytest.mark.parametrize("flag,value", [("beta", "nan"), ("lambda1", "nan"), ("lambda1", "inf"),
                                        ("lambda2", "nan"), ("lambda2", "inf")])
def test_loss_rejects_non_finite_values(scene_files, flag, value):
    base, _, _ = scene_files
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(base / "parts.segmap"),
                     "--mapping", str(base / "labelset.json"), f"--{flag}", value)
    assert_one_line_data_error(result, flag, f"got {value}")


@pytest.mark.parametrize("flags,config,needles", [
    (("--lr", "nan"), {}, ["learning rate", "got nan"]),
    (("--lr", "inf"), {}, ["learning rate", "got inf"]),
    ((), {"lr": float("nan")}, ["learning rate", "got nan"]),
    (("--lambda2", "inf"), {}, ["lambda2", "got inf"]),
    ((), {"lambda1": float("inf")}, ["lambda1", "got inf"]),
], ids=["lr-nan", "lr-inf", "config-lr-nan", "lambda2-inf", "config-lambda1-inf"])
def test_train_toy_rejects_non_finite_values(tmp_path, flags, config, needles):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train_scenes": 1, **config}))  # NaN and Infinity literals
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "1", *flags)
    assert_one_line_data_error(result, *needles)


@pytest.mark.parametrize("flag,value,message", [
    ("--lr", "nan", "learning rate must be finite and >= 0, got nan"),
    ("--steps", "0", "steps must be >= 1, got 0"),
], ids=["lr-nan", "steps-0"])
def test_train_toy_checks_steps_and_lr_before_building_scenes(monkeypatch, capsys, flag, value,
                                                              message):
    def build_scenes(*args):
        raise AssertionError("scenes were built before the check")

    monkeypatch.setattr(cli, "generate_dataset", build_scenes)
    assert cli.main(["train-toy", flag, value]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"partgraph train-toy: {message}\n")


def test_metrics_command(tmp_path, scene_files):
    base, parts, mapping = scene_files
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    save_map(parts, gt_dir / "a.segmap")
    save_map(parts, pred_dir / "a.segmap")
    result = run_cli("metrics", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--labelset", str(base / "labelset.json"), "--json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["miou"] == 1.0
    assert doc["mpa"] == 1.0

    csv_result = run_cli("metrics", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                         "--labelset", str(base / "labelset.json"), "--csv")
    assert csv_result.returncode == 0
    assert csv_result.stdout.decode().startswith("index,name,iou,pa")


def test_metrics_renders_absent_classes_as_null_and_empty_cells(tmp_path, capsys):
    # classes 2 and 5 appear in neither map, so their IoU and PA are undefined
    label_set = LabelSet(PartsToObjectsMapping((0, 1, 3, 6), part_names=tuple("abcdef")))
    save_labelset(label_set, tmp_path / "labelset.json")
    gt = LabelMap(np.array([[0, 0, 1, 3], [4, 4, 1, 0]], dtype=np.int32), num_classes=6)
    pred = LabelMap(np.array([[0, 1, 1, 3], [4, 0, 3, 0]], dtype=np.int32), num_classes=6)
    for name, label_map in (("pred", pred), ("gt", gt)):
        (tmp_path / name).mkdir()
        save_map(label_map, tmp_path / name / "x.segmap")
    expected = report(confusion(pred, gt, 6), label_set)
    argv = ["metrics", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--labelset", str(tmp_path / "labelset.json")]

    assert cli.main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == expected.to_dict()
    assert list(doc) == ["per_class_iou", "per_class_pa", "miou", "mpa", "mca",
                         "per_object_miou", "object_avg", "miou_with_background",
                         "miou_without_background"]
    assert doc["per_class_iou"][2] is None and doc["per_class_pa"][5] is None
    assert doc["per_class_iou"][0] == expected.per_class_iou[0]

    assert cli.main(argv + ["--csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["index", "name", "iou", "pa"]
    assert rows[3] == ["2", "c", "", ""] and rows[6] == ["5", "f", "", ""]
    assert rows[1] == ["0", "a", format(expected.per_class_iou[0], ".9g"),
                       format(expected.per_class_pa[0], ".9g")]
    summary = rows[7:]
    assert [row[0] for row in summary] == ["miou", "mpa", "mca", "object_avg",
                                           "miou_with_background", "miou_without_background"]
    for key, blank, value, pa in summary:
        assert (blank, pa) == ("", "")
        assert value == format(getattr(expected, key), ".9g")


def test_loss_text_and_trace_layout(tmp_path, scene_files, capsys):
    base, _, _ = scene_files
    argv = ["loss", "--pred", str(base / "pred.probmap"), "--gt", str(base / "parts.segmap"),
            "--mapping", str(base / "labelset.json")]
    assert cli.main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert re.fullmatch(r"ce    \S+\nrec   \S+\ngm    \S+\ntotal \S+\n", text), text
    assert [line.split()[1] for line in text.splitlines()] == [
        format(doc[key], ".9g") for key in ("ce", "rec", "gm", "total")]

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scene": SMALL_SCENE, "train_scenes": 1}))
    trace = tmp_path / "trace.csv"
    assert cli.main(["train-toy", "--config", str(config), "--steps", "2",
                     "--trace", str(trace)]) == 0
    summary = json.loads(capsys.readouterr().out)
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,ce,rec,gm,total"
    assert lines[2] == ",".join(["1", *(format(summary[f"final_{key}"], ".9g")
                                        for key in ("ce", "rec", "gm", "total"))])


def test_synth_command_writes_triples(tmp_path):
    out_dir = tmp_path / "scenes"
    result = run_cli("synth", "--out-dir", str(out_dir), "--count", "2", "--seed", "3")
    assert result.returncode == 0, result.stderr
    names = result.stdout.decode().split()
    assert "scene_0000.parts.segmap" in names
    assert "scene_0000.objects.probmap" in names
    assert "scene_0000.ppm" in names
    assert (out_dir / "labelset.json").exists()
    assert load_segmap(out_dir / "scene_0001.parts.segmap").labels.any()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_synth_count_below_one_is_a_data_error(tmp_path, count):
    out_dir = tmp_path / "scenes"
    result = run_cli("synth", "--out-dir", str(out_dir), "--count", count)
    assert_one_line_data_error(result, "--count", count)
    assert not out_dir.exists()


def test_loss_reads_synth_objects_probmap(tmp_path):
    # synth writes each scene's objects as a one-hot PROB file; loss reads it
    # as its argmax labels, the same objects a SEGM file holds
    out_dir = tmp_path / "scenes"
    result = run_cli("synth", "--out-dir", str(out_dir), "--count", "1", "--seed", "3")
    assert result.returncode == 0, result.stderr
    parts = load_segmap(out_dir / "scene_0000.parts.segmap")
    label_set = load_labelset(out_dir / "labelset.json")
    save_map(project_labels(parts, label_set.mapping), tmp_path / "objects.segmap")
    logits = np.random.default_rng(0).standard_normal(parts.labels.shape + (label_set.num_parts,))
    save_probmap(ProbMap(np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)),
                 tmp_path / "pred.probmap")

    def loss(objects):
        return run_cli("loss", "--pred", str(tmp_path / "pred.probmap"),
                       "--gt", str(out_dir / "scene_0000.parts.segmap"),
                       "--gt-objects", str(objects), "--mapping", str(out_dir / "labelset.json"))

    from_prob = loss(out_dir / "scene_0000.objects.probmap")
    from_segm = loss(tmp_path / "objects.segmap")
    assert from_prob.returncode == 0, from_prob.stderr
    assert from_segm.returncode == 0, from_segm.stderr
    rec = [line for line in from_prob.stdout.decode().splitlines() if line.startswith("rec")]
    assert len(rec) == 1 and float(rec[0].split()[1]) > 0.0
    assert from_prob.stdout == from_segm.stdout

    h, w = parts.labels.shape
    uniform = np.full((h, w, label_set.num_objects), 1.0 / label_set.num_objects)
    save_probmap(ProbMap(uniform), tmp_path / "soft.probmap")
    assert_one_line_data_error(loss(tmp_path / "soft.probmap"), "not one-hot")


def test_train_toy_smoke(tmp_path):
    config = {
        "scene": {"width": 16, "height": 16, "num_objects": 1, "parts_per_object": [2],
                  "min_instance": 4, "seed": 11},
        "train_scenes": 2,
        "heldout_scenes": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    trace_path = tmp_path / "trace.csv"
    params_path = tmp_path / "params.tprm"
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "3",
                     "--lr", "0.05", "--seed", "5",
                     "--trace", str(trace_path), "--params", str(params_path))
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["steps"] == 3
    assert "heldout_gm" in summary
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "step,ce,rec,gm,total"
    assert len(lines) == 4
    assert params_path.read_bytes()[:4] == b"TPRM"


SMALL_SCENE = {"width": 32, "height": 32, "num_objects": 1, "parts_per_object": [2],
               "min_instance": 4}


def test_train_toy_params_hold_only_the_layers_the_net_runs(tmp_path):
    config = {"net": {"stages": 2, "embedding": {"kernel_sizes": [7, 5, 3],
                                                 "channel_sizes": [8, 16, 32]}},
              "scene": SMALL_SCENE, "train_scenes": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    params_path = tmp_path / "params.tprm"
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "1",
                     "--params", str(params_path))
    assert result.returncode == 0, result.stderr
    names = sorted(name for name in load_params(params_path) if name.startswith("emb"))
    assert names == ["emb1.b", "emb1.w", "emb2.b", "emb2.w"]


@pytest.mark.parametrize("conditioning,code,stderr", [
    ("off", 0, ""),
    ("multi", 2, "partgraph train-toy: conditioning needs >= 5 embedding layers, got 4\n"),
], ids=["off", "multi"])
def test_train_toy_five_stages_need_an_embedding_only_when_conditioned(tmp_path, conditioning,
                                                                       code, stderr):
    config = {"net": {"stages": 5, "encoder_channels": [4] * 5, "decoder_channels": [4] * 5},
              "scene": SMALL_SCENE, "train_scenes": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "1",
                     "--conditioning", conditioning)
    assert (result.returncode, result.stderr.decode()) == (code, stderr)


def test_readme_config_example_runs(tmp_path):
    # the config documented in the README holds exactly the accepted keys at every level
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    config = json.loads(block)
    run_keys = {"steps", "lr", "seed", "train_scenes", "heldout_scenes"}  # read by train-toy
    top_keys = {"scene", "net", *_ADJACENCY_KEYS, *field_names(LossWeights), *run_keys}
    assert config.keys() == top_keys
    assert config["net"].keys() == _NET_KEYS.keys()
    assert config["net"]["embedding"].keys() == field_names(EmbeddingConfig)
    assert config["scene"].keys() == field_names(SceneSpec)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(block)
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "1")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["scenes"] == config["train_scenes"]
    assert "heldout_gm" in summary


@pytest.mark.parametrize("config,needles", [
    ({"scene": {"bogus": 1}}, ["'bogus'", "scene"]),
    ({"net": {"embedding": {"kernel_sizes": 3}}}, ["net.embedding.kernel_sizes", "list"]),
    ({"bogus": 1}, ["'bogus'"]),
    ({"steps": "3"}, ["config.steps", "integer"]),
    ({"net": {"stages": 2.0}}, ["net.stages", "integer"]),
    ({"T": True}, ["config.T", "integer"]),
    ({"scene": {"parts_per_object": [2, "2"]}}, ["scene.parts_per_object[1]"]),
    ([1, 2], ["JSON object"]),
    (b"\xff{}", ["malformed"]),
    ({"train_scenes": 20, "heldout_scenes": -5, "steps": 1}, ["config.heldout_scenes", ">= 0"]),
    ({"train_scenes": -3, "heldout_scenes": 10}, ["config.train_scenes", ">= 1"]),
    ({"net": {"embedding": {"strides": [2, 2]}}}, ["'strides'", "net.embedding"]),
    ({"net": {"encoder_channels": [-1, 4]}}, ["encoder channel counts must be >= 1"]),
    ({"net": {"encoder_channels": [0, 4]}}, ["encoder channel counts must be >= 1"]),
    ({"net": {"decoder_channels": [16, -2]}}, ["decoder channel counts must be >= 1"]),
    ({"net": {"embedding": {"channel_sizes": [0, 16, 32, 64]}}},
     ["embedding channel counts must be >= 1"]),
    ({"soft_mode": "bogus"}, ["soft mode must be one of", "'bogus'"]),
], ids=["scene-unknown", "kernel-sizes-scalar", "top-unknown", "steps-string", "stages-float",
        "T-bool", "parts-item-string", "not-an-object", "not-utf8", "heldout-negative",
        "train-negative", "embedding-strides", "encoder-channels-negative",
        "encoder-channels-zero", "decoder-channels-negative", "embedding-channels-zero",
        "soft-mode-unknown"])
def test_train_toy_config_rejects_unknown_or_mistyped_keys(tmp_path, config, needles):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "1")
    assert_one_line_data_error(result, *needles)


def test_config_fields_fill_only_the_keys_present_and_flags_win():
    fields = _config_fields(AdjacencyConfig, {"T": 2, "element": "diamond", "beta": 3},
                            "config", _ADJACENCY_KEYS, beta=5.0, soft_mode=None)
    assert fields == {"distance_threshold": 2, "element_shape": "diamond", "beta": 5.0}
    cfg = AdjacencyConfig(**fields)
    assert cfg.weighting == AdjacencyConfig.weighting
    assert cfg.soft_mode == AdjacencyConfig.soft_mode


def test_synth_spec_rejects_unknown_keys(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"width": 16, "height": 16, "colour": 1}')
    result = run_cli("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out"),
                     "--count", "1")
    assert_one_line_data_error(result, "'colour'")


@pytest.mark.parametrize("labelset,needle", [(b'{"boundaries": ["a", 2]}', "boundaries"),
                                             (b"\xff{}", "malformed")])
def test_metrics_rejects_a_bad_labelset(tmp_path, scene_files, labelset, needle):
    base, parts, _ = scene_files
    (tmp_path / "bad.json").write_bytes(labelset)
    result = run_cli("metrics", "--pred-dir", str(base), "--gt-dir", str(base),
                     "--labelset", str(tmp_path / "bad.json"))
    assert_one_line_data_error(result, needle)


@pytest.mark.parametrize("labelset,needles", [
    (b"[1, 2]", ["label-set in", "must be a JSON object, got [1, 2]"]),
    (b'{"boundaries": [0, 1, 3], "part_names": null}',
     ["label-set.part_names must be a list of strings, got null"]),
    (b'{"boundaries": [0, 1, 3], "num_parts": "3"}',
     ['label-set.num_parts must be an integer, got "3"']),
    (b'{"boundaries": [0, 1, 3], "num_parts": 3.0}',
     ["label-set.num_parts must be an integer, got 3.0"]),
    (b'{"num_parts": 3}', ["label-set lacks the required key 'boundaries'"]),
], ids=["list", "names-null", "count-string", "count-float", "no-boundaries"])
def test_metrics_labelset_error_names_its_key(tmp_path, scene_files, labelset, needles):
    base, _, _ = scene_files
    (tmp_path / "bad.json").write_bytes(labelset)
    result = run_cli("metrics", "--pred-dir", str(base), "--gt-dir", str(base),
                     "--labelset", str(tmp_path / "bad.json"))
    assert_one_line_data_error(result, *needles)


@pytest.mark.parametrize("command, what", [
    (("train-toy", "--config", "{json}", "--steps", "1"), "train-toy config"),
    (("synth", "--spec", "{json}", "--out-dir", "{base}/out", "--count", "1"), "scene spec"),
    (("metrics", "--pred-dir", "{base}", "--gt-dir", "{base}", "--labelset", "{json}"),
     "label-set"),
    (("loss", "--pred", "{base}/pred.probmap", "--gt", "{base}/parts.segmap",
      "--mapping", "{json}"), "label-set"),
], ids=["train-toy", "synth", "metrics", "loss"])
def test_json_nested_too_deeply_is_a_data_error(tmp_path, scene_files, command, what):
    # deeper than the parser's recursion limit: one line, not a RecursionError traceback
    base, _, _ = scene_files
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    result = run_cli(*(arg.format(json=path, base=base) for arg in command))
    assert_one_line_data_error(result, f"malformed {what} JSON", "recursion")


def _limit_address_space():
    import resource
    # should the size check regress, the 20 GB read fails fast here
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_segm_header_declaring_more_than_the_file_holds(tmp_path):
    path = tmp_path / "big.segmap"
    path.write_bytes(b"SEGM" + struct.pack("<BIII", 1, 100000, 100000, 3) + bytes(9))
    assert path.stat().st_size == 26
    result = run_cli("graph", "--in", str(path), "--parts", "3",
                     preexec_fn=_limit_address_space, timeout=60)
    assert_one_line_data_error(result, "truncated", "20000000000")


@pytest.mark.parametrize("command", ["train-toy", "synth"])
def test_canvas_too_large_for_memory_is_a_data_error(tmp_path, command):
    scene = {"width": 200000, "height": 200000}
    path = tmp_path / "config.json"
    if command == "train-toy":
        path.write_text(json.dumps({"scene": scene}))
        argv = ("train-toy", "--config", str(path), "--steps", "1")
    else:
        path.write_text(json.dumps(scene))
        argv = ("synth", "--spec", str(path), "--out-dir", str(tmp_path / "out"), "--count", "1")
    result = run_cli(*argv, preexec_fn=_limit_address_space, timeout=60)
    assert_one_line_data_error(result, "allocate")


@pytest.mark.parametrize("threads", ["1", "8"])
def test_thread_flag_is_accepted(scene_files, threads):
    base, parts, _ = scene_files
    result = run_cli("graph", "--in", str(base / "parts.segmap"), "--parts", "3",
                     "--threads", threads)
    assert result.returncode == 0


def test_byte_identical_outputs_across_thread_counts(tmp_path, scene_files):
    base, parts, mapping = scene_files
    invocations = [
        ("graph", "--in", str(base / "parts.segmap"), "--parts", "3", "--T", "4"),
        ("loss", "--pred", str(base / "pred.probmap"), "--gt", str(base / "parts.segmap"),
         "--mapping", str(base / "labelset.json"), "--json"),
    ]
    for argv in invocations:
        runs = [run_cli(*argv, "--threads", t) for t in ("1", "8")]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
