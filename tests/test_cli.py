import json
import subprocess
import sys

import numpy as np
import pytest

from partgraph import (
    AdjacencyConfig,
    LabelMap,
    LabelSet,
    PartsToObjectsMapping,
    ProbMap,
    adjacency_from_labels,
    one_hot,
    save_labelset,
    save_map,
    save_probmap,
)
from partgraph.formats import load_segmap


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "partgraph", *args],
                          capture_output=True, text=False)


def test_no_arguments_is_a_usage_error():
    result = run_cli()
    assert result.returncode == 1
    assert b"usage" in result.stderr.lower()
    assert result.stdout == b""


def test_unknown_flag_is_a_usage_error():
    result = run_cli("graph", "--bogus")
    assert result.returncode == 1


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
        result = subprocess.run([sys.executable, "-m", "partgraph", "dilate",
                                 "--in", str(base / "parts.segmap"), "--radius", str(radius),
                                 "--shape", shape, "--out", str(out)],
                                capture_output=True, timeout=30)
        assert result.returncode == 0, result.stderr
        outputs.append(load_segmap(out).labels)
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


def test_graph_command_matches_library(scene_files):
    base, parts, _ = scene_files
    result = run_cli("graph", "--in", str(base / "parts.segmap"), "--parts", "3",
                     "--T", "4", "--method", "dilate")
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


def test_loss_size_mismatch_names_both_sizes(tmp_path, scene_files):
    base, parts, mapping = scene_files
    small = LabelMap(np.zeros((4, 4), dtype=np.int32), num_classes=3)
    save_map(small, tmp_path / "small.segmap")
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(tmp_path / "small.segmap"),
                     "--mapping", str(base / "labelset.json"))
    assert result.returncode == 2
    assert b"8x8" in result.stderr and b"4x4" in result.stderr


def test_loss_rejects_nan_beta(scene_files):
    base, _, _ = scene_files
    result = run_cli("loss", "--pred", str(base / "pred.probmap"),
                     "--gt", str(base / "parts.segmap"),
                     "--mapping", str(base / "labelset.json"), "--beta", "nan")
    assert result.returncode == 2
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and "beta" in lines[0]


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
