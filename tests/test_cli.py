import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import types
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
    StructuringElement,
    ToyNetConfig,
    adjacency_from_labels,
    argmax_map,
    confusion,
    load_labelset,
    load_probmap,
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
    _config_fields,
    build_parser,
)
from partgraph.condnet import TrainRun
from partgraph.formats import load_params, load_segmap
from partgraph.synth import SceneSpec, generate, generate_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def run_cli(*args, env=None, **kwargs):
    """Run the CLI and check its stderr contract: empty on success, one line
    and no traceback on a data (2) or numeric (3) error. ``env`` is merged over
    ``os.environ``, so ``PYTHONPATH`` still finds the package."""
    result = subprocess.run([sys.executable, "-m", "partgraph", *args], capture_output=True,
                            text=False, env=None if env is None else {**os.environ, **env},
                            **kwargs)
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


def test_version_reports_format_versions():
    result = run_cli("--version")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "partgraph 0.1.0" in out
    assert "SEGM v1" in out and "PROB v1" in out and "TPRM v1" in out


# per command, argvs that between them set every flag the command has
EVERY_FLAG = {
    "dilate": [("--threads", "2", "--in", "a", "--out", "b", "--radius", "3",
                "--shape", "diamond")],
    "graph": [("--threads", "2", "--in", "a", "--parts", "5", "--T", "3", "--element", "diamond",
               "--unweighted", "--no-background", "--normalized", "--format", "json",
               "--out", "o")],
    "loss": [("--threads", "2", "--pred", "p", "--gt", "g", "--gt-objects", "go",
              "--mapping", "m", "--no-background", "--json", "--out", "o", *SHARED_FLAGS)],
    "metrics": [("--threads", "2", "--pred-dir", "p", "--gt-dir", "g", "--labelset", "l",
                 "--csv", "--out", "o"),
                ("--pred-dir", "p", "--gt-dir", "g", "--labelset", "l", "--json")],
    "train-toy": [("--threads", "2", "--config", "c", "--steps", "4", "--lr", "0.1",
                   "--seed", "7", "--conditioning", "single", "--trace", "t", "--params", "w",
                   *SHARED_FLAGS)],
    "synth": [("--threads", "2", "--spec", "s", "--out-dir", "d", "--count", "2",
               "--seed", "3")],
}


SHARED_FIELDS = {"distance_threshold": 2, "element_shape": "diamond", "weighting": "unweighted",
                 "soft_mode": "hard_max", "beta": 10.0}
SHARED_WEIGHTS = {"lambda1": 0.01, "lambda2": 0.5}

# per command, the configs its EVERY_FLAG argvs build: the fields their flags set, all
# others at the class default; --seed sets train-toy's TrainRun alone, not its net or scene
EVERY_FLAG_CONFIGS = {
    "dilate": {StructuringElement: {"shape": "diamond", "radius": 3}},
    "graph": {AdjacencyConfig: {"distance_threshold": 3, "element_shape": "diamond",
                                "weighting": "unweighted", "include_background": False}},
    "loss": {AdjacencyConfig: {**SHARED_FIELDS, "include_background": False},
             LossWeights: SHARED_WEIGHTS},
    "metrics": {},
    "train-toy": {TrainRun: {"steps": 4, "lr": 0.1, "seed": 7},
                  AdjacencyConfig: SHARED_FIELDS, LossWeights: SHARED_WEIGHTS,
                  SceneSpec: {}, ToyNetConfig: {"conditioning": "single"}},
    "synth": {SceneSpec: {"seed": 3}},
}

# dests that steer a command without setting a config field (file flags aside)
COMMAND_DESTS = {"command", "func", "paths", "threads", "parts", "normalized", "format", "json",
                 "count"}


class ConfigsBuilt(Exception):
    """Raised by a stubbed consumer once a command has built its configs."""


@pytest.mark.parametrize("command", list(EVERY_FLAG))
def test_every_config_flag_sets_the_field_its_dest_names(monkeypatch, tmp_path, command):
    built = {}

    def recording(cls, *args, **kwargs):
        values = _config_fields(cls, *args, **kwargs)
        built[cls] = cls(**values)
        return values

    def consumer(*args, **kwargs):
        raise ConfigsBuilt

    stub = types.SimpleNamespace(labels=np.zeros(1), mapping=None, num_parts=1)
    monkeypatch.setattr(cli, "_config_fields", recording)
    monkeypatch.setattr(cli, "_load_json", lambda path, what: {})
    for name in ("load_map", "load_probmap", "load_labelset", "_load_object_labels"):
        monkeypatch.setattr(cli, name, lambda path: stub)
    for name in ("dilate_array", "adjacency_from_labels", "total_loss", "confusion",
                 "generate_dataset", "save_labelset"):
        monkeypatch.setattr(cli, name, consumer)
    monkeypatch.chdir(tmp_path)
    for name in ("p", "g"):  # metrics reaches confusion only over matching files
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.segmap").touch()

    for argv in EVERY_FLAG[command]:
        built.clear()
        args = build_parser().parse_args([command, *argv])
        with pytest.raises(ConfigsBuilt):
            args.func(args)
        assert built == {cls: cls(**values) for cls, values in EVERY_FLAG_CONFIGS[command].items()}
        # a flag whose dest names no field of a config the command builds would be dropped
        config_fields = set().union(*map(field_names, built))
        file_dests = {dest for _, dest in args.paths}
        assert vars(args).keys() - COMMAND_DESTS - file_dests <= config_fields
        if "--T" in argv:
            assert "[--T T]" in subcommands(build_parser(command))[command].format_usage()


def subcommands(parser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", list(EVERY_FLAG))
def test_one_command_parser_parses_as_the_full_parser(command):
    one, full = build_parser(command), build_parser()
    assert list(subcommands(one)) == [command]
    assert tuple(subcommands(full)) == cli._COMMANDS == tuple(EVERY_FLAG)
    flags = {f for a in subcommands(full)[command]._actions for f in a.option_strings}
    assert flags - {"-h", "--help"} <= {arg for argv in EVERY_FLAG[command] for arg in argv}
    for argv in EVERY_FLAG[command]:
        assert one.parse_args([command, *argv]) == full.parse_args([command, *argv])


def run_main(argv):
    """stdout, stderr and exit code of an in-process ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["nope"], *([command, "--help"] for command in EVERY_FLAG),
    ["graph", "--in", "x"], ["graph", "--in", "x", "--parts", "3", "--bogus"],
    ["metrics", "--json", "--csv"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_help_and_errors_are_those_of_the_full_parser(monkeypatch, argv):
    one = run_main(argv)
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert one == run_main(argv)
    assert one[0] or one[1]


def test_console_script_reads_its_arguments_from_sys_argv(monkeypatch, capsys, scene_files):
    base, _, _ = scene_files
    argv = ["graph", "--in", str(base / "parts.segmap"), "--parts", "3", "--normalized"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["partgraph", *argv])
    assert cli.main() == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith("0,")


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


@pytest.mark.parametrize("matrix", [
    np.array([[-0.0, 5e-324, 1e-300], [np.nan, np.inf, -np.inf], [1 / 3, 1e10 + 0.5, 0.0]]),
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.zeros((4, 4)), np.zeros((1, 1)), np.full((1, 1), 2.5),
    np.arange(7.0)[None, :] / 7, np.arange(7.0)[:, None] * 1e10,
    np.where(np.random.default_rng(30).random((40, 40)) < 0.05,
             np.random.default_rng(31).random((40, 40)), 0.0),
    np.random.default_rng(32).standard_normal((9, 13)),
], ids=["special", "signed-zeros", "all-zero", "1x1-zero", "1x1", "1xn", "nx1", "sparse", "dense"])
def test_csv_of_an_array_is_csv_of_its_rows(matrix):
    # the array path fills only nonzero cells; every cell keeps the list path's bytes
    assert cli._csv(matrix) == cli._csv(matrix.tolist())


def test_csv_quotes_string_cells_that_hold_separators():
    names = ["arm, left", 'say "hi"', "two\nlines", "cr\rx", 'all, "of"\r\nit', "plain"]
    rows = [["index", "name", "iou"]] + [[i, name, 0.5] for i, name in enumerate(names)]
    text = cli._csv(rows)
    assert text.splitlines()[1:3] == ['0,"arm, left",0.5', '1,"say ""hi""",0.5']
    assert text.endswith("5,plain,0.5\n")  # other cells keep their bytes
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed == [["index", "name", "iou"]] + [[str(i), name, "0.5"]
                                                   for i, name in enumerate(names)]


def metrics_csv_argv(base):
    """``metrics --csv`` over a 2 x 2 three-part map, prediction and truth alike, in ``base``,
    whose ``labelset.json`` the caller writes."""
    labels = LabelMap(np.array([[0, 1], [2, 2]], dtype=np.int32), num_classes=3)
    for name in ("pred", "gt"):
        (base / name).mkdir()
        save_map(labels, base / name / "x.segmap")
    return ["metrics", "--pred-dir", str(base / "pred"), "--gt-dir", str(base / "gt"),
            "--labelset", str(base / "labelset.json"), "--csv"]


def test_metrics_csv_round_trips_part_names_with_separators(tmp_path):
    names = ("back, ground", 'say "hi"\n', "x\r\ny")
    save_labelset(LabelSet(PartsToObjectsMapping((0, 1, 3), part_names=names)),
                  tmp_path / "labelset.json")
    result = run_cli(*metrics_csv_argv(tmp_path))
    assert result.returncode == 0, result.stderr
    rows = list(csv.reader(io.StringIO(result.stdout.decode(), newline="")))
    assert {len(row) for row in rows} == {4}
    assert [row[1] for row in rows[1:4]] == list(names)


# a C locale without UTF-8 coercion: the locale's encoding is ASCII
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("env,to_file", [
    (_ASCII_LOCALE, False), (_ASCII_LOCALE, True), ({"PYTHONIOENCODING": "ascii"}, False),
], ids=["c-locale-stdout", "c-locale-out", "ascii-stdout"])
def test_metrics_csv_is_utf8_whatever_the_locale(tmp_path, env, to_file):
    # the label set holds a raw UTF-8 name; the CSV carries it as UTF-8 bytes
    doc = {"boundaries": [0, 1, 3], "part_names": ["bg", "Kopf, groß", "Körper"]}
    (tmp_path / "labelset.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    argv = metrics_csv_argv(tmp_path)
    outputs = []
    for run_env in ({"PYTHONUTF8": "1"}, env):
        out = tmp_path / f"metrics-{len(outputs)}.csv"
        result = run_cli(*argv, *(["--out", str(out)] if to_file else []), env=run_env)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes() if to_file else result.stdout)
    assert outputs[0] == outputs[1]
    assert '1,"Kopf, groß",'.encode() in outputs[1] and "2,Körper,".encode() in outputs[1]


def test_graph_csv_is_the_row_rendering_of_its_matrix(tmp_path, capsys):
    # paper-scale scenes, as the benchmark's graph calls read them: stdout equals the
    # per-cell rendering of the library's matrix under every flag set
    spec = SceneSpec(width=256, height=256, num_objects=12, parts_per_object=(9,) * 12)
    flag_sets = {(): AdjacencyConfig(), ("--unweighted",): AdjacencyConfig(weighting="unweighted"),
                 ("--no-background",): AdjacencyConfig(include_background=False),
                 ("--element", "diamond", "--T", "7"):
                     AdjacencyConfig(element_shape="diamond", distance_threshold=7)}
    for seed in (1100, 2100):
        parts = generate(dataclasses.replace(spec, seed=seed))[0]
        save_map(parts, tmp_path / "parts.segmap")
        for flags, cfg in flag_sets.items():
            raw = adjacency_from_labels(parts, 109, cfg)
            for normalized, matrix in ((False, raw), (True, normalize_rows(raw))):
                argv = ["graph", "--in", str(tmp_path / "parts.segmap"), "--parts", "109", *flags]
                assert cli.main(argv + ["--normalized"] * normalized) == 0
                assert capsys.readouterr().out == cli._csv(matrix.entries.tolist())


def test_graph_writes_to_a_text_stdout_in_order(tmp_path):
    # an in-process caller may redirect stdout to a text-only stream, or to one
    # still holding text it wrote before the call
    labels = LabelMap(np.array([[0, 1, 1], [2, 2, 0]], dtype=np.int32), num_classes=3)
    save_map(labels, tmp_path / "parts.segmap")
    want = cli._csv(adjacency_from_labels(labels, 3, AdjacencyConfig()).entries.tolist())
    argv = ["graph", "--in", str(tmp_path / "parts.segmap"), "--parts", "3"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) == 0
    assert text.getvalue() == want
    raw = io.BytesIO()
    layered = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    with contextlib.redirect_stdout(layered):
        print("before")  # held in the text layer until flushed
        assert cli.main(argv) == 0
        print("after")
    layered.flush()
    assert raw.getvalue() == ("before\n" + want + "after\n").encode()


def test_graph_missing_file_is_a_data_error(tmp_path):
    result = run_cli("graph", "--in", str(tmp_path / "missing.segmap"), "--parts", "3")
    assert result.returncode == 2
    assert b"missing.segmap" in result.stderr


@pytest.mark.parametrize("command", [
    ("graph", "--in", "{base}/parts.segmap", "--parts", "3", "--out", ""),
    ("loss", "--pred", "{base}/pred.probmap", "--gt", "{base}/parts.segmap",
     "--mapping", "{base}/labelset.json", "--out", ""),
    ("metrics", "--pred-dir", "{base}", "--gt-dir", "{base}", "--labelset", "{base}/labelset.json",
     "--out", ""),
    ("train-toy", "--config", "{base}/tiny.json", "--steps", "1", "--trace", ""),
    ("train-toy", "--config", "{base}/tiny.json", "--steps", "1", "--params", ""),
    ("synth", "--out-dir", "", "--count", "1"),
], ids=["graph", "loss", "metrics", "train-toy-trace", "train-toy-params", "synth"])
def test_empty_output_path_is_a_data_error(scene_files, command):
    # an empty path names no file: not stdout, and not the current directory
    base, _, _ = scene_files
    (base / "tiny.json").write_text(json.dumps({"scene": {**SMALL_SCENE, "width": 16,
                                                          "height": 16}, "train_scenes": 1}))
    (base / "cwd").mkdir()
    before = sorted(base.rglob("*"))
    package_root = str(Path(cli.__file__).resolve().parents[1])  # PYTHONPATH may be relative
    result = run_cli(*(arg.format(base=base) for arg in command), cwd=base / "cwd",
                     env={"PYTHONPATH": package_root})
    assert result.returncode == 2 and result.stdout == b"", result.stderr
    assert sorted(base.rglob("*")) == before


@pytest.mark.parametrize("command", [
    ("train-toy", "--config", ""),
    ("train-toy", "--steps", "1", "--trace", ""),
    ("train-toy", "--steps", "1", "--params", ""),
    ("synth", "--spec", "", "--out-dir", "{base}/scenes", "--count", "1"),
    ("loss", "--pred", "{base}/pred.probmap", "--gt", "{base}/parts.segmap",
     "--gt-objects", "", "--mapping", "{base}/labelset.json"),
    ("loss", "--pred", "{base}/pred.probmap", "--gt", "{base}/parts.segmap", "--mapping", ""),
    ("metrics", "--pred-dir", "", "--gt-dir", "", "--labelset", "{base}/labelset.json"),
    ("metrics", "--pred-dir", "{base}", "--gt-dir", "{base}", "--labelset", ""),
], ids=["config", "trace", "params", "spec", "gt-objects", "mapping", "dirs", "labelset"])
def test_an_empty_path_flag_is_named_before_any_work(scene_files, command):
    # Path("") is the current directory, which holds a scene here: an empty flag is
    # neither an absent one, nor that directory, nor a file to write after training
    base, _, _ = scene_files
    (base / "cwd").mkdir()
    (base / "cwd" / "scene.segmap").write_bytes((base / "parts.segmap").read_bytes())
    before = sorted(base.rglob("*"))
    package_root = str(Path(cli.__file__).resolve().parents[1])  # PYTHONPATH may be relative
    result = run_cli(*(arg.format(base=base) for arg in command), cwd=base / "cwd",
                     env={"PYTHONPATH": package_root})
    flag = command[command.index("") - 1]
    assert_one_line_data_error(result, f"partgraph {command[0]}: {flag} must not be empty")
    assert sorted(base.rglob("*")) == before


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


def test_train_toy_overflow_is_one_line_with_exit_3(tmp_path):
    # numpy's overflow warnings would precede the diagnostic on stderr
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": {**SMALL_SCENE, "width": 16, "height": 16},
                                    "train_scenes": 2}))
    result = run_cli("train-toy", "--config", str(cfg_path), "--steps", "2", "--lr", "1e300")
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr == b"partgraph train-toy: non-finite activations at step 1\n"


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


def test_synth_writes_the_scenes_of_generate_dataset(tmp_path):
    # _cmd_synth and generate_dataset both take scene i, of seed spec.seed + i, from synth._scenes
    result = run_cli("synth", "--out-dir", str(tmp_path), "--count", "3", "--seed", "5")
    assert result.returncode == 0, result.stderr
    scenes, _ = generate_dataset(SceneSpec(seed=5), 3)
    for i, (_, parts, objects) in enumerate(scenes):
        stem = tmp_path / f"scene_{i:04d}"
        assert np.array_equal(load_segmap(f"{stem}.parts.segmap").labels, parts.labels)
        written = argmax_map(load_probmap(f"{stem}.objects.probmap")).labels
        assert np.array_equal(written, objects.labels)


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


def test_train_toy_unknown_key_names_every_accepted_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["train-toy", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr() == (
        "", "partgraph train-toy: unknown key 'bogus' in config; expected one of T, beta, "
            "element, heldout_scenes, lambda1, lambda2, lr, net, scene, seed, soft_mode, steps, "
            "train_scenes, weighting\n")


# each choice-valued field, set to a value outside its choices, and the exact line it gives
CHOICE_ERRORS = {
    "weighting": (["train-toy"], {"weighting": "bogus"},
                  "weighting must be one of ('weighted', 'unweighted'), got 'bogus'"),
    "soft_mode": (["train-toy"], {"soft_mode": "bogus"},
                  "soft mode must be one of ('hard_max', 'smooth_max'), got 'bogus'"),
    "element": (["train-toy"], {"element": "hex"},
                "element shape must be one of ('square', 'diamond'), got 'hex'"),
    "net.conditioning": (["train-toy"], {"net": {"conditioning": "both"}},
                         "conditioning must be one of ('multi', 'single', 'off'), got 'both'"),
    "scene.layout": (["train-toy"], {"scene": {"layout": "grid"}},
                     "layout must be one of ('stacked_rects', 'nested_blobs'), got 'grid'"),
    "synth-layout": (["synth", "--count", "1", "--out-dir", "scenes"], {"layout": "grid"},
                     "layout must be one of ('stacked_rects', 'nested_blobs'), got 'grid'"),
}


@pytest.mark.parametrize("case", sorted(CHOICE_ERRORS))
def test_each_choice_diagnostic_is_one_exact_line(tmp_path, monkeypatch, capsys, case):
    argv, doc, message = CHOICE_ERRORS[case]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    flag = "--spec" if argv[0] == "synth" else "--config"
    assert cli.main([*argv, flag, "cfg.json"]) == 2
    assert capsys.readouterr() == ("", f"partgraph {argv[0]}: {message}\n")


@pytest.mark.parametrize("key", ["lr", "lambda1", "lambda2"])
def test_an_integer_in_a_float_key_runs_as_the_equal_float(tmp_path, capsys, key):
    results = []
    for number in ("1" + "0" * 20, "1e20"):  # 10**20 is beyond uint64
        cfg_path = tmp_path / f"{number}.json"
        cfg_path.write_text('{"steps": 2, "train_scenes": 1, "%s": %s}' % (key, number))
        code = cli.main(["train-toy", "--config", str(cfg_path)])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]


@pytest.mark.parametrize("key", ["lr", "lambda1", "lambda2", "beta"])
def test_an_integer_beyond_the_float_range_is_one_line_naming_the_key(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"%s": %s}' % (key, "9" * 400))
    assert cli.main(["train-toy", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr() == (
        "", f"partgraph train-toy: config.{key} is an integer beyond the float range\n")


def test_an_integer_too_long_to_parse_is_a_malformed_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"steps": %s}' % ("1" * 5000))
    result = run_cli("train-toy", "--config", str(cfg_path), env={"PYTHONINTMAXSTRDIGITS": "4300"})
    assert_one_line_data_error(result, "malformed train-toy config JSON", "5000 digits")


def test_train_toy_and_graph_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    parts, _, _, _ = generate(SceneSpec(width=64, height=64, seed=4))
    save_map(parts, tmp_path / "parts.segmap")
    outputs = []
    for threads in ("1", "2"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        trace = tmp_path / f"trace{threads}.csv"
        train = run_cli("train-toy", "--steps", "5", "--trace", str(trace), env=env)
        graph = run_cli("graph", "--in", str(tmp_path / "parts.segmap"), "--parts", "7",
                        "--normalized", env=env)
        assert train.returncode == graph.returncode == 0
        outputs.append((train.stdout, trace.read_bytes(), graph.stdout))
    assert outputs[0] == outputs[1]


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


# every entry point that reads a JSON object, with the name its diagnostics give that object
JSON_COMMANDS = [
    (("train-toy", "--config", "{json}", "--steps", "1"), "train-toy config"),
    (("synth", "--spec", "{json}", "--out-dir", "{base}/out", "--count", "1"), "scene spec"),
    (("metrics", "--pred-dir", "{base}", "--gt-dir", "{base}", "--labelset", "{json}"),
     "label-set"),
    (("loss", "--pred", "{base}/pred.probmap", "--gt", "{base}/parts.segmap",
      "--mapping", "{json}"), "label-set"),
]


@pytest.mark.parametrize("command, what", JSON_COMMANDS,
                         ids=["train-toy", "synth", "metrics", "loss"])
def test_json_nested_too_deeply_is_a_data_error(tmp_path, scene_files, command, what):
    # deeper than the parser's recursion limit: one line, not a RecursionError traceback
    base, _, _ = scene_files
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    result = run_cli(*(arg.format(json=path, base=base) for arg in command))
    assert_one_line_data_error(result, f"malformed {what} JSON", "recursion")


@pytest.mark.parametrize("command, what, doc, key", [
    (*JSON_COMMANDS[0], '{"steps": 3, "steps": 5}', "steps"),
    (*JSON_COMMANDS[0], '{"scene": {"seed": 1, "seed": 1}}', "seed"),
    (*JSON_COMMANDS[1], '{"width": 16, "height": 16, "width": 24}', "width"),
    (*JSON_COMMANDS[2], '{"boundaries": [0, 1, 3], "boundaries": [0, 1, 3]}', "boundaries"),
    (*JSON_COMMANDS[3], '{"boundaries": [0, 1, 3], "background_is_class_zero": true, '
                        '"background_is_class_zero": false}', "background_is_class_zero"),
], ids=["train-toy", "train-toy-nested", "synth", "metrics", "loss"])
def test_json_repeated_key_is_a_data_error(tmp_path, scene_files, command, what, doc, key):
    # json.loads alone keeps the last value of a repeated key and says nothing
    base, _, _ = scene_files
    path = tmp_path / "repeated.json"
    path.write_text(doc)
    result = run_cli(*(arg.format(json=path, base=base) for arg in command))
    assert_one_line_data_error(result, f"{what} in {path} repeats the key '{key}'")


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


# 2**30 classes or more: an n x n matrix of 8-byte entries has more bytes than
# the address space holds, so these fail before anything is allocated
@pytest.mark.parametrize("count", [1_100_000_000, 10**12])
def test_metrics_class_count_beyond_the_address_space_is_a_data_error(tmp_path, count):
    (tmp_path / "labelset.json").write_text(json.dumps({"boundaries": [0, 1, 3, 5, count]}))
    result = run_cli(*metrics_csv_argv(tmp_path), preexec_fn=_limit_address_space, timeout=60)
    assert_one_line_data_error(result, f"{count} classes", "address space")


def test_graph_class_count_beyond_the_address_space_is_a_data_error(tmp_path):
    path = tmp_path / "big.segmap"
    path.write_bytes(b"SEGM" + struct.pack("<BIII", 1, 8, 8, 4294967295) + bytes(2 * 64))
    result = run_cli("graph", "--in", str(path), "--parts", "4294967295",
                     preexec_fn=_limit_address_space, timeout=60)
    assert_one_line_data_error(result, "4294967295 classes", "address space")


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


# a (3, H, W) float64 image of more bytes than the address space holds: numpy
# raises before allocating, so these must fail at the spec, not in generation
@pytest.mark.parametrize("command, scene", [
    ("train-toy", {"width": 4294967296, "height": 4294967296}),
    ("train-toy", {"width": 10**30}),
    ("synth", {"width": 10**30}),
], ids=["train-toy-2^32", "train-toy-1e30", "synth-1e30"])
def test_canvas_beyond_the_address_space_is_a_data_error(tmp_path, command, scene):
    path = tmp_path / "config.json"
    if command == "train-toy":
        path.write_text(json.dumps({"scene": scene}))
        argv = ("train-toy", "--config", str(path))
    else:
        path.write_text(json.dumps(scene))
        argv = ("synth", "--spec", str(path), "--out-dir", str(tmp_path / "out"), "--count", "1")
    result = run_cli(*argv, preexec_fn=_limit_address_space, timeout=60)
    assert_one_line_data_error(result, f"a {scene['width']}x{scene.get('height', 32)} canvas",
                               "address space")


# int(np.prod(shape)) wraps the first to a negative count; the second is ~1.7e22
# weights, whose jump-ahead tables would otherwise keep allocating
@pytest.mark.parametrize("net", [
    {"embedding": {"kernel_sizes": [1000000001, 5, 3, 3], "channel_sizes": [8, 16, 32, 64]}},
    {"encoder_channels": [100000000000000000000, 16]},
], ids=["kernel-1e9", "channels-1e20"])
def test_parameters_beyond_the_address_space_are_a_data_error(tmp_path, net):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"net": net}))
    result = run_cli("train-toy", "--config", str(path), preexec_fn=_limit_address_space,
                     timeout=60)
    assert_one_line_data_error(result, "weights", "address space")


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
