"""partgraph benchmark: three workloads, end-to-end metrics and per-layer self time.

    python3 bench/run.py --workload train_toy32 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

A run imports partgraph from ``src/`` next to this directory, sets up its
inputs from ``--seed`` several times (the median is ``setup_s``), measures
operations for ``--seconds`` seconds with a calibration kernel timed around
each, checks the outputs outside the timed region and prints a report. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.

With ``--trace 1`` the operations alternate between untraced and traced. The
traced ones run with every layer boundary in PATCHES wrapped in a span; the
difference between the two kinds is the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import harness
from harness import META, NAME, OP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_toy32", "loss_paper108", "cli_eval")
SETUP_REPS = 3
# After each operation and each set-up, the calibration kernel runs for a
# quarter of the time just measured, and for at least CALIBRATION_MIN_S.
CALIBRATION_SHARE = 0.25
CALIBRATION_MIN_S = 0.25


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------

def _conv_forward_meta(args, kwargs):
    x, weights = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    return weights.shape, x.shape, stride


def _conv_backward_meta(args, kwargs):
    return args[1].shape, args[2].shape


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


# (span name, module whose attribute is replaced, attribute, counter facts).
# A span is named after the module that defines the function; the patch sits
# in the module that calls it, because that is the name the call resolves.
PATCHES = (
    ("synth.generate", "partgraph.synth", "generate", None),
    ("condnet.train_toy", "partgraph.condnet", "train_toy", None),
    ("condnet.conv2d_forward", "partgraph.condnet", "conv2d_forward", _conv_forward_meta),
    ("condnet.conv2d_backward", "partgraph.condnet", "conv2d_backward", _conv_backward_meta),
    ("condnet.toy_backward", "partgraph.condnet", "toy_backward", None),
    ("losses.total_loss", "partgraph.condnet", "total_loss", None),
    ("losses.total_loss", "partgraph.losses", "total_loss", None),
    ("losses.cross_entropy", "partgraph.losses", "cross_entropy", None),
    ("losses.reconstruction_loss", "partgraph.losses", "reconstruction_loss", None),
    ("adjacency.adjacency_from_labels", "partgraph.losses", "adjacency_from_labels",
     lambda a, k: a[0]),
    ("adjacency.adjacency_from_labels", "partgraph.cli", "adjacency_from_labels",
     lambda a, k: a[0]),
    ("morphology.dilate_array", "partgraph.adjacency", "dilate_array", None),
    ("adjacency.normalize_rows", "partgraph.losses", "normalize_rows", None),
    ("adjacency.normalize_rows", "partgraph.cli", "normalize_rows", None),
    ("adjacency.gm_value_and_grad", "partgraph.losses", "gm_value_and_grad", None),
    ("morphology.soft_dilate_forward", "partgraph.adjacency", "soft_dilate_forward",
     lambda a, k: (a[0].size, a[1])),
    ("morphology.soft_dilate_backward", "partgraph.adjacency", "soft_dilate_backward", None),
    ("cli.main", "partgraph.cli", "main", None),
    ("formats.load_map", "partgraph.cli", "load_map", _file_size),
    ("formats.load_labelset", "partgraph.cli", "load_labelset", _file_size),
    ("metrics.confusion", "partgraph.cli", "confusion", None),
    ("metrics.report", "partgraph.cli", "report", None),
)
LAYERS = tuple(dict.fromkeys(name for name, *_ in PATCHES))
SETUP_LAYERS = ("synth.generate",)  # runs only while setting up

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit.replace("item", "setup") if layer in SETUP_LAYERS else unit,
      "lower")
     for layer in LAYERS for kind, unit in (("self_s", "s/item"), ("calls", "count/item"))]
    + [("morphology.soft_window_evals", "count/item", "lower"),
       ("condnet.conv_macs", "count/item", "lower"),
       ("adjacency.reference_useful_ratio", "ratio", "higher"),
       ("formats.bytes_read", "B/item", "lower"),
       ("trace.coverage", "ratio", "higher"),
       ("trace.overhead_s", "s/item", "lower")])

# The bounded timings are at the reference speed of the workload's calibration
# kernel (see workloads.py); raw medians, percentiles and throughput are
# printed too.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms_norm", "ms"))


def _offset_count(elem) -> int:
    r = elem.radius
    return (2 * r + 1) ** 2 if elem.shape == "square" else 2 * r * r + 2 * r + 1


def _conv_macs(span) -> int:
    if span[NAME] == "condnet.conv2d_forward":
        (f, c, kh, kw), (_, h, w), stride = span[META]
        return f * c * kh * kw * -(-h // stride) * -(-w // stride)
    (f, c, kh, kw), (_, oh, ow) = span[META]
    return 2 * f * c * kh * kw * oh * ow  # weight gradient and input gradient


def counters(spans, traced_ops) -> dict:
    """Work counts over the spans of the traced operations, with their bases."""
    evals = macs = nbytes = 0
    calls: dict = {}
    for s in spans:
        if s[OP] not in traced_ops:
            continue
        name = s[NAME]
        if name == "morphology.soft_dilate_forward":
            evals += s[META][0] * _offset_count(s[META][1])
        elif name in ("condnet.conv2d_forward", "condnet.conv2d_backward"):
            macs += _conv_macs(s)
        elif name in ("formats.load_map", "formats.load_labelset"):
            nbytes += s[META]
        elif name == "adjacency.adjacency_from_labels":
            labels = s[META].labels
            calls.setdefault(s[OP], []).append(
                hashlib.sha1(repr(labels.shape).encode() + labels.tobytes()).digest())
    distinct = sum(len(set(keys)) for keys in calls.values())
    total = sum(len(keys) for keys in calls.values())
    return {"soft_window_evals": evals, "conv_macs": macs, "bytes_read": nbytes,
            "reference_useful": harness.ratio(distinct, total)}


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<10} {note}")


def calibrate(kernel, elapsed: float, out: list) -> None:
    """Time ``kernel`` repeatedly after a measurement that took ``elapsed`` seconds."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        kernel()
        end = perf_counter()
        out.append(end - t0)
        if end - start >= max(CALIBRATION_MIN_S, CALIBRATION_SHARE * elapsed):
            return


def measure(wl, seconds: float, tracer, kernel, before: list) -> tuple[list, int, int]:
    """Run operations for ``seconds``; with a tracer, every second one is traced.

    ``kernel`` runs after every operation. Each completed operation is kept
    with the kernel timings taken right before and right after it; ``before``
    holds those of the first operation.
    """
    ops, attempted, failed, raised = [], 0, 0, 0
    min_ops = 2 if tracer else 1
    start = perf_counter()
    index = 0
    while (len(ops) < min_ops or perf_counter() - start < seconds) and raised < 10:
        traced = tracer is not None and index % 2 == 1
        if tracer:
            tracer.op = index
            tracer.install() if traced else tracer.uninstall()
        op_start, after = perf_counter(), []
        try:
            result = wl.op(index)
        except Exception:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc()
            attempted += 1
            failed += 1
            raised += 1
            result = None
        else:
            attempted += result.attempted
            failed += result.failed
        calibrate(kernel, perf_counter() - op_start, after)
        if result is not None:
            ops.append((index, traced, result, before + after))
        before = after
        index += 1
    if tracer:
        tracer.uninstall()
        tracer.op = None
    return ops, attempted, failed


def run_one(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # steadier timings on a small shared box
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy
    import partgraph
    import_s = perf_counter() - start
    if Path(partgraph.__file__).resolve().parent != SRC / "partgraph":
        print(f"bench: imported partgraph from {partgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    facts = harness.machine_facts(ROOT, numpy)
    print(f"partgraph benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(facts))

    tracer = None
    if args.trace:
        tracer = harness.Tracer()
        for name, module, attr, meta in PATCHES:
            tracer.patch(name, module, attr, meta)
        tracer.install()

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    kernel = wl.kernel()
    try:
        setup_reps, setup_kernel = [], []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            wl.setup()
            setup_reps.append(perf_counter() - t0)
            last = []
            calibrate(kernel, setup_reps[-1], last)
            setup_kernel += last
        ops, attempted, failed = measure(wl, args.seconds, tracer, kernel, last)
        rss = harness.peak_rss_mb()  # before the checks, which allocate their own arrays
        checks = wl.checks() if ops else []
    finally:
        wl.close()
        try:
            workdir.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass
    if not ops:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)

    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    failed_ratio = harness.ratio(failed, attempted)
    print(f"end to end ({'untraced operations of a traced run' if tracer else 'untraced'}):")
    ref = kernel.REFERENCE_S
    plain = [(r, around) for _, traced, r, around in ops if not traced]
    op_kernel = [t for _, around in plain for t in around]
    for phase, times in (("set-up", setup_kernel), ("around operations", op_kernel)):
        _line(f"calibration kernel, {phase}", 1000.0 * harness.percentile(times, 50), "ms",
              f"median of n={len(times)}, {type(kernel).__name__}, reference {1000.0 * ref:g} ms")
    setup_raw = import_s + harness.percentile(setup_reps, 50)
    setup_s = harness.at_reference_speed(setup_raw, setup_kernel, ref)
    _line("setup_s", setup_s, "s", f"at reference speed; raw: import {import_s:.3f} s + median "
          f"of {SETUP_REPS} set-ups [{', '.join(f'{s:.3f}' for s in setup_reps)}]")
    _line("peak_rss_mb", rss, "MB")
    _line("failed_ratio", failed_ratio["value"], "", f"{failed} failed of {attempted} attempted")

    wall = sum(r.seconds for r, _ in plain)
    items = sum(r.items for r, _ in plain)
    items_per_s = items / wall
    _line(wl.throughput, items_per_s, "1/s",
          f"{items} {wl.item}s in {wall:.3f} s over {len(plain)} operations")
    samples, scaled = {}, []
    for r, around in plain:
        for key, values in r.samples.items():
            samples.setdefault(key, []).extend(values)
        # each operation at the speed the kernel measured around it
        scaled += [harness.at_reference_speed(v, around, ref) for v in r.samples[wl.timings[0][1]]]
    for name, key, q in wl.timings:
        n = len(samples[key])
        _line(name, 1000.0 * harness.percentile(samples[key], q), "ms",
              f"n={n}, {harness.samples_beyond(n, q)} beyond, range "
              f"{1000.0 * min(samples[key]):.6g}..{1000.0 * max(samples[key]):.6g}")
    op_ms_norm = 1000.0 * harness.percentile(scaled, 50)
    _line("op_ms_norm", op_ms_norm, "ms", f"{wl.timings[0][0]} at reference speed, n={len(scaled)}")

    if tracer is None:
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss, "op_ms_norm": op_ms_norm}
        units = dict(END_TO_END)
    else:
        metrics = per_layer(wl, tracer, ops, setup_reps, wall / items)
        units = {name: unit for name, unit, _ in PER_LAYER}
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        harness.write_spans(out, tracer.spans, harness.self_times(tracer.spans))
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def per_layer(wl, tracer, ops, setup_reps, untraced_s_per_item) -> dict:
    spans = tracer.spans
    selfs = harness.self_times(spans)
    traced_ops = {index for index, traced, _, _ in ops if traced}
    traced = [r for _, t, r, _ in ops if t]
    wall = sum(r.seconds for r in traced)
    items = sum(r.items for r in traced)
    in_ops = harness.layer_totals(spans, selfs, lambda s: s[OP] in traced_ops)
    in_setup = harness.layer_totals(spans, selfs, lambda s: s[OP] is None)
    covered = sum(own for s, own in zip(spans, selfs) if s[OP] in traced_ops)
    coverage = harness.ratio(covered, wall)
    overhead = wall / items - untraced_s_per_item
    counts = counters(spans, traced_ops)

    print(f"per layer ({len(traced)} traced operations, {items} {wl.item}s, "
          f"{wall:.3f} s traced wall time):")
    metrics = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            own, calls = in_setup.get(layer, (0.0, 0))
            metrics[f"{layer}.self_s"] = own / len(setup_reps)
            metrics[f"{layer}.calls"] = calls / len(setup_reps)
        else:
            own, calls = in_ops.get(layer, (0.0, 0))
            metrics[f"{layer}.self_s"] = own / items
            metrics[f"{layer}.calls"] = calls / items
    for layer in sorted(LAYERS, key=lambda n: -metrics[f"{n}.self_s"]):
        share = "per set-up" if layer in SETUP_LAYERS else \
            f"{100.0 * metrics[f'{layer}.self_s'] * items / wall:5.1f}% of traced wall"
        _line(f"{layer}.self_s", metrics[f"{layer}.self_s"], "s", share)
    metrics["morphology.soft_window_evals"] = counts["soft_window_evals"] / items
    metrics["condnet.conv_macs"] = counts["conv_macs"] / items
    useful = counts["reference_useful"]
    metrics["adjacency.reference_useful_ratio"] = useful["value"]
    metrics["formats.bytes_read"] = counts["bytes_read"] / items
    metrics["trace.coverage"] = coverage["value"]
    metrics["trace.overhead_s"] = overhead
    _line("morphology.soft_window_evals", metrics["morphology.soft_window_evals"], "/item")
    _line("condnet.conv_macs", metrics["condnet.conv_macs"], "/item")
    _line("adjacency.reference_useful_ratio", useful["value"], "",
          f"{useful['num']} distinct label maps / {useful['den']} calls")
    _line("formats.bytes_read", metrics["formats.bytes_read"], "B/item")
    _line("trace.coverage", coverage["value"], "",
          f"{coverage['num']:.3f} s of self time / {coverage['den']:.3f} s traced wall")
    _line("trace.overhead_s", overhead, "s/item",
          f"traced {wall / items:.6g} - untraced {untraced_s_per_item:.6g} s/item")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Run each workload in its own process, so peak RSS and set-up stay per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "partgraph" / "__init__.py").is_file():
        print(f"bench: no partgraph sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
