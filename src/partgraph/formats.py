"""File formats: SEGM label maps, PGM import/export, PROB probability maps,
TPRM parameter blobs, label-set JSON, and PPM image dumps.

Binary layouts (all integers little-endian unless noted):

- SEGM v1: magic ``SEGM``, u8 version, u32 width, u32 height, u32 num_classes,
  then width*height u16 labels, row-major.
- PROB v1: magic ``PROB``, u8 version, u32 width, u32 height, u32 channels,
  then f32 probabilities, channel-last row-major.
- TPRM v1: magic ``TPRM``, u8 version, u32 entry count, then per entry:
  u16 name length, UTF-8 name, u8 ndim, ndim u32 dims, f32 data in C order.
  Entries are sorted by name so files are byte-reproducible.

PGM follows the netpbm spec: P2 (ASCII) and P5 (raw) are accepted; on export
maxval is num_classes - 1 (at least 1), and samples wider than 255 use the
two-byte big-endian encoding netpbm prescribes.

JSON inputs (label sets, ``train-toy --config``, ``synth --spec``) each hold
one object, whose keys are typed by the dataclass fields they set; a bad one
is a one-line DomainError that names it, as ``label-set.boundaries[0]``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import stat
import struct
import typing
from pathlib import Path

import numpy as np

from .core import LabelMap, LabelSet, PartsToObjectsMapping, ProbMap
from .errors import DomainError

SEGM_MAGIC = b"SEGM"
PROB_MAGIC = b"PROB"
TPRM_MAGIC = b"TPRM"
FORMAT_VERSION = 1


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes. A regular file is never asked for more than it
    still holds, so a size declared by a corrupt header allocates nothing."""
    info = os.fstat(f.fileno())
    left = max(info.st_size - f.tell(), 0) if stat.S_ISREG(info.st_mode) else n
    data = f.read(min(n, left))
    if len(data) != n:
        raise DomainError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def _read_header(f, magic: bytes, layout: str) -> list:
    """The header fields that follow ``magic`` and the version byte, unpacked
    with the struct ``layout``; a wrong magic or version is a DomainError."""
    found = _read_exact(f, len(magic), "magic")
    if found != magic:
        raise DomainError(f"bad magic {found!r}, expected {magic!r}")
    header = f"<B{layout}"
    version, *fields = struct.unpack(header, _read_exact(f, struct.calcsize(header), "header"))
    if version != FORMAT_VERSION:
        raise DomainError(f"unsupported {magic.decode()} version {version}")
    return fields


def _load_json(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; anything else is a DomainError naming ``what``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DomainError(f"malformed {what} JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{what} in {path} must be a JSON object, got {json.dumps(doc)}")
    return doc


# JSON type -> (one value, a list of them, the Python types that hold it)
_SCALARS = {int: ("an integer", "integers", (int,)), float: ("a number", "numbers", (int, float)),
            str: ("a string", "strings", (str,)), bool: ("true or false", "booleans", (bool,))}


def _typed(value, hint, where: str):
    """``value`` checked against the field type ``hint`` (``X | None`` reads as ``X``);
    lists become tuples and objects become nested configs."""
    if hint in _SCALARS:
        expected, _, kinds = _SCALARS[hint]
        if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
            return value
    elif typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        expected = f"a list of {_SCALARS[item][1]}"
        if isinstance(value, list):
            try:
                return tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
            except DomainError as exc:
                raise DomainError(f"{where} must be {expected}: {exc}") from None
    elif type(None) in typing.get_args(hint):
        return _typed(value, next(a for a in typing.get_args(hint) if a is not type(None)), where)
    else:
        return hint(**_config_fields(hint, value, where))
    raise DomainError(f"{where} must be {expected}, got {json.dumps(value)}")


def _config_fields(cls, doc, where: str, keys: dict[str, str] | None = None,
                   **flags) -> dict:
    """Keyword arguments for the dataclass ``cls``: the keys present in the
    JSON object ``doc``, then every flag that is not None. Fields named by
    neither keep the class default.

    ``keys`` maps the accepted JSON keys to field names (default: every field
    under its own name). An unknown key, a wrongly typed value or a missing
    field without a default is a DomainError that names it.
    """
    if not isinstance(doc, dict):
        raise DomainError(f"{where} must be an object, got {json.dumps(doc)}")
    hints = typing.get_type_hints(cls)
    keys = keys or {name: name for name in hints}
    fields = {}
    for key, value in doc.items():
        if key not in keys:
            raise DomainError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(sorted(keys))}")
        fields[keys[key]] = _typed(value, hints[keys[key]], f"{where}.{key}")
    fields.update((name, value) for name, value in flags.items() if value is not None)
    for f in dataclasses.fields(cls):
        if f.name not in fields and f.default is f.default_factory is dataclasses.MISSING:
            raise DomainError(f"{where} lacks the required key {f.name!r}")
    return fields


# ---------------------------------------------------------------------------
# SEGM label maps
# ---------------------------------------------------------------------------

def save_segmap(label_map: LabelMap, path: str | Path) -> None:
    """Write a label map in SEGM v1 format.

    The header declares the map's class count, else max label + 1.
    """
    num_classes = label_map.num_classes
    if num_classes is None:
        num_classes = int(label_map.labels.max()) + 1
    if num_classes > 1 << 16:
        raise DomainError(f"SEGM stores u16 labels; {num_classes} classes do not fit")
    with open(path, "wb") as f:
        f.write(SEGM_MAGIC)
        f.write(struct.pack("<BIII", FORMAT_VERSION, label_map.width, label_map.height, num_classes))
        f.write(label_map.labels.astype("<u2").tobytes())


def load_segmap(path: str | Path) -> LabelMap:
    """Read a SEGM v1 file; labels are validated against the declared class count."""
    with open(path, "rb") as f:
        width, height, num_classes = _read_header(f, SEGM_MAGIC, "III")
        if width < 1 or height < 1 or num_classes < 1:
            raise DomainError(f"bad header: width={width} height={height} num_classes={num_classes}")
        payload = _read_exact(f, 2 * width * height, "label payload")
    return LabelMap(np.frombuffer(payload, dtype="<u2").reshape(height, width),
                    num_classes=num_classes)


# ---------------------------------------------------------------------------
# PGM import/export
# ---------------------------------------------------------------------------

# the magic number, then width, height and maxval, each after whitespace or
# '#' comments that run to the end of their line, then one whitespace byte
_PGM_HEADER = re.compile(rb"(P[0-9])" + rb"(?:(?:\s|#[^\n]*\n)+([0-9]+))" * 3 + rb"\s")


def _pgm_sample(maxval: int) -> np.dtype:
    """The P5 sample type: one byte below 256, else two bytes big-endian."""
    return np.dtype(np.uint8 if maxval < 256 else ">u2")


def load_pgm(path: str | Path) -> LabelMap:
    """Read a P2 or P5 PGM; num_classes is maxval + 1."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise DomainError(f"malformed PGM header in {path}")
    magic, *numbers = header.groups()
    if magic not in (b"P2", b"P5"):
        raise DomainError(f"unsupported PGM magic {magic!r}")
    try:  # int() refuses numbers longer than sys.get_int_max_str_digits()
        width, height, maxval = map(int, numbers)
    except ValueError as exc:
        raise DomainError(f"malformed PGM header in {path}") from exc
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise DomainError(f"bad PGM header: width={width} height={height} maxval={maxval}")
    n = width * height
    if magic == b"P2":
        try:
            values = np.array(data[header.end():].split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DomainError("P2 samples must be integers that fit int64") from exc
        if values.size != n:
            raise DomainError(f"P2 payload has {values.size} samples, expected {n}")
    else:
        sample = _pgm_sample(maxval)
        size, expected = len(data) - header.end(), n * sample.itemsize
        if size < expected:
            raise DomainError(f"truncated P5 payload: {size} bytes, expected {expected}")
        values = np.frombuffer(data, sample, count=n, offset=header.end()).astype(np.int64)
    if values.max() > maxval:
        raise DomainError(f"sample {values.max()} exceeds maxval {maxval}")
    labels = values.reshape(height, width).astype(np.int32)
    return LabelMap(labels, num_classes=maxval + 1)


def save_pgm(label_map: LabelMap, path: str | Path, ascii_format: bool = False) -> None:
    """Write a label map as PGM (P5 raw by default, P2 with ``ascii_format``)."""
    num_classes = label_map.num_classes or int(label_map.labels.max()) + 1
    maxval = max(1, num_classes - 1)
    if maxval > 65535:
        raise DomainError(f"PGM maxval is limited to 65535, needed {maxval}")
    header = f"{'P2' if ascii_format else 'P5'}\n{label_map.width} {label_map.height}\n{maxval}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        if ascii_format:
            rows = "\n".join(" ".join(str(v) for v in row) for row in label_map.labels)
            f.write((rows + "\n").encode("ascii"))
        else:
            f.write(label_map.labels.astype(_pgm_sample(maxval)).tobytes())


def load_map(path: str | Path) -> LabelMap:
    """Read a label map, picking the format from the file suffix (.segmap or .pgm)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        return load_pgm(path)
    return load_segmap(path)


def save_map(label_map: LabelMap, path: str | Path) -> None:
    """Write a label map, picking the format from the file suffix (.segmap or .pgm)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        save_pgm(label_map, path)
    else:
        save_segmap(label_map, path)


# ---------------------------------------------------------------------------
# PROB probability maps
# ---------------------------------------------------------------------------

def save_probmap(prob_map: ProbMap, path: str | Path) -> None:
    """Write a probability map in PROB v1 format (f32 payload)."""
    with open(path, "wb") as f:
        f.write(PROB_MAGIC)
        f.write(struct.pack("<BIII", FORMAT_VERSION, prob_map.width, prob_map.height,
                            prob_map.num_classes))
        f.write(prob_map.probs.astype("<f4").tobytes())


def load_probmap(path: str | Path) -> ProbMap:
    """Read a PROB v1 file.

    f32 quantization can leave per-pixel sums a few ULP away from 1, so sums
    are validated at a coarse 1e-4 tolerance and each pixel is renormalized.
    """
    with open(path, "rb") as f:
        width, height, channels = _read_header(f, PROB_MAGIC, "III")
        if width < 1 or height < 1 or channels < 1:
            raise DomainError(f"bad header: width={width} height={height} channels={channels}")
        payload = _read_exact(f, 4 * width * height * channels, "probability payload")
    probs = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    probs = probs.reshape(height, width, channels)
    if probs.min() < 0.0 or probs.max() > 1.0 + 1e-4:
        raise DomainError("probabilities outside [0, 1]")
    sums = probs.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-4:
        raise DomainError("per-pixel probability sums deviate from 1 beyond f32 tolerance")
    return ProbMap(probs / sums[:, :, None])


# ---------------------------------------------------------------------------
# Label-set JSON
# ---------------------------------------------------------------------------

def save_labelset(label_set: LabelSet, path: str | Path) -> None:
    doc = {
        "num_parts": label_set.num_parts,
        "num_objects": label_set.num_objects,
        "boundaries": list(label_set.mapping.boundaries),
        "background_is_class_zero": label_set.background_is_class_zero,
    }
    if label_set.mapping.part_names is not None:
        doc["part_names"] = list(label_set.mapping.part_names)
    if label_set.mapping.object_names is not None:
        doc["object_names"] = list(label_set.mapping.object_names)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_labelset(path: str | Path) -> LabelSet:
    """Read a label set as :func:`save_labelset` writes it; other keys are ignored."""
    doc = _load_json(path, "label-set")
    names = ("boundaries", "object_names", "part_names")
    mapping = PartsToObjectsMapping(**_config_fields(
        PartsToObjectsMapping, {key: doc[key] for key in names if key in doc}, "label-set"))
    for key, count in (("num_parts", mapping.num_parts), ("num_objects", mapping.num_objects)):
        if key in doc and _typed(doc[key], int, f"label-set.{key}") != count:
            raise DomainError(f"declared {key} {doc[key]} disagrees with boundaries ({count})")
    background = doc.get("background_is_class_zero", True)
    return LabelSet(mapping, _typed(background, bool, "label-set.background_is_class_zero"))


# ---------------------------------------------------------------------------
# TPRM parameter blobs
# ---------------------------------------------------------------------------

def save_params(params: dict[str, np.ndarray], path: str | Path) -> None:
    """Write named f32 arrays in TPRM v1 format, sorted by name."""
    with open(path, "wb") as f:
        f.write(TPRM_MAGIC)
        f.write(struct.pack("<BI", FORMAT_VERSION, len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Read a TPRM v1 file back into a dict of float64 arrays."""
    params: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        (count,) = _read_header(f, TPRM_MAGIC, "I")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            name = _read_exact(f, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "shape"))
            size = math.prod(shape)  # exact: np.prod wraps at int64
            data = _read_exact(f, 4 * size, f"data for {name}")
            params[name] = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(shape)
    return params


# ---------------------------------------------------------------------------
# Debug PPM dumps
# ---------------------------------------------------------------------------

def save_ppm(rgb: np.ndarray, path: str | Path) -> None:
    """Write a (3, H, W) float tensor in [0, 1] as binary P6 PPM."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise DomainError(f"expected a (3, H, W) tensor, got shape {rgb.shape}")
    quantized = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
    h, w = rgb.shape[1], rgb.shape[2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.moveaxis(quantized, 0, 2).tobytes())
