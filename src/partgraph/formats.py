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
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
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


def _load_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed {what} JSON in {path}: {exc}") from exc


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
    labels = np.frombuffer(payload, dtype="<u2").reshape(height, width).astype(np.int32)
    if labels.max() >= num_classes:
        raise DomainError(
            f"label {labels.max()} exceeds declared num_classes {num_classes}"
        )
    return LabelMap(labels, num_classes=num_classes)


# ---------------------------------------------------------------------------
# PGM import/export
# ---------------------------------------------------------------------------

def _pgm_tokens(data: bytes):
    """Yield header tokens, skipping '#' comments."""
    i = 0
    while i < len(data):
        if data[i : i + 1].isspace():
            i += 1
        elif data[i : i + 1] == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            yield data[i:j], j
            i = j


def load_pgm(path: str | Path) -> LabelMap:
    """Read a P2 or P5 PGM; num_classes is maxval + 1."""
    data = Path(path).read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        (w_tok, _), (h_tok, _), (m_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w_tok), int(h_tok), int(m_tok)
    except (StopIteration, ValueError) as exc:
        raise DomainError(f"malformed PGM header in {path}") from exc
    if magic not in (b"P2", b"P5"):
        raise DomainError(f"unsupported PGM magic {magic!r}")
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise DomainError(f"bad PGM header: width={width} height={height} maxval={maxval}")
    n = width * height
    if magic == b"P2":
        try:
            values = np.array(data[end:].split(), dtype=np.int64)
        except ValueError as exc:
            raise DomainError("non-numeric sample in P2 payload") from exc
        if values.size != n:
            raise DomainError(f"P2 payload has {values.size} samples, expected {n}")
    else:
        payload = data[end + 1 : ]  # single whitespace byte after maxval
        if maxval < 256:
            if len(payload) < n:
                raise DomainError(f"truncated P5 payload: {len(payload)} bytes, expected {n}")
            values = np.frombuffer(payload[:n], dtype=np.uint8).astype(np.int64)
        else:
            if len(payload) < 2 * n:
                raise DomainError(f"truncated P5 payload: {len(payload)} bytes, expected {2 * n}")
            values = np.frombuffer(payload[: 2 * n], dtype=">u2").astype(np.int64)
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
            lines = ["\n".join(" ".join(str(v) for v in row) for row in label_map.labels)]
            f.write(("\n".join(lines) + "\n").encode("ascii"))
        elif maxval < 256:
            f.write(label_map.labels.astype(np.uint8).tobytes())
        else:
            f.write(label_map.labels.astype(">u2").tobytes())


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
    doc = _load_json(path, "label-set")
    for key, kind, what in (("boundaries", int, "integers"), ("object_names", str, "strings"),
                            ("part_names", str, "strings")):
        value = doc.get(key) if isinstance(doc, dict) else None
        if value is not None and not (isinstance(value, list) and all(
                isinstance(v, kind) and not isinstance(v, bool) for v in value)):
            raise DomainError(f"label-set {key} must be a list of {what}, got {value!r}")
    try:
        mapping = PartsToObjectsMapping(
            boundaries=tuple(doc["boundaries"]),
            object_names=tuple(doc["object_names"]) if "object_names" in doc else None,
            part_names=tuple(doc["part_names"]) if "part_names" in doc else None,
        )
    except (KeyError, TypeError) as exc:
        raise DomainError(f"label-set JSON missing fields: {exc}") from exc
    if "num_parts" in doc and doc["num_parts"] != mapping.num_parts:
        raise DomainError(
            f"declared num_parts {doc['num_parts']} disagrees with boundaries ({mapping.num_parts})"
        )
    if "num_objects" in doc and doc["num_objects"] != mapping.num_objects:
        raise DomainError(
            f"declared num_objects {doc['num_objects']} disagrees with boundaries "
            f"({mapping.num_objects})"
        )
    background = doc.get("background_is_class_zero", True)
    if not isinstance(background, bool):
        raise DomainError(f"label-set background_is_class_zero must be true or false, "
                          f"got {background!r}")
    return LabelSet(mapping, background)


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
