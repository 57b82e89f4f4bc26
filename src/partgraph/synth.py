"""Deterministic synthetic scenes with known part-adjacency structure.

Scenes pair a part label map with its object label map and an RGB rendering.
Objects are axis-aligned rectangles on a background canvas, placed in
separate columns so distinct objects never touch; inside each object the
parts form a known adjacency chain:

- ``stacked_rects``: the object rectangle is cut into horizontal bands, one
  per part, top to bottom. Band b touches band b+1 and (for band heights
  above the distance threshold) nothing further.
- ``nested_blobs``: concentric rectangular rings, outermost part first.
  Ring r touches ring r+1; for ring thicknesses above the threshold, only
  the outermost ring touches background.

Geometry jitter, part colors, and pixel noise all come from the package's
fixed xorshift64* generator, so a spec (including its seed) reproduces the
same scene bit for bit on any platform. The mean color of a part depends
only on its part index, giving a dataset-wide palette a network can learn;
per-pixel noise depends on the scene seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import LabelMap, PartsToObjectsMapping, project_labels
from .errors import DomainError
from .rng import Xorshift64Star

LAYOUTS = ("stacked_rects", "nested_blobs")

_COLOR_SALT = 0xC01D_FACE
_NOISE_AMPLITUDE = 0.04


@dataclass(frozen=True)
class SceneSpec:
    """Canvas size, object/part structure, and the generation seed."""

    width: int = 32
    height: int = 32
    num_objects: int = 3
    parts_per_object: tuple[int, ...] = (2, 2, 2)
    min_instance: int = 8
    layout: str = "stacked_rects"
    seed: int = 0

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise DomainError(f"canvas must be at least 8x8, got {self.width}x{self.height}")
        if self.num_objects < 1:
            raise DomainError("need at least one object")
        if len(self.parts_per_object) != self.num_objects:
            raise DomainError(
                f"{self.num_objects} objects but {len(self.parts_per_object)} part counts"
            )
        if any(p < 1 for p in self.parts_per_object):
            raise DomainError("every object needs at least one part")
        if self.min_instance < 1:
            raise DomainError("min_instance must be >= 1")
        if self.layout not in LAYOUTS:
            raise DomainError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        object.__setattr__(self, "parts_per_object", tuple(int(p) for p in self.parts_per_object))

    @property
    def num_parts(self) -> int:
        """Total part classes including background part 0."""
        return 1 + sum(self.parts_per_object)

    def mapping(self) -> PartsToObjectsMapping:
        bounds = [0, 1]
        for p in self.parts_per_object:
            bounds.append(bounds[-1] + p)
        return PartsToObjectsMapping(tuple(bounds))


def part_color(part: int) -> np.ndarray:
    """Dataset-wide mean RGB color of a part index (background is dark gray)."""
    if part == 0:
        return np.array([0.08, 0.08, 0.08])
    rng = Xorshift64Star(_COLOR_SALT ^ (part * 0x9E3779B97F4A7C15))
    return np.array([rng.uniform(0.2, 0.95) for _ in range(3)])


def _object_rect(spec: SceneSpec, obj_index: int, rng: Xorshift64Star):
    """Column-confined rectangle for foreground object ``obj_index`` (0-based)."""
    colw = spec.width // spec.num_objects
    gapx = max(3, colw // 6)
    gapy = max(3, spec.height // 8)
    jx = rng.randint(2)
    jy = rng.randint(2)
    x0 = obj_index * colw + gapx + jx
    x1 = (obj_index + 1) * colw - gapx + jx
    y0 = gapy + jy
    y1 = spec.height - gapy + jy - 1
    if x1 - x0 < 1 or y1 - y0 < 1:
        raise DomainError(
            f"canvas {spec.width}x{spec.height} is too small for {spec.num_objects} objects"
        )
    return x0, x1, y0, y1


def _paint_stacked(parts: np.ndarray, rect, first_part: int, count: int) -> None:
    x0, x1, y0, y1 = rect
    band = (y1 - y0) // count
    if band < 1:
        raise DomainError(f"object of height {y1 - y0} cannot hold {count} stacked parts")
    for b in range(count):
        top = y0 + b * band
        bottom = y1 if b == count - 1 else top + band
        parts[top:bottom, x0:x1] = first_part + b


def _paint_nested(parts: np.ndarray, rect, first_part: int, count: int) -> None:
    x0, x1, y0, y1 = rect
    thickness = min(x1 - x0, y1 - y0) // (2 * count)
    if thickness < 1:
        raise DomainError(f"object {x1 - x0}x{y1 - y0} cannot hold {count} nested rings")
    for r in range(count):
        inset = r * thickness
        parts[y0 + inset : y1 - inset, x0 + inset : x1 - inset] = first_part + r


def generate(spec: SceneSpec):
    """Build one scene: (parts, objects, mapping, rgb).

    ``objects`` equals ``project_labels(parts, mapping)`` by construction and
    ``rgb`` is a (3, H, W) float tensor in [0, 1].
    """
    rng = Xorshift64Star(spec.seed)
    mapping = spec.mapping()
    parts = np.zeros((spec.height, spec.width), dtype=np.int32)

    for obj in range(spec.num_objects):
        rect = _object_rect(spec, obj, rng)
        first_part = mapping.boundaries[obj + 1]
        count = spec.parts_per_object[obj]
        if spec.layout == "stacked_rects":
            _paint_stacked(parts, rect, first_part, count)
        else:
            _paint_nested(parts, rect, first_part, count)

    sizes = np.bincount(parts.ravel(), minlength=spec.num_parts)
    for part in range(1, spec.num_parts):
        if sizes[part] < spec.min_instance:
            raise DomainError(
                f"part {part} occupies {sizes[part]} px, below the {spec.min_instance} px minimum"
            )

    palette = np.stack([part_color(p) for p in range(spec.num_parts)])
    # one noise draw per value in (c, y, x) order
    rgb = rng.uniform_array(3 * parts.size, -_NOISE_AMPLITUDE, _NOISE_AMPLITUDE)
    rgb = rgb.reshape((3,) + parts.shape)
    rgb += np.moveaxis(palette[parts], 2, 0)
    np.clip(rgb, 0.0, 1.0, out=rgb)

    parts_map = LabelMap(parts, num_classes=spec.num_parts)
    objects_map = project_labels(parts_map, mapping)
    return parts_map, objects_map, mapping, rgb


def generate_dataset(spec: SceneSpec, count: int):
    """List of ``count`` scenes from consecutive seeds, plus the shared mapping.

    Scene i uses ``spec.seed + i``. Returns (scenes, mapping) where each
    scene is an (rgb, parts, objects) triple ready for the training loop.
    """
    if count < 1:
        raise DomainError("need at least one scene")
    scenes = []
    mapping = spec.mapping()
    for i in range(count):
        parts, objects, _, rgb = generate(replace(spec, seed=spec.seed + i))
        scenes.append((rgb, parts, objects))
    return scenes, mapping
