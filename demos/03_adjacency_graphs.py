"""Part-adjacency graphs and the graph-matching loss.

Generates a synthetic scene with a known part chain, builds the weighted
adjacency matrix, normalizes it into proximity ratios, and shows
how the graph-matching loss reacts when a prediction breaks the chain.
"""

import numpy as np

import partgraph as pg
from partgraph.adjacency import gm_value


def print_matrix(title, entries):
    print(f"{title}:")
    for row in entries:
        print("  " + "  ".join(f"{v:7.3f}" for v in row))


def main():
    spec = pg.SceneSpec(width=24, height=32, num_objects=1, parts_per_object=(3,),
                        min_instance=4, seed=2)
    parts, objects, mapping, rgb = pg.generate(spec)
    print(f"scene: one object split into 3 stacked bands on a "
          f"{spec.width}x{spec.height} canvas")

    cfg = pg.AdjacencyConfig(distance_threshold=4)
    raw = pg.adjacency_from_labels(parts, spec.num_parts, cfg)
    print_matrix("dilation-intersection counts (T=4, radius 2)", raw.entries)
    print("band 1 and band 3 are not adjacent:", raw.entries[1, 3] == 0.0)

    reference = pg.normalize_rows(raw)
    print_matrix("proximity ratios (row-wise L2 normalization)", reference.entries)

    # a perfect prediction matches the reference graph exactly
    pred = pg.one_hot(parts, spec.num_parts)
    hard_cfg = pg.AdjacencyConfig(distance_threshold=4, soft_mode="hard_max")
    print(f"graph-matching loss of the perfect prediction: "
          f"{gm_value(pred.probs, reference, hard_cfg):.6f}")

    # swap the two outer bands: same parts present, wrong neighborhoods
    swapped = parts.labels.copy()
    swapped[parts.labels == 1] = 3
    swapped[parts.labels == 3] = 1
    broken = pg.one_hot(pg.LabelMap(swapped, num_classes=spec.num_parts), spec.num_parts)
    print(f"after swapping the outer bands the loss rises to: "
          f"{gm_value(broken.probs, reference, hard_cfg):.6f}")
    print("(the pixel sets are identical, only the relative layout changed;"
          " plain cross-entropy sees this, the graph term localizes it)")


if __name__ == "__main__":
    main()
