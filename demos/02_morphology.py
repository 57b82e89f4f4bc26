"""Binary and soft dilation.

Grows a single pixel with square and diamond elements, then shows how the
smooth-max variant trades exactness for a usable gradient.
"""

import numpy as np

import partgraph as pg
from partgraph.morphology import dilate_array, soft_dilate_backward, soft_dilate_forward


def render(bits):
    for row in bits:
        print("  " + "".join("#" if v else "." for v in row))


def main():
    bits = np.zeros((7, 7), dtype=bool)
    bits[3, 3] = True

    for shape in ("square", "diamond"):
        grown = dilate_array(bits, pg.StructuringElement(shape, 2))
        print(f"single center pixel dilated by a {shape} element of radius 2:")
        render(grown)

    field = np.zeros((5, 5))
    field[2, 2] = 0.9
    field[0, 0] = 0.4
    hard = pg.soft_dilate(field, pg.StructuringElement("square", 1), mode="hard_max")
    smooth = pg.soft_dilate(field, pg.StructuringElement("square", 1),
                            mode="smooth_max", beta=20.0)
    print("input field, hard-max dilation, smooth-max dilation (beta=20):")
    for row_in, row_h, row_s in zip(field, hard, smooth):
        print("  " + "  ".join(f"{v:.2f}" for v in row_in)
              + "   |   " + "  ".join(f"{v:.2f}" for v in row_h)
              + "   |   " + "  ".join(f"{v:.2f}" for v in row_s))

    # the smooth variant passes gradients to every pixel in the window, the
    # hard variant only to the argmax
    out, cache = soft_dilate_forward(field, pg.StructuringElement("square", 1),
                                     "smooth_max", 20.0)
    grad = soft_dilate_backward(np.ones_like(out), cache)
    print(f"smooth-max gradient touches {np.count_nonzero(grad)} input pixels")
    out, cache = soft_dilate_forward(field, pg.StructuringElement("square", 1), "hard_max")
    grad = soft_dilate_backward(np.ones_like(out), cache)
    print(f"hard-max gradient touches {np.count_nonzero(grad)} input pixels")


if __name__ == "__main__":
    main()
