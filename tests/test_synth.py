import numpy as np
import pytest

from partgraph import (
    DomainError,
    SceneSpec,
    Xorshift64Star,
    generate,
    generate_dataset,
    project_labels,
)

from oracles import exact_distance_oracle, scene_rgb_oracle

SEEDS = [0, 1, 2**64 - 1]


def test_prng_is_stable():
    rng = Xorshift64Star(42)
    first = [rng.next_u64() for _ in range(3)]
    again = Xorshift64Star(42)
    assert first == [again.next_u64() for _ in range(3)]
    # seed 0 is remapped, not stuck
    zero = Xorshift64Star(0)
    assert zero.next_u64() != 0
    u = Xorshift64Star(7).uniform()
    assert 0.0 <= u < 1.0
    with pytest.raises(ValueError):
        Xorshift64Star(1).randint(0)


# the first three next_u64() outputs of each seed, pinned from the scalar generator
KNOWN_U64 = {
    0: [0x0D83B3E29A21487A, 0x54C44C79F1FE9D67, 0xA845F342007A0E78],
    1: [0x47E4CE4B896CDD1D, 0xABCFA6A8E079651D, 0xB9D10D8FEB731F57],
    2**64 - 1: [0xF92CC9E5C6000000, 0x8FF484D8FD1EAEE3, 0x346C95F3326FABC6],
}


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_stream_known_answers(seed):
    rng = Xorshift64Star(seed)
    assert [rng.next_u64() for _ in range(3)] == KNOWN_U64[seed]


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-0.3, 1.7)], ids=["unit", "shifted"])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 10_856, 196_608])
@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_array_equals_scalar_draws(seed, n, bounds):
    bulk, scalar = Xorshift64Star(seed), Xorshift64Star(seed)
    got = bulk.uniform_array(n, *bounds)
    expected = np.array([scalar.uniform(*bounds) for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert bulk.next_u64() == scalar.next_u64()


def test_uniform_array_takes_numpy_integer_counts():
    bulk, scalar = Xorshift64Star(5), Xorshift64Star(5)
    got = bulk.uniform_array(np.int64(100), 0.2, 0.95)
    assert np.array_equal(got, [scalar.uniform(0.2, 0.95) for _ in range(100)])


@pytest.mark.parametrize("n", [-1, 2.0, 2.5, "3", None])
def test_uniform_array_rejects_bad_counts(n):
    with pytest.raises(ValueError):
        Xorshift64Star(1).uniform_array(n)


@pytest.mark.parametrize("spec", [
    SceneSpec(width=32, height=32, seed=2**64 - 1),
    SceneSpec(width=40, height=24, num_objects=2, parts_per_object=(3, 2),
              layout="nested_blobs", seed=0),
    SceneSpec(width=20, height=36, num_objects=1, parts_per_object=(3,), min_instance=4, seed=7),
], ids=["square-stacked", "wide-nested", "tall-stacked"])
def test_scene_rgb_equals_scalar_draws(spec):
    parts, _, _, rgb = generate(spec)
    assert rgb.tobytes() == scene_rgb_oracle(spec, parts.labels).tobytes()


def test_spec_validation():
    with pytest.raises(DomainError):
        SceneSpec(width=4)
    with pytest.raises(DomainError):
        SceneSpec(num_objects=2, parts_per_object=(1,))
    with pytest.raises(DomainError):
        SceneSpec(layout="scatter")
    spec = SceneSpec(num_objects=2, parts_per_object=(3, 1))
    assert spec.num_parts == 5
    assert spec.mapping().boundaries == (0, 1, 4, 5)


def test_generated_objects_are_projection_of_parts():
    for layout in ("stacked_rects", "nested_blobs"):
        spec = SceneSpec(width=32, height=32, num_objects=2, parts_per_object=(3, 2),
                         layout=layout, seed=5)
        parts, objects, mapping, rgb = generate(spec)
        assert np.array_equal(objects.labels, project_labels(parts, mapping).labels)
        assert rgb.shape == (3, 32, 32)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0


def test_every_part_meets_min_instance():
    spec = SceneSpec(width=32, height=32, num_objects=3, parts_per_object=(2, 2, 2),
                     min_instance=8, seed=1)
    parts, _, _, _ = generate(spec)
    counts = np.bincount(parts.labels.ravel(), minlength=spec.num_parts)
    assert np.all(counts[1:] >= 8)


def test_same_seed_is_bit_identical():
    spec = SceneSpec(seed=9)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a[0].labels, b[0].labels)
    assert np.array_equal(a[3], b[3])
    c = generate(SceneSpec(seed=10))
    assert not np.array_equal(a[3], c[3])


def test_single_part_object_touches_only_background():
    spec = SceneSpec(width=16, height=16, num_objects=1, parts_per_object=(1,),
                     min_instance=4, seed=3)
    parts, _, mapping, _ = generate(spec)
    adj = exact_distance_oracle(parts.labels, 2, "square", 4)
    assert adj[0, 1] > 0 and adj[1, 0] > 0


def test_stacked_bands_form_a_chain():
    # three bands high enough that band 1 and band 3 are farther than T apart
    spec = SceneSpec(width=24, height=32, num_objects=1, parts_per_object=(3,),
                     min_instance=4, seed=2)
    parts, _, mapping, _ = generate(spec)
    adj = exact_distance_oracle(parts.labels, 4, "square", 4)
    assert adj[1, 2] > 0 and adj[2, 3] > 0
    assert adj[1, 3] == 0 and adj[3, 1] == 0
    for part in (1, 2, 3):
        assert adj[0, part] > 0  # background reaches every band


def test_nested_rings_form_a_chain():
    spec = SceneSpec(width=48, height=48, num_objects=1, parts_per_object=(3,),
                     min_instance=4, layout="nested_blobs", seed=4)
    parts, _, mapping, _ = generate(spec)
    adj = exact_distance_oracle(parts.labels, 4, "square", 2)
    assert adj[1, 2] > 0 and adj[2, 3] > 0
    assert adj[1, 3] == 0
    assert adj[0, 1] > 0  # background touches the outer ring
    assert adj[0, 3] == 0  # but not the innermost


def test_infeasible_spec_raises_sizing_error():
    with pytest.raises(DomainError):
        generate(SceneSpec(width=8, height=8, num_objects=1, parts_per_object=(6,), seed=0))
    with pytest.raises(DomainError):
        generate(SceneSpec(width=16, height=16, num_objects=1, parts_per_object=(1,),
                           min_instance=10_000, seed=0))


def test_dataset_shares_mapping_and_varies_scenes():
    spec = SceneSpec(seed=50)
    scenes, mapping = generate_dataset(spec, 4)
    assert len(scenes) == 4
    assert mapping.boundaries == spec.mapping().boundaries
    rgbs = [rgb for rgb, _, _ in scenes]
    assert not np.array_equal(rgbs[0], rgbs[1])
    # regenerating yields the same dataset
    again, _ = generate_dataset(spec, 4)
    for (a, _, _), (b, _, _) in zip(scenes, again):
        assert np.array_equal(a, b)


def test_part_colors_are_stable_across_scenes():
    spec_a = SceneSpec(seed=1)
    spec_b = SceneSpec(seed=2)
    parts_a, _, _, rgb_a = generate(spec_a)
    parts_b, _, _, rgb_b = generate(spec_b)
    # compare the mean color of part 1 across the two scenes: same palette
    # entry, different noise
    for rgb, parts in ((rgb_a, parts_a), (rgb_b, parts_b)):
        mask = parts.labels == 1
        assert mask.any()
    mean_a = rgb_a[:, parts_a.labels == 1].mean(axis=1)
    mean_b = rgb_b[:, parts_b.labels == 1].mean(axis=1)
    assert np.abs(mean_a - mean_b).max() < 0.02
