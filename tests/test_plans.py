"""Plans: the pixel-free work of ``accumulate_pools`` and ``build_template``, reused over images of one geometry."""

import math
import traceback

import numpy as np
import pytest

from orbitpool import soa, textures
from orbitpool.descriptor import DescriptorConfig, Keypoint, SizePrior, accumulate_pools, plan_pools, pool_pass
from orbitpool.image import SimilarityTransform, SupportError, gradient_field_of_array
from orbitpool.soa import PLANS, GroupSampleSet, build_template, delta_perturbation

# the last keypoint's largest prior window leaves the image, its 7.5 px one does not
KEYPOINTS = {
    "upright": [Keypoint(20.0, 18.5, 2.5), Keypoint(24.3, 20.0, 3.0), Keypoint(30.0, 21.2, 2.0), Keypoint(4.0, 20.0, 2.5)],
    "rotated": [
        Keypoint(20.0, 18.5, 2.5, 0.4),
        Keypoint(24.3, 20.0, 3.0),
        Keypoint(30.0, 21.2, 2.0, 2.1),
        Keypoint(4.0, 20.0, 2.5, -0.05),
    ],
}


def pools_of(count, kps):
    prior = SizePrior.default()
    pools = [(prior.sides([kp.base_size for kp in kps], 3.0), prior.weights), ([[7.5]] * len(kps), [1.0])]
    return pools[:count]


def field_of(layered, seed):
    images = [textures.filtered_noise(48, 40, seed=[seed, k]).values for k in range(4)]
    return gradient_field_of_array(np.stack(images)) if layered else gradient_field_of_array(images[0])


def clear():
    soa._template_plan.cache_clear()


def arrays(plan):
    """Every array in a plan, through tuples and lists."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            yield from arrays(part)


def assert_same_pools(got, want):
    assert [kept for kept, _ in got] == [kept for kept, _ in want]
    assert [grid.tobytes() for _, grid in got] == [grid.tobytes() for _, grid in want]


def assert_same_template(got, want):
    assert [(d.values.tobytes(), d.degenerate) for d in got.descriptors] == [
        (d.values.tobytes(), d.degenerate) for d in want.descriptors
    ]


@pytest.mark.parametrize("layered", [False, True])
@pytest.mark.parametrize("kind", ["upright", "rotated"])
@pytest.mark.parametrize("count", [1, 2])
def test_listed_pool_plan_equals_accumulate_pools(layered, kind, count):
    kps = KEYPOINTS[kind]
    pools, cfg = pools_of(count, kps), DescriptorConfig()
    plan = plan_pools(field_of(layered, 1).magnitude.shape, kps, pools, cfg)
    for seed in (1, 2):
        field = field_of(layered, seed)
        assert_same_pools(pool_pass(field, plan, cfg), accumulate_pools(field, kps, pools, cfg))
    assert [len(kept) for kept, _ in accumulate_pools(field, kps, pools, cfg)] == [3, 4][:count]


@pytest.mark.parametrize("samples", [GroupSampleSet.default(), GroupSampleSet.default(anti_alias="delta")])
def test_warm_template_equals_cold(samples):
    kp = Keypoint(47.5, 47.5, 8.0)
    first, second = (textures.filtered_noise(96, 96, seed=[seed, 0], smooth=1.8) for seed in (1, 2))
    clear()
    build_template(first, kp, samples)
    warm = build_template(second, kp, samples, source="warm")
    assert soa._template_plan.cache_info().hits == 1
    clear()
    cold = build_template(second, kp, samples, source="cold")
    assert (warm.source, cold.source) == ("warm", "cold")
    assert_same_template(warm, cold)


def test_warm_rotated_template_equals_cold():
    kp = Keypoint(31.2, 31.7, 2.2, 0.5)
    samples = GroupSampleSet.rotation_group(4)
    first, second = (textures.filtered_noise(64, 64, seed=seed) for seed in (21, 22))
    clear()
    build_template(first, kp, samples)
    warm = build_template(second, kp, samples)
    clear()
    assert_same_template(warm, build_template(second, kp, samples))


def variants():
    """Pairs of build_template arguments that dataclass equality, or a loose key, could confuse."""
    img = textures.filtered_noise(64, 64, seed=3)
    kp, samples = Keypoint(31.5, 31.5, 3.0), GroupSampleSet.rotation_group(4, anti_alias="delta")
    base = (img, kp, samples)
    return {
        "orientation": (base, (img, Keypoint(31.5, 31.5, 3.0, -0.0), samples)),
        "base size": (base, (img, Keypoint(31.5, 31.5, math.nextafter(3.0, 4.0)), samples)),
        "position": (base, (img, Keypoint(31.5, math.nextafter(31.5, 32.0), 3.0), samples)),
        "samples": (base, (img, kp, GroupSampleSet.rotation_group(4))),
        "shape": (base, (textures.filtered_noise(64, 62, seed=3), kp, samples)),
        "cfg": (base, (img, kp, samples, DescriptorConfig(cells=3))),
    }


@pytest.mark.parametrize("name", ["orientation", "base size", "position", "samples", "shape", "cfg"])
def test_other_geometry_gets_its_own_template_plan(name):
    first, second = variants()[name]
    clear()
    build_template(*first)
    got = build_template(*second)
    info = soa._template_plan.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    clear()
    assert_same_template(got, build_template(*second))


def test_negative_zero_orientation_names_its_own_sign():
    # the view's support error is decided by the plan and names the
    # keypoint's orientation, -0.0 as well as 0.0, on every call
    img = textures.filtered_noise(64, 64, seed=3)
    samples = GroupSampleSet((SimilarityTransform(translation=(-27.0, 0.0)),), (delta_perturbation(),))
    clear()
    messages = []
    for orientation in (0.0, -0.0, 0.0, -0.0):
        with pytest.raises(SupportError) as got:
            build_template(img, Keypoint(31.5, 31.5, 4.0, orientation), samples)
        messages.append(str(got.value))
    assert messages[0] == "window sides out of bounds at (4.5, 31.5) rotated by 0.000 in the 64x64 image: 12.00"
    assert messages == [messages[0], messages[0].replace("0.000", "-0.000"), *messages[:2]]


def test_cached_arrays_are_read_only(monkeypatch):
    plans = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: plans.append(args[1]) or real(*args))

    spy(soa, "pool_pass")
    spy(soa, "resample")
    clear()
    for kps in KEYPOINTS.values():
        plans.append(plan_pools(field_of(False, 1).magnitude.shape, kps, pools_of(2, kps), DescriptorConfig()))
    build_template(textures.filtered_noise(96, 96, seed=1), Keypoint(47.5, 47.5, 8.0), GroupSampleSet.default())
    cached = list(arrays(plans))
    assert len(plans) > 2 and len(cached) > 50
    assert not any(a.flags.writeable for a in cached)


@pytest.mark.parametrize(
    "shape, kp, samples, kind, message",
    [
        (
            (64, 64),
            Keypoint(31.5, 31.5, 4.0),
            GroupSampleSet((SimilarityTransform(translation=(-27.0, 0.0)),), (delta_perturbation(),)),
            SupportError,
            "window sides out of bounds at (4.5, 31.5) rotated by 0.000 in the 64x64 image: 12.00",
        ),
        (
            (2, 40),
            Keypoint(20.0, 0.5, 0.1),
            GroupSampleSet((SimilarityTransform.identity(),), (delta_perturbation(),)),
            ValueError,
            "image too small for gradients: 40x2",
        ),
    ],
)
def test_failing_geometry_raises_afresh(shape, kp, samples, kind, message):
    img = textures.filtered_noise(shape[1], shape[0], seed=3)
    clear()
    raised = []
    for _ in range(4):
        with pytest.raises(kind) as got:
            build_template(img, kp, samples)
        raised.append(got.value)
    info = soa._template_plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 0)
    assert {type(e) for e in raised} == {kind} and {str(e) for e in raised} == {message}
    assert len({id(e) for e in raised}) == len(raised)
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


def test_template_cache_stays_bounded():
    img = textures.filtered_noise(40, 40, seed=4)
    samples = GroupSampleSet.rotation_group(2, anti_alias="delta")
    clear()
    for k in range(PLANS + 3):
        build_template(img, Keypoint(19.5 + k / 8.0, 19.5, 2.0), samples)
    info = soa._template_plan.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (PLANS, PLANS, PLANS + 3)
