"""Rejection sampler: determinism, box membership, exhaustion."""

import numpy as np
import pytest

from hkgeo import models
from hkgeo.sampling import (
    Exclusion,
    SampleSpec,
    SamplingExhaustedError,
    sample_points,
)

BOX = np.array([[0.5, 2.0], [-1.0, 1.0]])


def test_points_inside_box():
    pts = sample_points(SampleSpec(BOX, 40, 3, ()))
    assert len(pts) == 40
    arr = np.stack(pts)
    assert np.all(arr[:, 0] >= 0.5) and np.all(arr[:, 0] <= 2.0)
    assert np.all(np.abs(arr[:, 1]) <= 1.0)


def test_points_come_as_one_array():
    keep_out = Exclusion("left-half", lambda p: p[0] < 1.25)  # several blocks
    pts = sample_points(SampleSpec(BOX, 30, 0, (keep_out,)))
    assert isinstance(pts, np.ndarray) and pts.shape == (30, 2) and pts.dtype == float


def test_same_seed_same_points():
    a = sample_points(SampleSpec(BOX, 10, 7, ()))
    b = sample_points(SampleSpec(BOX, 10, 7, ()))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_different_seed_different_points():
    a = sample_points(SampleSpec(BOX, 10, 0, ()))
    b = sample_points(SampleSpec(BOX, 10, 1, ()))
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_exclusion_respected():
    keep_out = Exclusion("left-half", lambda p: p[0] < 1.25)
    pts = sample_points(SampleSpec(BOX, 30, 0, (keep_out,)))
    assert all(p[0] >= 1.25 for p in pts)


def test_exhaustion_raises():
    everything = Exclusion("everything", lambda p: True)
    with pytest.raises(SamplingExhaustedError):
        sample_points(SampleSpec(BOX, 5, 0, (everything,)))


def test_bad_box_rejected():
    with pytest.raises(ValueError):
        SampleSpec(np.array([[1.0, 0.0]]), 5, 0, ())
    with pytest.raises(ValueError):
        SampleSpec(BOX, 0, 0, ())


def per_candidate(spec):
    """The sampler one candidate at a time: one uniform draw per coordinate,
    every exclusion asked about that candidate alone; the block sampler must
    give these points bit for bit and exhaust in the same cases."""
    rng = np.random.default_rng(spec.seed)
    out, rejected = [], 0
    while len(out) < spec.count:
        c = np.array([rng.uniform(lo, hi) for lo, hi in spec.box])
        if any(excl(list(c)) for excl in spec.exclusions):
            rejected += 1
            if rejected > 10 * spec.count:
                raise SamplingExhaustedError(f"rejected {rejected}")
            continue
        out.append(c)
    return out


def sampled_domains():
    """Every box and exclusion set the package samples from."""
    out = []
    for name in models.MODEL_NAMES:
        m = models.build(name, 1.0)
        out.append((name, m.box, m.exclusions))
        for key in ("cart", "level"):
            if f"{key}_box" in m.extras:
                out.append((f"{name}/{key}", m.extras[f"{key}_box"],
                            m.extras.get(f"{key}_exclusions", ())))
    out += [(spec.name, spec.box, spec.exclusions) for spec in models.scalar_fields(1.0)]
    out.append(("monopole-curl", ((-2.0, 2.0),) * 3, (models._string_exclusion(0.4),)))
    return out


@pytest.mark.parametrize("name, box, exclusions", sampled_domains(),
                         ids=[d[0] for d in sampled_domains()])
def test_block_sampler_is_the_per_candidate_loop(name, box, exclusions):
    for seed in range(4):
        spec = SampleSpec(np.asarray(box, dtype=float), 40, seed, tuple(exclusions))
        got, want = np.asarray(sample_points(spec)), np.asarray(per_candidate(spec))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_exhaustion_is_the_per_candidate_loop():
    # a thin box along the monopole string keeps about one candidate in 13:
    # with 3 points wanted, some seeds fill the quota and the others exhaust
    box = np.array([[-0.1, 0.1], [-0.1, 0.1], [-2.0, 0.6]])
    filled = []
    for seed in range(30):
        spec = SampleSpec(box, 3, seed, (models._string_exclusion(0.4),))
        try:
            want = per_candidate(spec)
        except SamplingExhaustedError:
            with pytest.raises(SamplingExhaustedError, match="rejected 31 candidates"):
                sample_points(spec)
            filled.append(False)
            continue
        assert np.asarray(sample_points(spec)).tobytes() == np.asarray(want).tobytes()
        filled.append(True)
    assert any(filled) and not all(filled)
