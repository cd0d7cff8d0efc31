import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hotpool import InputError, SketchPlan, make_plan
from hotpool.sketch import apply, plan_from_json, plan_json

# 99.73% chi-square quantile at 7 degrees of freedom, via mpmath at 50 digits
CHI2_3SIGMA_DF7 = 18.224972160321826


def _hand_plan():
    return SketchPlan(
        input_dim=4,
        output_dim=2,
        buckets=(1, 2, 1, 2),
        signs=(1.0, -1.0, -1.0, 1.0),
        seed=None,
    )


def test_apply_worked_example():
    out = apply(_hand_plan(), [1.0, 2.0, 3.0, 4.0])
    assert_allclose(out, [-2.0, 2.0])


def test_apply_zero_vector():
    assert_allclose(apply(_hand_plan(), np.zeros(4)), np.zeros(2))


def test_apply_is_linear():
    plan = make_plan(12, 5, 3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    lhs = apply(plan, 2.5 * x - 0.75 * y)
    rhs = 2.5 * apply(plan, x) - 0.75 * apply(plan, y)
    assert_allclose(lhs, rhs, rtol=1e-13)


def test_apply_matches_explicit_matrix():
    plan = make_plan(10, 4, 5)
    p = np.zeros((4, 10))
    for i in range(10):
        p[plan.buckets[i] - 1, i] = plan.signs[i]
    rng = np.random.default_rng(6)
    x = rng.normal(size=10)
    assert_allclose(apply(plan, x), p @ x, rtol=1e-14)


def test_apply_length_mismatch():
    with pytest.raises(InputError, match="length"):
        apply(_hand_plan(), [1.0, 2.0, 3.0])


def test_apply_block_equals_stacked_rows():
    """An (N, d) block gives bit-for-bit the per-row results."""
    rng = np.random.default_rng(22)
    x = rng.normal(size=(50, 64))
    plan = make_plan(64, 16, 9)
    block = apply(plan, x)
    assert block.shape == (50, 16)
    assert np.array_equal(block, np.stack([apply(plan, row) for row in x]))


def test_apply_block_shape_mismatch():
    for bad in (np.zeros((3, 3)), np.zeros((2, 3, 4)), np.zeros(())):
        with pytest.raises(InputError, match="length"):
            apply(_hand_plan(), bad)


def test_make_plan_deterministic():
    a = make_plan(50, 7, 99)
    b = make_plan(50, 7, 99)
    assert np.array_equal(a.buckets, b.buckets)
    assert np.array_equal(a.signs, b.signs)
    c = make_plan(50, 7, 100)
    assert not np.array_equal(a.buckets, c.buckets) or not np.array_equal(a.signs, c.signs)


def test_make_plan_ranges():
    plan = make_plan(1000, 6, 0)
    assert plan.buckets.min() >= 1
    assert plan.buckets.max() <= 6
    assert set(np.unique(plan.signs)) == {-1.0, 1.0}


def test_make_plan_validation():
    with pytest.raises(InputError, match="exceeds"):
        make_plan(4, 5, 0)
    with pytest.raises(InputError):
        make_plan(0, 0, 0)
    with pytest.raises(InputError, match="seed"):
        make_plan(8, 4, -1)
    with pytest.raises(InputError):
        make_plan(8.0, 4, 1)


def test_plan_arrays_are_frozen():
    plan = make_plan(8, 4, 2)
    with pytest.raises(ValueError):
        plan.buckets[0] = 2


def test_plan_validation():
    with pytest.raises(InputError, match="1..d'"):
        SketchPlan(3, 2, (1, 2, 3), (1.0, 1.0, 1.0))
    with pytest.raises(InputError, match="signs"):
        SketchPlan(3, 2, (1, 2, 1), (1.0, 0.5, 1.0))
    with pytest.raises(InputError, match="length"):
        SketchPlan(3, 2, (1, 2), (1.0, 1.0))
    with pytest.raises(InputError, match="exceeds"):
        SketchPlan(2, 3, (1, 2), (1.0, 1.0))


def test_plan_json_roundtrip():
    plan = make_plan(64, 16, 31415)
    text = plan_json(plan)
    doc = json.loads(text)
    assert doc == {"d": 64, "d_prime": 16, "seed": 31415, "rng_name": "philox4x64"}
    back = plan_from_json(text)
    assert np.array_equal(back.buckets, plan.buckets)
    assert np.array_equal(back.signs, plan.signs)


def test_plan_stores_checked_ints():
    # numpy integers pass the checks and are stored as ints, so the plan serializes
    plan = SketchPlan(np.int64(2), 1, (1, 1), (1.0, 1.0), np.int64(3))
    assert [type(v) for v in (plan.input_dim, plan.output_dim, plan.seed)] == [int] * 3
    assert json.loads(plan_json(plan)) == {"d": 2, "d_prime": 1, "seed": 3,
                                           "rng_name": "philox4x64"}


def test_plan_json_rejects_other_generators():
    text = json.dumps({"d": 8, "d_prime": 4, "seed": 1, "rng_name": "pcg64"})
    with pytest.raises(InputError, match="philox4x64"):
        plan_from_json(text)


def test_plan_json_missing_key():
    text = json.dumps({"d": 8, "d_prime": 4, "seed": 1})
    with pytest.raises(InputError, match="rng_name"):
        plan_from_json(text)
    with pytest.raises(InputError, match="JSON"):
        plan_from_json("{not json")
    with pytest.raises(InputError, match="integer"):
        plan_from_json(json.dumps({"d": 8, "d_prime": 4, "seed": 1.5, "rng_name": "philox4x64"}))


def test_hand_plan_is_not_serializable():
    with pytest.raises(InputError, match="seed"):
        plan_json(_hand_plan())


def test_bucket_histogram_is_uniform():
    # Pearson statistic over 1e5 draws into 8 buckets, against the 3-sigma
    # quantile of chi-square with 7 degrees of freedom.
    plan = make_plan(100_000, 8, 123)
    counts = np.bincount(plan.buckets - 1, minlength=8)
    expected = 100_000 / 8
    stat = float(np.sum((counts - expected) ** 2) / expected)
    assert_allclose(stat, 5.42496, atol=1e-9)
    assert stat < CHI2_3SIGMA_DF7


def test_sketch_preserves_norm_in_expectation():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=64)
    target = float(x @ x)
    total = 0.0
    n_plans = 4000
    for seed in range(n_plans):
        sk = apply(make_plan(64, 16, seed), x)
        total += float(sk @ sk)
    assert abs(total / n_plans - target) < 0.02 * target
