"""Tests for kernels, feature maps, convolution and flattening."""

import json

import numpy as np
import pytest

import oracles
from convreg import (
    ConfigurationError,
    FeatureMap,
    Kernel,
    conv_multi,
    conv_single,
    delta_kernel,
    random_kernel,
    tensor_from_json,
    tensor_to_json,
    unvec,
    vec,
)


def gaussian_grid(n, c, seed):
    from convreg import SeededGaussian

    return np.array(SeededGaussian(seed).normals(n * n * c)).reshape(n, n, c)


def test_delta_kernel_is_identity_map():
    x = FeatureMap(np.arange(16.0).reshape(4, 4))
    y = conv_single(delta_kernel(3), x)
    assert np.array_equal(y.values, x.values)


def test_one_by_one_kernel_scales():
    x = FeatureMap(np.arange(9.0).reshape(3, 3))
    y = conv_single(Kernel(np.full((1, 1, 1, 1), 2.5)), x)
    assert np.array_equal(y.values[:, :, 0], 2.5 * x.values[:, :, 0])


def test_all_ones_three_by_three_on_two_by_two():
    # Every 3x3 window centered inside a 2x2 input covers the whole input.
    kernel = Kernel(np.ones((3, 3, 1, 1)))
    x = FeatureMap(np.ones((2, 2)))
    y = conv_single(kernel, x)
    assert np.array_equal(y.values[:, :, 0], [[4.0, 4.0], [4.0, 4.0]])


@pytest.mark.parametrize("k,g,h,n", [
    (3, 2, 2, 4),
    (1, 3, 2, 3),
    (3, 1, 3, 5),
    (5, 2, 1, 6),
])
def test_conv_multi_matches_loop_oracle(k, g, h, n):
    kernel = random_kernel(k, g, h, seed=10 * k + n)
    x = FeatureMap(gaussian_grid(n, g, seed=n))
    want = oracles.naive_conv(kernel.values, x.values)
    got = conv_multi(kernel, x).values
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("k,n", [(2, 4), (4, 5)])
def test_even_width_padding_matches_loop_oracle(k, n):
    # Even k pads asymmetrically: m - 1 before, k - m after.
    kernel = random_kernel(k, 1, 1, seed=k)
    x = FeatureMap(gaussian_grid(n, 1, seed=k + 1))
    want = oracles.naive_conv(kernel.values, x.values)
    got = conv_multi(kernel, x).values
    assert np.max(np.abs(got - want)) <= 1e-12


def test_multi_input_delta_sums_channels():
    x = FeatureMap(np.stack([np.full((3, 3), 1.0), np.full((3, 3), 2.0)], axis=2))
    y = conv_multi(delta_kernel(3, g=2, h=1), x)
    # delta on (z, z) pairs with h = 1 passes channel 0 only
    assert np.array_equal(y.values[:, :, 0], np.full((3, 3), 1.0))


def test_single_input_multi_output_runs_each_filter():
    values = np.zeros((3, 3, 1, 2))
    values[:, :, 0, 0] = np.arange(9.0).reshape(3, 3)
    values[:, :, 0, 1] = np.arange(9.0, 18.0).reshape(3, 3)
    kernel = Kernel(values)
    x = FeatureMap(gaussian_grid(4, 1, seed=3))
    y = conv_multi(kernel, x)
    for c in range(2):
        single = Kernel(values[:, :, :, c:c + 1])
        assert np.allclose(y.values[:, :, c],
                           conv_single(single, x).values[:, :, 0],
                           rtol=0, atol=1e-14)


def test_convolution_is_linear_in_input():
    kernel = random_kernel(3, 2, 2, seed=5)
    a = FeatureMap(gaussian_grid(4, 2, seed=6))
    b = FeatureMap(gaussian_grid(4, 2, seed=7))
    combined = conv_multi(kernel, FeatureMap(2.0 * a.values - 3.0 * b.values))
    want = 2.0 * conv_multi(kernel, a).values - 3.0 * conv_multi(kernel, b).values
    assert np.allclose(combined.values, want, rtol=1e-12, atol=1e-12)


def test_convolution_is_linear_in_kernel():
    a = random_kernel(3, 2, 1, seed=8)
    b = random_kernel(3, 2, 1, seed=9)
    x = FeatureMap(gaussian_grid(5, 2, seed=10))
    combined = conv_multi(Kernel(a.values + b.values), x)
    want = conv_multi(a, x).values + conv_multi(b, x).values
    assert np.allclose(combined.values, want, rtol=1e-12, atol=1e-12)


def test_zero_operands_give_zero():
    kernel = random_kernel(3, 1, 1, seed=11)
    zero_x = FeatureMap(np.zeros((4, 4)))
    assert np.array_equal(conv_multi(kernel, zero_x).values, np.zeros((4, 4, 1)))
    x = FeatureMap(np.ones((4, 4)))
    assert np.array_equal(conv_multi(Kernel(np.zeros((3, 3, 1, 1))), x).values,
                          np.zeros((4, 4, 1)))


def test_channel_mismatch_rejected():
    kernel = delta_kernel(3, g=2, h=2)
    with pytest.raises(ConfigurationError):
        conv_multi(kernel, FeatureMap(np.ones((4, 4, 3))))
    with pytest.raises(ConfigurationError):
        conv_single(kernel, FeatureMap(np.ones((4, 4, 2))))


def test_vec_row_within_channel_order():
    x = FeatureMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(vec(x), [1.0, 2.0, 3.0, 4.0])


def test_vec_channels_are_outer_blocks():
    values = np.zeros((2, 2, 2))
    values[:, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
    values[:, :, 1] = [[5.0, 6.0], [7.0, 8.0]]
    assert np.array_equal(vec(FeatureMap(values)),
                          [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])


def test_vec_is_linear():
    a = FeatureMap(gaussian_grid(3, 2, seed=12))
    b = FeatureMap(gaussian_grid(3, 2, seed=13))
    lhs = vec(FeatureMap(1.5 * a.values + b.values))
    assert np.array_equal(lhs, 1.5 * vec(a) + vec(b))


def test_unvec_round_trip():
    x = FeatureMap(gaussian_grid(4, 3, seed=14))
    assert np.array_equal(unvec(vec(x), 4, 3).values, x.values)


def test_unvec_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        unvec(np.zeros(7), 2, 2)


def test_kernel_shape_validation():
    with pytest.raises(ConfigurationError):
        Kernel(np.zeros((3, 2, 1, 1)))       # non-square spatial extent
    with pytest.raises(ConfigurationError):
        Kernel(np.zeros((3, 3, 1)))          # missing output-channel axis
    with pytest.raises(ConfigurationError):
        Kernel(np.full((3, 3, 1, 1), np.nan))
    with pytest.raises(ConfigurationError):
        FeatureMap(np.full((2, 2), np.inf))


def test_tensors_are_immutable_and_decoupled():
    source = np.ones((3, 3, 1, 1))
    kernel = Kernel(source)
    with pytest.raises(ValueError):
        kernel.values[0, 0, 0, 0] = 5.0
    source[0, 0, 0, 0] = 5.0
    assert kernel.values[0, 0, 0, 0] == 1.0


@pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_center_index(k, m):
    assert delta_kernel(k).m == m


def test_kernel_json_round_trip_is_exact():
    kernel = random_kernel(3, 2, 3, seed=15)
    again = Kernel.from_json(kernel.to_json())
    assert np.array_equal(again.values, kernel.values)


def test_kernel_json_layout():
    values = np.zeros((2, 2, 2, 2))
    for p in range(2):
        for q in range(2):
            for z in range(2):
                for y in range(2):
                    values[p, q, z, y] = p * 1000 + q * 100 + z * 10 + y
    doc = json.loads(tensor_to_json(values))
    assert doc["k"] == 2 and doc["g"] == 2 and doc["h"] == 2
    # output channel varies fastest, spatial row slowest
    assert doc["data"][:4] == [0.0, 1.0, 10.0, 11.0]
    assert doc["data"][4:8] == [100.0, 101.0, 110.0, 111.0]
    assert doc["data"][8] == 1000.0


def test_kernel_json_precision_survives():
    values = np.full((1, 1, 1, 1), 1.0 / 3.0)
    assert tensor_from_json(tensor_to_json(values))[0, 0, 0, 0] == values[0, 0, 0, 0]


def test_kernel_json_count_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        tensor_from_json('{"k":2,"g":1,"h":1,"data":[1.0,2.0,3.0]}')


@pytest.mark.parametrize("text", ['[1, 1, 1, [1.0]]', '"kernel"', '3.5', 'null'])
def test_kernel_json_non_object_document_rejected(text):
    with pytest.raises(ConfigurationError):
        tensor_from_json(text)


@pytest.mark.parametrize("field", ["k", "g", "h", "data"])
def test_kernel_json_missing_field_rejected(field):
    doc = {"k": 1, "g": 1, "h": 1, "data": [2.0]}
    del doc[field]
    with pytest.raises(ConfigurationError):
        tensor_from_json(json.dumps(doc))


@pytest.mark.parametrize("data", [["x"], [{"v": 1.0}], [[1.0], [2.0, 3.0]]])
def test_kernel_json_non_numeric_data_rejected(data):
    with pytest.raises(ConfigurationError):
        tensor_from_json(json.dumps({"k": 1, "g": 1, "h": 1, "data": data}))


def test_random_kernel_fills_in_c_order():
    from convreg import SeededGaussian

    kernel = random_kernel(2, 2, 3, seed=77)
    flat = np.array(SeededGaussian(77).normals(2 * 2 * 2 * 3))
    assert np.array_equal(kernel.values.reshape(-1), flat)
