"""Tests for the structured transformation matrix and its index maps."""

import numpy as np
import pytest

import oracles
from convreg import (
    ConfigurationError,
    FeatureMap,
    Kernel,
    build_transform,
    conv_multi,
    delta_kernel,
    omega_cardinality,
    random_kernel,
    vec,
    write_coordinate_file,
)


def test_two_by_two_input_layout_is_explicit():
    # Single channel, k = 3, N = 2: all sixteen entries written out.
    kernel = random_kernel(3, 1, 1, seed=2)
    w = kernel.values[:, :, 0, 0]
    want = np.array([
        [w[1, 1], w[1, 2], w[2, 1], w[2, 2]],
        [w[1, 0], w[1, 1], w[2, 0], w[2, 1]],
        [w[0, 1], w[0, 2], w[1, 1], w[1, 2]],
        [w[0, 0], w[0, 1], w[1, 0], w[1, 1]],
    ])
    got = build_transform(kernel, 2).to_dense()
    assert np.array_equal(got, want)


def test_one_by_one_kernel_gives_scaled_identity():
    kernel = Kernel(np.full((1, 1, 1, 1), -1.75))
    for n in (1, 3, 5):
        got = build_transform(kernel, n).to_dense()
        assert np.array_equal(got, -1.75 * np.eye(n * n))


def test_delta_kernel_gives_identity():
    for g in (1, 3):
        tm = build_transform(delta_kernel(3, g=g, h=g), 4)
        assert np.array_equal(tm.to_dense(), np.eye(g * 16))


def test_three_by_three_input_block_structure():
    # N = 3, k = 3, single channel: three-banded block Toeplitz whose
    # diagonal blocks hold kernel row 2 (1-based), superdiagonal blocks
    # row 3, subdiagonal blocks row 1.
    kernel = random_kernel(3, 1, 1, seed=4)
    dense = build_transform(kernel, 3).to_dense()

    def inner(w):
        return np.array([
            [w[1], w[2], 0.0],
            [w[0], w[1], w[2]],
            [0.0, w[0], w[1]],
        ])

    for bi in range(3):
        for bj in range(3):
            block = dense[3 * bi:3 * bi + 3, 3 * bj:3 * bj + 3]
            if abs(bj - bi) <= 1:
                want = inner(kernel.values[bj - bi + 1, :, 0, 0])
            else:
                want = np.zeros((3, 3))
            assert np.array_equal(block, want)


@pytest.mark.parametrize("k,g,h,n", [
    (1, 2, 3, 3),
    (2, 1, 1, 4),
    (3, 2, 2, 4),
    (3, 3, 1, 3),
    (4, 1, 2, 5),
    (5, 2, 1, 6),
    (5, 1, 1, 2),   # filter wider than the input
    (5, 1, 1, 1),   # only the center tap survives
])
def test_build_matches_basis_oracle(k, g, h, n):
    kernel = random_kernel(k, g, h, seed=100 * k + 10 * g + h + n)
    got = build_transform(kernel, n).to_dense()
    want = oracles.basis_transform(kernel, n)
    assert np.array_equal(got, want)


def test_build_matches_offset_formula_oracle():
    kernel = random_kernel(3, 2, 2, seed=6)
    got = build_transform(kernel, 4).to_dense()
    want = oracles.offset_formula_transform(kernel, 4)
    assert np.array_equal(got, want)


def test_matvec_equals_convolution():
    from convreg import SeededGaussian

    kernel = random_kernel(3, 2, 3, seed=7)
    tm = build_transform(kernel, 5)
    x = FeatureMap(np.array(SeededGaussian(8).normals(5 * 5 * 2)).reshape(5, 5, 2))
    want = vec(conv_multi(kernel, x))
    got = tm.matvec(vec(x))
    assert np.max(np.abs(got - want)) <= 1e-13


def test_matvec_dimension_check():
    tm = build_transform(delta_kernel(3), 3)
    with pytest.raises(ConfigurationError):
        tm.matvec(np.zeros(10))


def test_gram_of_delta_is_identity():
    tm = build_transform(delta_kernel(3, g=2, h=2), 3)
    assert np.array_equal(tm.gram().to_dense(), np.eye(18))


def test_gram_matches_naive_triple_loop():
    # The Gram is taken on M's smaller side: M M^T for wide M, M^T M
    # for tall M.
    for k, g, h, n in [
        (3, 2, 1, 3),   # wide
        (3, 1, 2, 3),   # tall
        (2, 2, 1, 3),   # even k, wide: M^T's center differs from M's
        (4, 1, 2, 4),   # even k, tall
        (4, 3, 2, 2),   # input smaller than the filter
        (5, 1, 1, 3),
    ]:
        tm = build_transform(random_kernel(k, g, h, seed=9), n)
        dense = tm.to_dense()
        want = oracles.naive_gram(dense.T if g > h else dense)
        got = tm.gram().to_dense()
        assert got.shape == (min(tm.rows, tm.cols),) * 2
        assert np.allclose(got, want, rtol=0, atol=1e-13)
        assert np.max(np.abs(got - got.T)) <= 1e-14


@pytest.mark.parametrize("k,n", [(1, 4), (3, 4), (3, 7), (3, 10), (5, 7), (5, 10)])
def test_omega_counts_match_closed_form(k, n):
    kernel = random_kernel(k, 2, 2, seed=k + n)
    tm = build_transform(kernel, n)
    m = kernel.m
    for p in range(k):
        for q in range(k):
            want = omega_cardinality(k, m, n, p, q)
            for z in range(2):
                for y in range(2):
                    assert len(tm.omega(p, q, z, y)) == want


def test_omega_counts_for_standard_size():
    tm = build_transform(delta_kernel(3), 20)
    assert len(tm.omega(1, 1, 0, 0)) == 400   # center tap hits every position
    assert len(tm.omega(0, 0, 0, 0)) == 361   # corner tap loses one row and column
    assert len(tm.omega(0, 1, 0, 0)) == 380
    assert omega_cardinality(3, 2, 20, 1, 1) == 400
    assert omega_cardinality(3, 2, 20, 0, 0) == 361


def test_omega_of_one_by_one_kernel_is_the_diagonal():
    tm = build_transform(Kernel(np.full((1, 1, 1, 1), 3.0)), 3)
    assert tm.omega(0, 0, 0, 0) == [(t, t) for t in range(9)]


def test_omega_sets_partition_the_stored_slots():
    kernel = random_kernel(3, 2, 1, seed=11)
    tm = build_transform(kernel, 4)
    seen = set()
    total = 0
    for p in range(3):
        for q in range(3):
            for z in range(2):
                slots = tm.omega(p, q, z, 0)
                total += len(slots)
                seen.update((p, q, z, i, j) for i, j in slots)
    assert total == tm.nnz
    assert len(seen) == tm.nnz
    # every stored position is distinct
    rows, cols = tm.slot_positions()
    assert len(set(zip(rows.tolist(), cols.tolist()))) == tm.nnz


def test_omega_positions_carry_the_kernel_value():
    kernel = random_kernel(3, 2, 2, seed=12)
    dense = build_transform(kernel, 3).to_dense()
    tm = build_transform(kernel, 3)
    for p, q, z, y in [(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 0, 1), (1, 2, 1, 1)]:
        for i, j in tm.omega(p, q, z, y):
            assert dense[i, j] == kernel.values[p, q, z, y]


def test_omega_out_of_range_rejected():
    tm = build_transform(delta_kernel(3), 3)
    with pytest.raises(ConfigurationError):
        tm.omega(3, 0, 0, 0)
    with pytest.raises(ConfigurationError):
        tm.omega(0, 0, 1, 0)


def test_nnz_equals_summed_cardinalities():
    for k, g, h, n in [(3, 2, 3, 4), (5, 1, 2, 3), (1, 2, 2, 5)]:
        kernel = random_kernel(k, g, h, seed=k * n)
        tm = build_transform(kernel, n)
        want = g * h * sum(omega_cardinality(k, kernel.m, n, p, q)
                           for p in range(k) for q in range(k))
        assert tm.nnz == want


def test_refresh_updates_values_and_preserves_pattern():
    first = random_kernel(3, 2, 2, seed=13)
    second = random_kernel(3, 2, 2, seed=14)
    tm = build_transform(first, 4)
    indptr_before = tm.csr.indptr.copy()
    indices_before = tm.csr.indices.copy()

    tm.refresh(second)
    fresh = build_transform(second, 4)
    assert np.array_equal(tm.to_dense(), fresh.to_dense())
    assert np.array_equal(tm.csr.indptr, indptr_before)
    assert np.array_equal(tm.csr.indices, indices_before)

    # structural zeros survive: a kernel with zero entries keeps its slots
    tm.refresh(Kernel(np.zeros((3, 3, 2, 2))))
    assert tm.nnz == fresh.nnz
    assert np.all(tm.csr.data == 0.0)


def test_refresh_rejects_geometry_mismatch():
    tm = build_transform(delta_kernel(3, g=2, h=2), 3)
    with pytest.raises(ConfigurationError):
        tm.refresh(delta_kernel(3, g=2, h=1))
    with pytest.raises(ConfigurationError):
        tm.refresh(delta_kernel(5, g=2, h=2))


def test_gather_coords_align_with_slot_positions():
    kernel = random_kernel(3, 1, 2, seed=15)
    tm = build_transform(kernel, 3)
    rows, cols = tm.slot_positions()
    coords = tm.gather_coords()
    dense = tm.to_dense()
    flat = kernel.values.reshape(-1)
    for slot in range(tm.nnz):
        assert dense[rows[slot], cols[slot]] == flat[coords[slot]]


def test_invalid_input_size_rejected():
    with pytest.raises(ConfigurationError):
        build_transform(delta_kernel(3), 0)


def test_coordinate_file_format(tmp_path):
    path = tmp_path / "scaled_identity.txt"
    write_coordinate_file(build_transform(Kernel(np.full((1, 1, 1, 1), 2.5)), 2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "4 4 4"
    assert lines[1:] == ["1 1 2.5", "2 2 2.5", "3 3 2.5", "4 4 2.5"]


def test_coordinate_file_round_trips_dense(tmp_path):
    kernel = random_kernel(3, 2, 1, seed=16)
    tm = build_transform(kernel, 3)
    path = tmp_path / "m.txt"
    write_coordinate_file(tm, path)

    lines = path.read_text().splitlines()
    rows, cols, nnz = (int(t) for t in lines[0].split())
    assert (rows, cols, nnz) == (tm.rows, tm.cols, tm.nnz)
    assert len(lines) == nnz + 1
    rebuilt = np.zeros((rows, cols))
    for line in lines[1:]:
        i, j, v = line.split()
        rebuilt[int(i) - 1, int(j) - 1] = float(v)
    assert np.array_equal(rebuilt, tm.to_dense())
