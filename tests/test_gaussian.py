import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sosid.errors import DegenerateModelError, NotPositiveDefiniteError, SosidError
from sosid.gaussian import (
    DEFAULT_LOADING_SCALE,
    GaussianModel,
    _factorize_stack,
    factorize,
    load_model_store,
    save_model_store,
    stack_blocks,
    stack_moments,
    stack_models,
)


def _random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T) + np.eye(p)


def _traced_peak(fn, *args):
    """(peak bytes traced above the entry level while ``fn(*args)`` ran, its result)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, result


class TestFromFrames:
    def test_two_point_hand_arithmetic(self):
        model = GaussianModel.from_frames([[0.0], [2.0]])
        assert model.mean[0] == 1.0
        assert model.cov[0, 0] == 1.0  # ML: ((0-1)^2 + (2-1)^2) / 2
        assert model.count == 2

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateModelError):
            GaussianModel.from_frames(np.tile([1.0, -1.0], (10, 1)))

    def test_fewer_than_two_vectors_rejected(self):
        for frames in (np.empty((0, 2)), [[0.0, 1.0]]):
            with pytest.raises(DegenerateModelError, match="at least 2"):
                GaussianModel.from_frames(frames)

    def test_small_count_warns_and_needs_loading(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 8))
        with pytest.warns(RuntimeWarning):
            model = GaussianModel.from_frames(data)  # loading rescues the rank-6 cov
        assert model.count == 6
        with pytest.warns(RuntimeWarning):
            assert stack_blocks([data[None]]).loadings[0] > 0.0

    def test_dimension_mismatch(self):
        for frames in ([1.0, 2.0], np.zeros((4, 2, 3)), np.zeros((4, 0))):
            with pytest.raises(ValueError, match="n_frames"):
                GaussianModel.from_frames(frames)

    def test_order_insensitive(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((40, 4))
        a, b = GaussianModel.from_frames(data), GaussianModel.from_frames(data[::-1])
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, rtol=1e-12, atol=1e-12)

    def test_covariance_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((1500, 24)) * rng.uniform(0.5, 2.0, size=24)
        model = GaussianModel.from_frames(data)
        # two-pass oracle: subtract the mean first, then form outer products
        mean = np.zeros(24)
        for row in data:
            mean += row
        mean /= len(data)
        cov = np.zeros((24, 24))
        for row in data:
            d = row - mean
            cov += np.outer(d, d)
        cov /= len(data)
        assert np.linalg.norm(model.cov - cov) <= 1e-10 * np.linalg.norm(cov)
        np.testing.assert_allclose(model.cov, cov, rtol=1e-10, atol=1e-13)

    def test_convergence_to_true_covariance(self):
        rng = np.random.default_rng(12345)
        p = 24
        true_cov = _random_spd(rng, p, scale=1.0 / p)
        factor = np.linalg.cholesky(true_cov)
        data = rng.standard_normal((100_000, p)) @ factor.T + 3.0
        model = GaussianModel.from_frames(data)
        rel = np.linalg.norm(model.cov - true_cov) / np.linalg.norm(true_cov)
        assert rel <= 0.05


class TestGaussianModel:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianModel(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.1, 1.0]], count=10)

    @pytest.mark.parametrize("off", [1.0, 0.0, -3.0])
    def test_symmetry_tolerance_edges(self, off):
        # np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12): |a - b| <= 1e-12 + 1e-8 |b|
        tol = 1e-12 + 1e-8 * abs(off)
        for scale, accepted in ((0.9, True), (1.1, False)):
            cov = np.array([[2.0, off + scale * tol], [off, 2.0]])
            assert np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12) == accepted
            if accepted:
                GaussianModel(mean=[0.0, 0.0], cov=cov, count=10)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    GaussianModel(mean=[0.0, 0.0], cov=cov, count=10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianModel(mean=[0.0, 0.0], cov=np.eye(3), count=10)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            GaussianModel(mean=[0.0], cov=[[1.0]], count=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianModel(mean=[0.0, bad], cov=np.eye(2), count=10)
        with pytest.raises(ValueError, match="finite"):
            GaussianModel(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, bad]], count=10)


class TestFactorize:
    def test_identity(self):
        fact = factorize(GaussianModel(mean=np.zeros(4), cov=np.eye(4), count=10))
        assert fact.log_det == 0.0
        np.testing.assert_allclose(fact.inverse, np.eye(4), atol=1e-15)
        assert fact.loading == 0.0

    def test_diagonal(self):
        fact = factorize(np.diag([1.0, 4.0]))
        assert abs(fact.log_det - math.log(4.0)) <= 1e-12
        np.testing.assert_allclose(fact.inverse, np.diag([1.0, 0.25]), atol=1e-15)

    def test_log_det_of_diagonal_matches_sum_of_logs(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(1e-4, 1e4, size=24)
        fact = factorize(np.diag(d))
        assert abs(fact.log_det - np.sum(np.log(d))) <= 1e-12 * abs(np.sum(np.log(d)))

    def test_random_spd_inverse(self):
        rng = np.random.default_rng(7)
        cov = _random_spd(rng, 24)
        fact = factorize(cov)
        np.testing.assert_allclose(fact.inverse @ cov, np.eye(24), atol=1e-8)
        assert np.linalg.norm(fact.inverse @ cov - np.eye(24)) <= 1e-8

    def test_loading_reported_for_singular_covariance(self):
        v = np.array([1.0, 2.0, 3.0])
        cov = np.outer(v, v)  # rank 1, trace > 0
        fact = factorize(cov)
        assert fact.loading > 0.0
        assert fact.loading == pytest.approx(1e-6 * np.trace(cov) / 3)
        loaded = cov + fact.loading * np.eye(3)
        np.testing.assert_allclose(fact.inverse @ loaded, np.eye(3), atol=1e-8)

    def test_zero_matrix_rejected_even_with_loading(self):
        with pytest.raises(NotPositiveDefiniteError):
            factorize(np.zeros((3, 3)))

    def test_stack_holds_two_stacks_at_most(self):
        # the factors are inverted in place and then overwritten by the
        # symmetrized inverses, so no third stack-sized array is alive
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1000, 24, 48))
        covs = a @ np.swapaxes(a, 1, 2) / 48 + np.eye(24)
        del a
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = _factorize_stack(covs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 2.5 * covs.nbytes
        assert len(result) == 3  # loadings, log-dets and inverses; no factors

    def test_inverses_are_written_into_the_factors_buffer(self):
        # one stack for the factors, which become the inverses, and chunk-sized work
        a = np.random.default_rng(8).standard_normal((1000, 24, 48))
        covs = a @ np.swapaxes(a, 1, 2) / 48 + np.eye(24)
        del a
        peak, (_, _, inverses) = _traced_peak(_factorize_stack, covs)
        assert peak < 1.3 * covs.nbytes
        assert inverses.shape == covs.shape


def _blocks_of(frames, n_blocks, block_len):
    return frames[: n_blocks * block_len].reshape(n_blocks, block_len, frames.shape[1])


def _one_pass_model(x):
    """Test-local reference: raw sums of one block, then the ML (1/M) formula."""
    n = len(x)
    mean = x.sum(axis=0) / n
    cov = x.T @ x / n - mean[:, None] * mean[None, :]
    return GaussianModel(mean=mean, cov=(cov + cov.T) / 2.0, count=n)


def _block_factorization(model):
    """factorize() of a block's model, except that a model from p frames or
    fewer is singular and so takes the diagonal loading up front."""
    p = len(model.mean)
    if model.count > p:
        return factorize(model)
    loading = DEFAULT_LOADING_SCALE * max(np.trace(model.cov), 0.0) / p
    return dataclasses.replace(factorize(model.cov + loading * np.eye(p)), loading=loading)


class TestStackBlocks:
    """The batch builder equals a one-pass estimate + factorize, block by block."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(1, 8),
        block_len=st.integers(1, 30),
        set_sizes=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        offset=st.sampled_from([0.0, 20.0]),
    )
    def test_matches_scalar_path(self, seed, dim, block_len, set_sizes, offset):
        rng = np.random.default_rng(seed)
        sets = [
            _blocks_of(rng.standard_normal((n * block_len, dim)) + offset, n, block_len)
            for n in set_sizes
        ]
        blocks = [block for blocks in sets for block in blocks]
        models = [_one_pass_model(b) for b in blocks]
        try:  # a 1-frame block's covariance is exactly 0, which loading cannot rescue
            facts = [_block_factorization(model) for model in models]
        except NotPositiveDefiniteError:
            with pytest.raises(DegenerateModelError), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # block_len <= dim
                stack_blocks(sets)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # block_len <= dim
            stack = stack_blocks(sets)
        assert len(stack) == len(blocks) == sum(set_sizes)
        assert stack.means.shape == (len(blocks), dim)
        for i, (model, fact) in enumerate(zip(models, facts)):
            assert stack.counts[i] == model.count == block_len
            np.testing.assert_array_equal(stack.means[i], model.mean)
            np.testing.assert_array_equal(stack.covs[i], model.cov)
            np.testing.assert_array_equal(stack.inverses[i], fact.inverse)
            assert stack.log_dets[i] == fact.log_det
            assert stack.loadings[i] == fact.loading

    def test_rank_deficient_block_is_loaded_alone(self):
        rng = np.random.default_rng(13)
        good = _blocks_of(rng.standard_normal((3 * 40, 6)), 3, 40)
        short = rng.standard_normal((2, 4, 6))  # 4 frames at dimension 6: rank 3
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            stack = stack_blocks([good, short])
        facts = [factorize(_one_pass_model(b)) for b in short]
        np.testing.assert_array_equal(stack.loadings[:3], 0.0)
        assert all(fact.loading > 0.0 for fact in facts)
        np.testing.assert_array_equal(stack.loadings[3:], [f.loading for f in facts])
        np.testing.assert_array_equal(stack.inverses[3:], [f.inverse for f in facts])
        np.testing.assert_array_equal(stack.log_dets[3:], [f.log_det for f in facts])
        for i, block in enumerate(good):
            fact = factorize(_one_pass_model(block))
            np.testing.assert_array_equal(stack.inverses[i], fact.inverse)

    def test_singular_block_is_loaded_when_rounding_lets_cholesky_through(self):
        # 2 frames at dimension 4 far from the origin: rank 1, yet rounding in
        # the one-pass covariance leaves it factorizable without loading
        block = np.random.default_rng(58).standard_normal((1, 2, 4)) + 100.0
        model = _one_pass_model(block[0])
        np.linalg.cholesky(model.cov)
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            stack = stack_blocks([block])
        assert stack.loadings[0] > 0.0
        assert factorize(model).loading == 0.0  # a model's count is only a weight

    def test_one_frame_blocks_are_degenerate(self):
        with pytest.raises(DegenerateModelError, match="at least 2"):
            stack_blocks([np.ones((3, 1, 4))])

    def test_empty_sets_give_empty_stack(self):
        stack = stack_blocks([np.empty((0, 100, 5)), np.empty((0, 100, 5))])
        assert len(stack) == 0
        assert stack.dim == 5
        assert stack.covs.shape == (0, 5, 5)


def _out_of_place_rows(sums, outers, counts):
    """Test-local reference: the ML finalize and the symmetrized inverse, each
    formula written out of place, row by row; a count <= p row takes the loading."""
    rows = []
    for total, outer, count in zip(sums, outers, counts):
        p = len(total)
        mean = total / count
        cov = outer / count - mean[:, None] * mean[None, :]
        cov = (cov + cov.T) / 2.0
        loading = DEFAULT_LOADING_SCALE * max(np.trace(cov), 0.0) / p if count <= p else 0.0
        factor = np.linalg.cholesky(cov + loading * np.eye(p) if loading else cov)
        inv_factor = scipy.linalg.lapack.dtrtri(factor, lower=1)[0]
        inverse = inv_factor.T @ inv_factor
        rows.append((mean, cov, (inverse + inverse.T) / 2.0, loading))
    return rows


class TestStackMoments:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_out_of_place_formulas(self, seed):
        rng = np.random.default_rng(seed)
        dim = 5
        blocks = [rng.standard_normal((n, dim)) + 3.0 for n in (40, 3, 17, 6, 200)]
        sums = np.stack([block.sum(axis=0) for block in blocks])
        outers = np.stack([block.T @ block for block in blocks])
        outers[:, 0, 1] += 1e-9  # rounding can leave raw outer sums asymmetric
        counts = np.array([len(block) for block in blocks], dtype=float)
        want = _out_of_place_rows(sums, outers, counts)
        stack = stack_moments((sums, outers, counts))  # consumes its moments
        assert stack.loadings[1] > 0.0  # 3 frames at dimension 5
        np.testing.assert_array_equal(stack.counts, counts)
        for i, (mean, cov, inverse, loading) in enumerate(want):
            np.testing.assert_array_equal(stack.means[i], mean)
            np.testing.assert_array_equal(stack.covs[i], cov)
            np.testing.assert_array_equal(stack.inverses[i], inverse)
            assert stack.loadings[i] == loading

    def test_rows_across_chunks_equal_out_of_place_formulas(self):
        # 130 rows span three chunks; row 64, the second chunk's first, is loaded
        rng = np.random.default_rng(3)
        dim = 5
        lengths = [3 if i == 64 else 20 + i % 7 for i in range(130)]
        blocks = [rng.standard_normal((n, dim)) + 3.0 for n in lengths]
        sums = np.stack([block.sum(axis=0) for block in blocks])
        outers = np.stack([block.T @ block for block in blocks])
        outers[:, 0, 1] += 1e-9 * np.arange(130)  # asymmetric raw sums
        counts = np.array([len(block) for block in blocks], dtype=float)
        want = _out_of_place_rows(sums, outers, counts)
        stack = stack_moments((sums, outers, counts))
        assert np.flatnonzero(stack.loadings).tolist() == [64]
        for i, (mean, cov, inverse, loading) in enumerate(want):
            np.testing.assert_array_equal(stack.means[i], mean)
            np.testing.assert_array_equal(stack.covs[i], cov)
            np.testing.assert_array_equal(stack.inverses[i], inverse)
            assert stack.loadings[i] == loading

    def test_covariances_are_finalized_in_the_outer_sums_buffer(self):
        a = np.random.default_rng(9).standard_normal((1000, 48, 24))
        sums, outers = a.sum(axis=1), np.swapaxes(a, 1, 2) @ a
        del a
        peak, stack = _traced_peak(stack_moments, (sums, outers, np.full(1000, 48.0)))
        # the inverses' stack and chunk-sized work, beside the consumed moments
        assert peak < 1.3 * outers.nbytes
        assert stack.covs is outers


class TestModelStore:
    def test_file_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        model = GaussianModel.from_frames(rng.standard_normal((60, 5)))
        save_model_store(tmp_path / "store", ["alice"], stack_models([model]), "abc123")
        doc = json.loads((tmp_path / "store" / "alice.json").read_text(encoding="utf-8"))
        assert doc["id"] == "alice"
        assert doc["frontend_config_hash"] == "abc123"
        ids, back = load_model_store(tmp_path / "store")
        assert ids == ["alice"]
        assert back.counts[0] == model.count
        np.testing.assert_array_equal(back.means[0], model.mean)
        np.testing.assert_array_equal(back.covs[0], model.cov)

    def test_store_round_trip_sorted(self, tmp_path):
        rng = np.random.default_rng(11)
        models = {
            name: GaussianModel.from_frames(rng.standard_normal((40, 3)))
            for name in ("zoe", "bob", "amy")
        }
        save_model_store(tmp_path / "store", list(models), stack_models(models.values()), "h")
        ids, loaded = load_model_store(tmp_path / "store")
        assert ids == ["amy", "bob", "zoe"]
        for name, model in models.items():
            np.testing.assert_array_equal(loaded.covs[ids.index(name)], model.cov)

    def test_unsafe_speaker_id_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        model = GaussianModel.from_frames(rng.standard_normal((40, 3)))
        with pytest.raises(SosidError, match="evil"):
            save_model_store(tmp_path / "store", ["../evil"], stack_models([model]))
        assert not (tmp_path / "store").exists()
