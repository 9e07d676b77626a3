import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sosid.gaussian import GaussianModel, factorize, stack_blocks, stack_models
from sosid.measures import (
    _QUAD_CHUNK,
    MEASURE_KINDS,
    MU_G,
    MU_GC,
    SC_AS_PRINTED,
    SC_CONVENTIONS,
    SC_DECOMPOSITION,
    evaluate,
    measure_matrices,
    mu_g,
    mu_gc,
    mu_sc,
)


def _model(mean, cov, count):
    return GaussianModel(mean=np.atleast_1d(mean), cov=np.atleast_2d(cov), count=count)


def _random_pair(rng, p, equal_counts=False):
    a = rng.standard_normal((p, p))
    b = rng.standard_normal((p, p))
    counts = (
        (500, 500)
        if equal_counts
        else tuple(int(c) for c in rng.integers(50, 2000, size=2))
    )
    ref = _model(rng.standard_normal(p), a @ a.T + np.eye(p), counts[0])
    test = _model(rng.standard_normal(p), b @ b.T + np.eye(p), counts[1])
    return ref, test


class TestScalarFixtures:
    def test_mu_g_covariance_only_case(self):
        # p=1, X=1, Y=2, equal means and counts:
        # (1/2)*2 + (1/2)*(1/2) - 1 = 0.25
        ref = _model(0.0, 1.0, 5)
        test = _model(0.0, 2.0, 5)
        assert abs(mu_g(ref, test) - 0.25) <= 1e-12

    def test_mu_g_mean_shift_adds_exactly_one(self):
        # X=Y=1, means 0 and 1, equal counts: the quadratic term is 1
        ref = _model(0.0, 1.0, 7)
        test = _model(1.0, 1.0, 7)
        base = _model(0.0, 1.0, 7)
        assert abs(mu_g(ref, test) - (mu_g(ref, base) + 1.0)) <= 1e-12
        assert abs(mu_g(ref, test) - 1.0) <= 1e-12

    def test_mu_gc_unbalanced_counts(self):
        # p=1, X=1, Y=e, M=3, N=1:
        # (3/4)e + (1/4)e^-1 - (1/2) log e - 1 = 0.6306812316...
        ref = _model(0.0, 1.0, 3)
        test = _model(0.0, math.e, 1)
        direct = 0.75 * math.e + 0.25 / math.e - 0.5 - 1.0
        assert abs(mu_gc(ref, test) - direct) <= 1e-12
        assert abs(mu_gc(ref, test) - 0.6306812316371446) <= 1e-12

    def test_mu_sc_two_dim_fixture(self):
        # X=I, Y=diag(1,4), equal counts: log 2.5 - log 2 in both conventions
        ref = _model([0.0, 0.0], np.eye(2), 10)
        test = _model([0.0, 0.0], np.diag([1.0, 4.0]), 10)
        expected = math.log(2.5) - math.log(2.0)
        assert abs(mu_sc(ref, test) - expected) <= 1e-12
        assert abs(mu_sc(ref, test, convention=SC_AS_PRINTED) - expected) <= 1e-12

    def test_mean_term_is_the_difference_between_mu_g_and_mu_gc(self):
        rng = np.random.default_rng(0)
        ref, test = _random_pair(rng, 8)
        rf, tf = factorize(ref), factorize(test)
        diff = test.mean - ref.mean
        a = ref.count / (ref.count + test.count)
        b = test.count / (ref.count + test.count)
        quad = (a * diff @ rf.inverse @ diff + b * diff @ tf.inverse @ diff) / ref.dim
        assert mu_g(ref, test) - mu_gc(ref, test) == pytest.approx(quad, rel=1e-10)


class TestIdentityAndSymmetry:
    @pytest.mark.parametrize("p", [1, 2, 8, 24])
    def test_zero_at_identity_any_counts(self, p):
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        cov = a @ a.T + np.eye(p)
        mean = rng.standard_normal(p)
        for m, n in ((100, 100), (100, 2500), (3, 2)):
            ref = _model(mean, cov, m)
            test = _model(mean, cov, n)
            assert abs(mu_g(ref, test)) <= 1e-10
            assert abs(mu_gc(ref, test)) <= 1e-10
            assert abs(mu_sc(ref, test)) <= 1e-10
            assert abs(mu_sc(ref, test, convention=SC_AS_PRINTED)) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 8, 24])
    def test_symmetry_under_swap(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(25):
            ref, test = _random_pair(rng, p)
            for kind in MEASURE_KINDS:
                for conv in (SC_DECOMPOSITION, SC_AS_PRINTED):
                    v1 = evaluate(kind, ref, test, sc_convention=conv)
                    v2 = evaluate(kind, test, ref, sc_convention=conv)
                    assert v1 == pytest.approx(v2, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8, 24])
    def test_non_negativity_and_ordering(self, p):
        rng = np.random.default_rng(200 + p)
        for _ in range(25):
            ref, test = _random_pair(rng, p)
            g = mu_g(ref, test)
            gc = mu_gc(ref, test)
            sc = mu_sc(ref, test)
            assert g >= gc >= -1e-12
            assert sc >= -1e-12


class TestAffineInvariance:
    @pytest.mark.parametrize("p", [2, 8, 24])
    def test_measures_unchanged_by_affine_map(self, p):
        rng = np.random.default_rng(300 + p)
        ref, test = _random_pair(rng, p)
        # well-conditioned invertible A: orthogonal times non-uniform scaling
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        a_map = q @ np.diag(rng.uniform(0.5, 2.0, size=p))
        shift = rng.standard_normal(p)

        def transformed(model):
            return _model(
                a_map @ model.mean + shift,
                a_map @ model.cov @ a_map.T,
                model.count,
            )

        tref, ttest = transformed(ref), transformed(test)
        for kind in MEASURE_KINDS:
            for conv in (SC_DECOMPOSITION, SC_AS_PRINTED):
                before = evaluate(kind, ref, test, sc_convention=conv)
                after = evaluate(kind, tref, ttest, sc_convention=conv)
                assert after == pytest.approx(before, rel=1e-8)


class TestScConventions:
    def test_decomposition_is_exactly_zero_at_p1(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(0.1, 10.0, size=2)
            m, n = rng.integers(2, 5000, size=2)
            ref = _model(0.0, x, int(m))
            test = _model(0.0, y, int(n))
            assert abs(mu_sc(ref, test)) <= 1e-12

    def test_as_printed_differs_at_p1_for_unbalanced_counts(self):
        ref = _model(0.0, 1.0, 1000)
        test = _model(0.0, 4.0, 10)
        assert abs(mu_sc(ref, test, convention=SC_AS_PRINTED)) > 1e-3

    def test_conventions_coincide_for_equal_counts(self):
        rng = np.random.default_rng(2)
        for p in (2, 8):
            ref, test = _random_pair(rng, p, equal_counts=True)
            dec = mu_sc(ref, test)
            printed = mu_sc(ref, test, convention=SC_AS_PRINTED)
            assert dec == pytest.approx(printed, rel=1e-12)

    def test_convention_difference_is_the_determinant_term(self):
        rng = np.random.default_rng(3)
        ref, test = _random_pair(rng, 8)
        rf, tf = factorize(ref), factorize(test)
        a = ref.count / (ref.count + test.count)
        b = test.count / (ref.count + test.count)
        gap = 2.0 * (a - b) * (tf.log_det - rf.log_det) / ref.dim
        printed = mu_sc(ref, test, convention=SC_AS_PRINTED)
        dec = mu_sc(ref, test)
        assert printed - dec == pytest.approx(gap, rel=1e-10)

    def test_unknown_convention_rejected(self):
        ref = _model(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            mu_sc(ref, ref, convention="verbatim")


class TestDispatchAndErrors:
    def test_evaluate_matches_direct_functions(self):
        rng = np.random.default_rng(4)
        ref, test = _random_pair(rng, 4)
        assert evaluate("mu_g", ref, test) == mu_g(ref, test)
        assert evaluate("mu_gc", ref, test) == mu_gc(ref, test)
        assert evaluate("mu_sc", ref, test) == mu_sc(ref, test)

    def test_unknown_kind_rejected(self):
        ref = _model(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            evaluate("mu_x", ref, ref)

    def test_dimension_mismatch_rejected(self):
        ref = _model(0.0, 1.0, 2)
        test = _model([0.0, 0.0], np.eye(2), 2)
        with pytest.raises(ValueError):
            mu_g(ref, test)


class TestMeasureMatrix:
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_empty_test_stack_gives_empty_rows(self, kind):
        rng = np.random.default_rng(6)
        refs = stack_models([_random_pair(rng, 4)[0] for _ in range(3)])
        tests = stack_blocks([np.empty((0, 50, 4))])
        assert measure_matrices((kind,), refs, tests)[kind].shape == (0, 3)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_rows_past_the_mean_term_chunk_match_one_row_calls(self, kind):
        rng = np.random.default_rng(7)
        refs = stack_models([_random_pair(rng, 5)[0] for _ in range(4)])
        tests = [_random_pair(rng, 5)[1] for _ in range(2 * _QUAD_CHUNK + 3)]
        matrix = measure_matrices((kind,), refs, stack_models(tests))[kind]
        for t, test in enumerate(tests):
            row = measure_matrices((kind,), refs, stack_models([test]))[kind][0]
            np.testing.assert_allclose(matrix[t], row, rtol=1e-12, atol=1e-12)

    def test_mean_term_across_chunks_equals_the_unchunked_formula(self):
        rng = np.random.default_rng(12)
        refs = stack_models([_random_pair(rng, 5)[0] for _ in range(7)])
        tests = stack_models([_random_pair(rng, 5)[1] for _ in range(200)])
        matrices = measure_matrices((MU_G, MU_GC), refs, tests)
        total = refs.counts[None, :] + tests.counts[:, None]
        a, b = refs.counts[None, :] / total, tests.counts[:, None] / total
        diff = tests.means[:, None, :] - refs.means[None, :, :]
        quad_test = np.einsum("trp,trp->tr", diff @ tests.inverses, diff)
        quad_ref = np.einsum(
            "trp,trp->tr", (diff.transpose(1, 0, 2) @ refs.inverses).transpose(1, 0, 2), diff
        )
        mean_term = (a * quad_ref + b * quad_test) / 5
        assert np.array_equal(matrices[MU_G], matrices[MU_GC] + mean_term)

    def test_holds_no_test_by_reference_by_dimension_array(self):
        # 1000 tests against 20 references: a whole (1000, 20, 24) diff would
        # be 0.83 of the test stack's covariances
        rng = np.random.default_rng(4)
        refs = stack_blocks([rng.standard_normal((20, 200, 24))])
        tests = stack_blocks([rng.standard_normal((1000, 48, 24))])
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            measure_matrices(MEASURE_KINDS, refs, tests)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 0.7 * tests.covs.nbytes


class TestMeasureMatrices:
    @settings(deadline=None, max_examples=60)
    @given(
        order=st.permutations(MEASURE_KINDS),
        n_kinds=st.integers(1, len(MEASURE_KINDS)),
        convention=st.sampled_from(SC_CONVENTIONS),
        n_tests=st.sampled_from([0, 1, _QUAD_CHUNK + 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_kind_equals_its_one_kind_matrix(self, order, n_kinds, convention, n_tests, seed):
        kinds = tuple(order[:n_kinds])
        rng = np.random.default_rng(seed)
        refs = stack_models([_random_pair(rng, 3)[0] for _ in range(4)])
        if n_tests:
            tests = stack_models([_random_pair(rng, 3)[1] for _ in range(n_tests)])
        else:
            tests = stack_blocks([np.empty((0, 50, 3))])
        matrices = measure_matrices(kinds, refs, tests, convention)
        assert tuple(matrices) == kinds
        for kind, values in matrices.items():
            one_kind = measure_matrices((kind,), refs, tests, convention)[kind]
            assert np.array_equal(values, one_kind)
        if MU_G in matrices and MU_GC in matrices:
            assert not np.shares_memory(matrices[MU_G], matrices[MU_GC])

    def test_unknown_kind_rejected_among_known_ones(self):
        refs = stack_models([_model(0.0, 1.0, 2)])
        with pytest.raises(ValueError, match="unknown measure kind 'mu_x'"):
            measure_matrices((MU_G, "mu_x"), refs, refs)
