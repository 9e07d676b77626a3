import numpy as np
import pytest

from sosid.errors import NotPositiveDefiniteError
from sosid.gaussian import GaussianModel, factorize, stack_models
from sosid.identify import (
    SpeakerRegistry,
    decisions_from_scores,
    identify,
    score_matrix,
    score_sheets_csv,
)
from sosid.measures import MEASURE_KINDS, SC_AS_PRINTED, SC_DECOMPOSITION, evaluate


def _model(mean, cov, count):
    return GaussianModel(mean=np.atleast_1d(mean), cov=np.atleast_2d(cov), count=count)


def _random_model(rng, p, count=None):
    a = rng.standard_normal((p, p))
    return _model(
        rng.standard_normal(p),
        a @ a.T + np.eye(p),
        int(count if count is not None else rng.integers(50, 800)),
    )


class TestRegistry:
    def test_register_grows(self):
        registry = SpeakerRegistry()
        registry.register("a", _model(0.0, 1.0, 10))
        assert len(registry) == 1
        assert registry.ids == ("a",)

    def test_duplicate_id_rejected(self):
        registry = SpeakerRegistry()
        registry.register("a", _model(0.0, 1.0, 10))
        with pytest.raises(ValueError):
            registry.register("a", _model(0.0, 2.0, 10))

    def test_dimension_mismatch_rejected(self):
        registry = SpeakerRegistry()
        registry.register("a", _model(0.0, 1.0, 10))
        with pytest.raises(ValueError):
            registry.register("b", _model([0.0, 0.0], np.eye(2), 10))

    def test_stacked_registry_matches_register_exactly(self):
        rng = np.random.default_rng(3)
        models = {f"spk{i}": _random_model(rng, 6) for i in range(4)}
        v = rng.standard_normal(6)
        models["rank1"] = _model(np.zeros(6), np.outer(v, v), 10)  # needs loading
        batch = SpeakerRegistry(models, stack_models(models.values()))
        assert batch.ids == tuple(models)
        assert batch.stack.loadings[batch.ids.index("rank1")] > 0.0
        for row, (speaker_id, model) in enumerate(models.items()):
            got, want = batch.model(speaker_id), factorize(model)
            np.testing.assert_array_equal(got.mean, model.mean)
            np.testing.assert_array_equal(got.cov, model.cov)
            assert got.count == model.count
            np.testing.assert_array_equal(batch.stack.inverses[row], want.inverse)
            assert batch.stack.log_dets[row] == want.log_det
            assert batch.stack.loadings[row] == want.loading
        single = SpeakerRegistry()
        for speaker_id, model in models.items():
            single.register(speaker_id, model)
        for name in ("means", "covs", "counts", "inverses", "log_dets", "loadings"):
            np.testing.assert_array_equal(getattr(single.stack, name), getattr(batch.stack, name))

    def test_stacked_registry_rejects_non_pd_model(self):
        rng = np.random.default_rng(4)
        zero = _model(np.zeros(3), np.zeros((3, 3)), 10)
        models = {"a": _random_model(rng, 3), "zero": zero}
        with pytest.raises(NotPositiveDefiniteError) as batch:
            SpeakerRegistry(models, stack_models(models.values()))
        with pytest.raises(NotPositiveDefiniteError) as single:
            factorize(models["zero"])
        assert str(batch.value) == str(single.value)

    def test_full_scale_registry(self):
        rng = np.random.default_rng(0)
        registry = SpeakerRegistry()
        for i in range(67):
            registry.register(f"spk{i:02d}", _random_model(rng, 24, count=1500))
        sheet = identify(registry, _random_model(rng, 24, count=100))
        assert len(sheet.scores) == 67


class TestIdentify:
    def test_own_training_model_scores_zero(self):
        rng = np.random.default_rng(1)
        registry = SpeakerRegistry()
        models = {f"s{i}": _random_model(rng, 8) for i in range(5)}
        for name, model in models.items():
            registry.register(name, model)
        for name, model in models.items():
            for kind in MEASURE_KINDS:
                sheet = identify(registry, model, kind)
                assert sheet.decision == name
                own = dict(sheet.scores)[name]
                assert abs(own) <= 1e-10

    def test_two_speaker_scalar_fixture(self):
        # covariances 1 and 4, means 0; test covariance 1.1: the mu_gc score
        # against each speaker follows from the one-dimensional formula
        registry = SpeakerRegistry()
        registry.register("narrow", _model(0.0, 1.0, 100))
        registry.register("wide", _model(0.0, 4.0, 100))
        test = _model(0.0, 1.1, 100)
        sheet = identify(registry, test, "mu_gc")
        expected_narrow = 0.5 * (1.1 / 1.0 + 1.0 / 1.1) - 1.0
        expected_wide = 0.5 * (1.1 / 4.0 + 4.0 / 1.1) - 1.0
        scores = dict(sheet.scores)
        assert scores["narrow"] == pytest.approx(expected_narrow, rel=1e-12)
        assert scores["wide"] == pytest.approx(expected_wide, rel=1e-12)
        assert sheet.decision == "narrow"

    def test_single_speaker_registry_always_wins(self):
        rng = np.random.default_rng(2)
        registry = SpeakerRegistry()
        registry.register("only", _random_model(rng, 4))
        for _ in range(5):
            assert identify(registry, _random_model(rng, 4)).decision == "only"

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            identify(SpeakerRegistry(), _model(0.0, 1.0, 10))

    def test_tie_breaks_to_first_registered(self):
        model = _model(0.0, 1.0, 50)
        registry = SpeakerRegistry()
        registry.register("first", model)
        registry.register("second", model)
        sheet = identify(registry, _model(0.5, 2.0, 50))
        values = [value for _, value in sheet.scores]
        assert values[0] == values[1]
        assert sheet.decision == "first"

    def test_identify_is_deterministic(self):
        rng = np.random.default_rng(3)
        registry = SpeakerRegistry()
        for i in range(4):
            registry.register(f"s{i}", _random_model(rng, 6))
        test = _random_model(rng, 6)
        a = identify(registry, test, "mu_g", test_id="t")
        b = identify(registry, test, "mu_g", test_id="t")
        assert a == b

    def test_decision_invariant_under_common_affine_map(self):
        rng = np.random.default_rng(4)
        p = 6
        models = [_random_model(rng, p) for _ in range(5)]
        test = _random_model(rng, p)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        a_map = q @ np.diag(rng.uniform(0.5, 2.0, size=p))
        shift = rng.standard_normal(p)

        def tf(model):
            return _model(a_map @ model.mean + shift, a_map @ model.cov @ a_map.T, model.count)

        for kind in MEASURE_KINDS:
            plain = SpeakerRegistry()
            mapped = SpeakerRegistry()
            for i, model in enumerate(models):
                plain.register(f"s{i}", model)
                mapped.register(f"s{i}", tf(model))
            assert (
                identify(plain, test, kind).decision
                == identify(mapped, tf(test), kind).decision
            )


def _dense_measure(kind, conv, ref, test):
    """Reference value straight from the dense formulas in the measures docstring."""
    p = ref.dim
    a = ref.count / (ref.count + test.count)
    b = test.count / (ref.count + test.count)
    tr_yx = np.trace(np.linalg.solve(ref.cov, test.cov))  # tr(Y X^-1)
    tr_xy = np.trace(np.linalg.solve(test.cov, ref.cov))  # tr(X Y^-1)
    logdet_yx = np.linalg.slogdet(test.cov)[1] - np.linalg.slogdet(ref.cov)[1]
    if kind == "mu_sc":
        sign = -1.0 if conv == SC_DECOMPOSITION else 1.0
        return a * (np.log(tr_yx / p) + sign * logdet_yx / p) + b * (
            np.log(tr_xy / p) - sign * logdet_yx / p
        )
    value = (a * tr_yx + b * tr_xy - (a - b) * logdet_yx) / p - 1.0
    if kind == "mu_g":
        d = test.mean - ref.mean
        quad_ref = d @ np.linalg.solve(ref.cov, d)  # d^T X^-1 d
        quad_test = d @ np.linalg.solve(test.cov, d)  # d^T Y^-1 d
        value += (a * quad_ref + b * quad_test) / p
    return value


class TestScoreMatrix:
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("conv", [SC_DECOMPOSITION, SC_AS_PRINTED])
    def test_matches_pairwise_evaluation(self, kind, conv):
        rng = np.random.default_rng(5)
        registry = SpeakerRegistry()
        refs = [_random_model(rng, 8) for _ in range(6)]
        for i, model in enumerate(refs):
            registry.register(f"s{i}", model)
        tests = [_random_model(rng, 8) for _ in range(9)]
        matrix = score_matrix(registry, stack_models(tests), kind, conv)
        assert matrix.shape == (9, 6)
        for t, test in enumerate(tests):
            for r, ref in enumerate(refs):
                expected = _dense_measure(kind, conv, ref, test)
                assert matrix[t, r] == pytest.approx(expected, rel=1e-12, abs=1e-12)
                scalar = evaluate(kind, ref, test, sc_convention=conv)
                assert scalar == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_decisions_match_identify(self):
        rng = np.random.default_rng(6)
        registry = SpeakerRegistry()
        for i in range(5):
            registry.register(f"s{i}", _random_model(rng, 6))
        tests = [_random_model(rng, 6) for _ in range(20)]
        for kind in MEASURE_KINDS:
            matrix = score_matrix(registry, stack_models(tests), kind)
            bulk = decisions_from_scores(registry, matrix)
            single = [identify(registry, m, kind).decision for m in tests]
            assert bulk == single


class TestScoreSheetCsv:
    def test_header_and_rows(self):
        rng = np.random.default_rng(7)
        registry = SpeakerRegistry()
        for i in range(3):
            registry.register(f"s{i}", _random_model(rng, 4))
        sheets = [
            identify(registry, _random_model(rng, 4), test_id=f"t{k}")
            for k in range(2)
        ]
        text = score_sheets_csv(sheets)
        lines = text.strip().split("\n")
        assert lines[0] == "test_id,decision,s0,s1,s2"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "t0"
        assert first[1] == sheets[0].decision
        # full-precision round trip
        assert float(first[2]) == sheets[0].scores[0][1]

    def test_empty_input(self):
        assert score_sheets_csv([]) == "test_id,decision\n"

    def test_mixed_registries_rejected(self):
        rng = np.random.default_rng(8)
        r1 = SpeakerRegistry().register("a", _random_model(rng, 3))
        r2 = SpeakerRegistry().register("b", _random_model(rng, 3))
        sheets = [
            identify(r1, _random_model(rng, 3), test_id="x"),
            identify(r2, _random_model(rng, 3), test_id="y"),
        ]
        with pytest.raises(ValueError):
            score_sheets_csv(sheets)
