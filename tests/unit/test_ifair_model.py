"""Tests for repro.core.model (the IFair estimator)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import model as model_module
from repro.core.model import IFair, RestartRecord
from repro.exceptions import NotFittedError, ValidationError
from repro.telemetry.metrics import get_registry


@pytest.fixture
def data(make_data):
    return make_data(40, 5, protected_col=4)


def _fit(X, **kwargs):
    defaults = dict(
        n_prototypes=3, n_restarts=1, max_iter=40, random_state=0, max_pairs=300
    )
    defaults.update(kwargs)
    return IFair(**defaults).fit(X, [4])


class TestFit:
    def test_fit_reduces_loss_vs_init(self, data):
        model = _fit(data)
        assert np.isfinite(model.loss_)
        assert model.prototypes_.shape == (3, 5)
        assert model.alpha_.shape == (5,)

    def test_alpha_nonnegative(self, data):
        model = _fit(data)
        assert np.all(model.alpha_ >= 0.0)

    def test_restart_records(self, data):
        model = _fit(data, n_restarts=2)
        assert len(model.restarts_) == 2
        assert model.loss_ == pytest.approx(min(r.loss for r in model.restarts_))

    def test_deterministic_given_seed(self, data):
        a = _fit(data, random_state=5)
        b = _fit(data, random_state=5)
        np.testing.assert_allclose(a.prototypes_, b.prototypes_)
        np.testing.assert_allclose(a.alpha_, b.alpha_)

    def test_different_seeds_differ(self, data):
        a = _fit(data, random_state=1)
        b = _fit(data, random_state=2)
        assert not np.allclose(a.prototypes_, b.prototypes_)

    def test_protected_zero_init_keeps_protected_weight_small(self, data):
        model = _fit(data, init="protected_zero", max_iter=30)
        nonprot_mean = model.alpha_[:4].mean()
        # The protected weight starts near zero and has little gradient
        # pressure; it should stay well below the others on average.
        assert model.alpha_[4] < nonprot_mean

    def test_fit_without_protected(self, make_data):
        X = make_data(30, 4)
        model = IFair(
            n_prototypes=2, n_restarts=1, max_iter=20, random_state=0
        ).fit(X)
        assert model.transform(X).shape == X.shape

    def test_invalid_init_rejected(self):
        with pytest.raises(ValidationError):
            IFair(init="bogus")

    def test_invalid_restarts_rejected(self):
        with pytest.raises(ValidationError):
            IFair(n_restarts=0)

    def test_invalid_protected_alpha_init(self):
        with pytest.raises(ValidationError):
            IFair(protected_alpha_init=0.0)

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ValidationError):
            IFair(n_jobs=0)
        with pytest.raises(ValidationError):
            IFair(n_jobs=-2)

    def test_invalid_pair_mode_rejected(self):
        with pytest.raises(ValidationError):
            IFair(pair_mode="bogus")
        # The retired landmark mode; the message names what remains.
        with pytest.raises(ValidationError, match="'auto', 'full', 'sampled'"):
            IFair(pair_mode="landmark")


class TestStopReason:
    """Each restart records why L-BFGS-B stopped and counts it."""

    REASONS = ("gtol", "ftol", "maxiter", "abnormal")

    def test_spent_budget_reads_maxiter(self, data):
        model = _fit(data, n_restarts=2, max_iter=1)
        assert [r.stop_reason for r in model.restarts_] == ["maxiter", "maxiter"]

    def test_met_tolerance_reads_gtol(self, data):
        # The projected gradient starts in the thousands here and falls
        # below this tol within a few iterations.
        model = _fit(data, max_iter=200, tol=1e3)
        (record,) = model.restarts_
        assert record.stop_reason == "gtol"
        assert record.converged and record.n_iterations < 200

    def test_scipy_status_mapping(self):
        def result(status, message):
            return SimpleNamespace(status=status, message=message)

        stop = model_module._stop_reason
        assert stop(result(0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")) == "gtol"
        assert stop(result(0, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH")) == "ftol"
        assert stop(result(1, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")) == "maxiter"
        assert stop(result(2, "ABNORMAL: ")) == "abnormal"

    def test_counter_moves_once_per_restart(self, data):
        registry = get_registry()

        def counts():
            return {
                r: registry.value("fit_restart_stops_total", {"reason": r})
                for r in self.REASONS
            }

        before = counts()
        _fit(data, n_restarts=3, max_iter=1)
        after = counts()
        assert {r: after[r] - before[r] for r in self.REASONS} == {
            "gtol": 0.0, "ftol": 0.0, "maxiter": 3.0, "abnormal": 0.0,
        }

    def test_existing_constructors_keep_working(self):
        record = RestartRecord(seed=0, loss=1.0, n_iterations=1, converged=True)
        assert record.stop_reason == "unknown"


class TestParallelRestarts:
    """n_jobs must change wall-clock behaviour only, never the model."""

    @pytest.mark.parametrize("n_jobs", [2, 4, -1])
    def test_parallel_fit_equals_sequential(self, data, n_jobs):
        sequential = _fit(data, n_restarts=3)
        parallel = _fit(data, n_restarts=3, n_jobs=n_jobs)
        np.testing.assert_array_equal(sequential.prototypes_, parallel.prototypes_)
        np.testing.assert_array_equal(sequential.alpha_, parallel.alpha_)
        assert sequential.loss_ == parallel.loss_

    def test_restart_records_keep_seed_order(self, data):
        sequential = _fit(data, n_restarts=3)
        parallel = _fit(data, n_restarts=3, n_jobs=3)
        assert [r.seed for r in parallel.restarts_] == [
            r.seed for r in sequential.restarts_
        ]
        assert [r.loss for r in parallel.restarts_] == [
            r.loss for r in sequential.restarts_
        ]

    @pytest.mark.parametrize("n_jobs", [None, 3])
    def test_tie_breaks_by_seed_order(self, data, monkeypatch, n_jobs):
        # Force every restart to the same loss: the earliest seed's
        # parameters must win regardless of completion order.
        from repro.core.model import IFair, RestartRecord

        def tied_run(self, objective, bounds, seed, **kwargs):
            record = RestartRecord(
                seed=seed, loss=1.0, n_iterations=1, converged=True
            )
            return record, np.full(objective.n_params, float(seed))

        monkeypatch.setattr(IFair, "_run_restart", tied_run)
        model = IFair(
            n_prototypes=3, n_restarts=3, n_jobs=n_jobs, random_state=0
        ).fit(data, [4])
        first_seed = model.restarts_[0].seed
        assert np.all(model.prototypes_ == float(first_seed))
        assert np.all(model.alpha_ == float(first_seed))

    def test_n_jobs_exceeding_restarts_is_capped(self, data):
        model = _fit(data, n_restarts=2, n_jobs=16)
        assert len(model.restarts_) == 2


class TestWarmStart:
    def test_theta_roundtrip(self, data):
        model = _fit(data)
        np.testing.assert_array_equal(
            model.theta_,
            np.concatenate([model.prototypes_.ravel(), model.alpha_]),
        )

    def test_theta_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            IFair().theta_

    def test_warm_start_wrong_size_rejected(self, data):
        with pytest.raises(ValidationError):
            _fit(data, warm_start_theta=np.ones(3))

    def test_warm_start_resumes_first_restart(self, data):
        cold = _fit(data, max_iter=60)
        warm = _fit(data, max_iter=60, warm_start_theta=cold.theta_)
        # Continuing from a converged point cannot do worse than the
        # point itself; the remaining restarts still run from seeds.
        assert warm.loss_ <= cold.loss_ + 1e-9

    def test_warm_start_applies_under_every_backend(self, data):
        cold = _fit(data, max_iter=40)
        serial = _fit(data, max_iter=40, warm_start_theta=cold.theta_)
        process = _fit(
            data, max_iter=40, warm_start_theta=cold.theta_, n_jobs=2,
            n_restarts=2,
        )
        reference = _fit(
            data, max_iter=40, warm_start_theta=cold.theta_, n_restarts=2
        )
        np.testing.assert_array_equal(process.theta_, reference.theta_)
        assert serial.loss_ <= cold.loss_ + 1e-9

    def test_get_params_rebuilds_equivalent_estimator(self, data):
        model = _fit(data, n_restarts=2)
        clone = IFair(**model.get_params()).fit(data, [4])
        np.testing.assert_array_equal(model.theta_, clone.theta_)


class TestTransform:
    def test_transform_before_fit_raises(self, data):
        with pytest.raises(NotFittedError):
            IFair().transform(data)

    def test_output_shape(self, data):
        model = _fit(data)
        assert model.transform(data).shape == data.shape

    def test_memberships_simplex(self, data):
        model = _fit(data)
        U = model.memberships(data)
        np.testing.assert_allclose(U.sum(axis=1), 1.0)
        assert np.all(U >= 0)

    def test_new_records_transformable(self, data, rng):
        model = _fit(data)
        X_new = rng.normal(size=(7, 5))
        assert model.transform(X_new).shape == (7, 5)

    def test_feature_mismatch_raises(self, data):
        model = _fit(data)
        with pytest.raises(ValidationError):
            model.transform(np.zeros((3, 7)))

    def test_transform_in_prototype_hull(self, data):
        model = _fit(data)
        Z = model.transform(data)
        lo = model.prototypes_.min(axis=0) - 1e-9
        hi = model.prototypes_.max(axis=0) + 1e-9
        assert np.all(Z >= lo) and np.all(Z <= hi)

    def test_reconstruction_error_finite(self, data):
        model = _fit(data)
        err = model.reconstruction_error(data)
        assert np.isfinite(err) and err >= 0.0


class TestBehaviour:
    def test_protected_flip_barely_moves_representation(self, make_data):
        """The paper's core property: flipping the protected attribute of
        a record (iFair-b) leaves its representation nearly unchanged."""
        X = make_data(50, 4, protected_col=3)
        model = IFair(
            n_prototypes=3,
            mu_fair=1.0,
            init="protected_zero",
            n_restarts=1,
            max_iter=60,
            random_state=0,
            max_pairs=400,
        ).fit(X, [3])
        X_flip = X.copy()
        X_flip[:, 3] = 1.0 - X_flip[:, 3]
        Z = model.transform(X)
        Z_flip = model.transform(X_flip)
        base_scale = float(np.mean(Z**2)) + 1e-12
        drift = float(np.mean((Z - Z_flip) ** 2))
        assert drift / base_scale < 0.05

    def test_higher_lambda_improves_reconstruction(self, make_data):
        X = make_data(40, 4)
        lo = IFair(
            n_prototypes=3, lambda_util=0.01, mu_fair=1.0,
            n_restarts=1, max_iter=60, random_state=0, max_pairs=300,
        ).fit(X)
        hi = IFair(
            n_prototypes=3, lambda_util=100.0, mu_fair=1.0,
            n_restarts=1, max_iter=60, random_state=0, max_pairs=300,
        ).fit(X)
        assert hi.reconstruction_error(X) <= lo.reconstruction_error(X) + 1e-6

    def test_repr_mentions_key_params(self):
        text = repr(IFair(n_prototypes=7, mu_fair=2.0))
        assert "n_prototypes=7" in text
        assert "mu_fair=2.0" in text


class TestChunkedTransform:
    """batch_size chunking must be exactly equal to the one-shot path."""

    @pytest.fixture(scope="class")
    def fitted(self):
        X = np.random.default_rng(5).normal(size=(60, 6))
        model = IFair(
            n_prototypes=4, n_restarts=1, max_iter=40, random_state=0,
            max_pairs=400,
        ).fit(X, [5])
        return model, X

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 60, 1000])
    def test_memberships_chunking_exact(self, fitted, batch_size):
        model, X = fitted
        full = model.memberships(X)
        chunked = model.memberships(X, batch_size=batch_size)
        assert np.array_equal(full, chunked)

    @pytest.mark.parametrize("batch_size", [1, 13, 64])
    def test_transform_chunking_exact(self, fitted, batch_size):
        model, X = fitted
        assert np.array_equal(
            model.transform(X), model.transform(X, batch_size=batch_size)
        )

    @pytest.mark.parametrize("height", [1, 13, 64])
    def test_transform_rows_exact_at_served_shape(self, height):
        # K = 10, N = 101 is the served census model's shape, where a
        # BLAS product gives a row other bits at other heights; the
        # scale keeps memberships soft, as on standardised records.
        X = np.random.default_rng(8).normal(size=(64, 101)) * 0.1
        model = IFair(
            n_prototypes=10, n_restarts=1, max_iter=10, random_state=0,
            max_pairs=400,
        ).fit(X, [5])
        pieces = [model.transform(X[i : i + height]) for i in range(0, 64, height)]
        assert np.array_equal(model.transform(X), np.concatenate(pieces))
        assert np.array_equal(
            model.transform(X), model.transform(X, batch_size=height)
        )

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_chunking_exact_for_general_p(self, p):
        X = np.random.default_rng(6).normal(size=(30, 4))
        model = IFair(
            n_prototypes=3, p=p, n_restarts=1, max_iter=25, random_state=1,
            max_pairs=200,
        ).fit(X, [3])
        assert np.array_equal(
            model.memberships(X), model.memberships(X, batch_size=11)
        )

    def test_invalid_batch_size_rejected(self, fitted):
        model, X = fitted
        with pytest.raises(ValidationError):
            model.memberships(X, batch_size=0)
