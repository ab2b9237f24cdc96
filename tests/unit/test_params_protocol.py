"""The sklearn-compatible parameter protocol (get_params/set_params).

One contract across the library (:class:`repro.learners.base.ParamsMixin`):
``get_params()`` returns the constructor arguments by ``__init__``
introspection, ``set_params`` validates eagerly and never un-fits, and
``type(est)(**est.get_params())`` reconstructs an equivalent estimator
— which is exactly what ``sklearn.base.clone`` does.
"""

import numpy as np
import pytest

from repro.baselines import LFR
from repro.core import IFair
from repro.data.compas import generate_compas
from repro.exceptions import ValidationError
from repro.learners.base import ParamsMixin
from repro.learners.knn import KNearestNeighbors
from repro.learners.linear import LinearRegression, RidgeRegression
from repro.learners.logistic import LogisticRegression
from repro.learners.scaler import StandardScaler

# The executor's worker-state channel and the serving artifact both
# round-trip IFair through get_params(); this exact key set (and order)
# is what they historically shipped — introspection must reproduce it.
IFAIR_PARAM_KEYS = [
    "n_prototypes",
    "lambda_util",
    "mu_fair",
    "p",
    "init",
    "protected_alpha_init",
    "n_restarts",
    "max_iter",
    "tol",
    "max_pairs",
    "pair_mode",
    "n_jobs",
    "pool",
    "warm_start_theta",
    "random_state",
]

ESTIMATORS = [
    IFair(n_prototypes=3, max_iter=5),
    LFR(n_prototypes=3, max_iter=5),
    LogisticRegression(l2=0.5, max_iter=50),
    RidgeRegression(l2=2.0),
    LinearRegression(),
    KNearestNeighbors(k=3),
    StandardScaler(with_mean=True),
]


def test_ifair_param_keys_pinned():
    assert list(IFair().get_params()) == IFAIR_PARAM_KEYS


@pytest.mark.parametrize(
    "estimator", ESTIMATORS, ids=lambda e: type(e).__name__
)
def test_roundtrip_reconstructs_equal_estimator(estimator):
    params = estimator.get_params()
    rebuilt = type(estimator)(**params)
    assert rebuilt.get_params() == params


@pytest.mark.parametrize(
    "estimator", ESTIMATORS, ids=lambda e: type(e).__name__
)
def test_every_param_is_a_stored_attribute(estimator):
    for name, value in estimator.get_params().items():
        assert getattr(estimator, name) is value or getattr(
            estimator, name
        ) == value


def test_get_params_deep_defaults_match_zero_arg():
    model = IFair()
    assert model.get_params() == model.get_params(deep=True)
    assert model.get_params() == model.get_params(deep=False)


def test_set_params_unknown_name_raises_with_valid_list():
    with pytest.raises(ValidationError, match="n_prototypes"):
        IFair().set_params(bogus=1)


def test_set_params_runs_constructor_validation():
    with pytest.raises(ValidationError):
        IFair().set_params(pair_mode="bogus")


def test_set_params_returns_self_and_updates():
    model = IFair()
    assert model.set_params(max_iter=7, mu_fair=2.5) is model
    assert model.max_iter == 7
    assert model.mu_fair == 2.5


def test_set_params_preserves_fitted_state():
    dataset = generate_compas(40, charge_levels=4, random_state=0)
    model = IFair(n_prototypes=2, max_iter=5, max_pairs=50, random_state=0)
    model.fit(dataset.X, dataset.protected_indices)
    prototypes = model.prototypes_.copy()
    model.set_params(max_iter=9)
    assert model.max_iter == 9
    assert np.array_equal(model.prototypes_, prototypes)
    assert model.alpha_ is not None
    # the fitted model still transforms without refitting
    model.transform(dataset.X[:5])


def test_var_kwargs_constructor_is_rejected():
    class Sloppy(ParamsMixin):
        def __init__(self, **kwargs):
            pass

    with pytest.raises(ValidationError, match="explicitly"):
        Sloppy().get_params()


def test_bare_mixin_has_no_params():
    class Bare(ParamsMixin):
        pass

    assert Bare().get_params() == {}


def test_nested_estimator_params():
    class Wrapper(ParamsMixin):
        def __init__(self, inner=None):
            self.inner = inner

    wrapped = Wrapper(inner=RidgeRegression(l2=3.0))
    params = wrapped.get_params()
    assert params["inner__l2"] == 3.0
    wrapped.set_params(inner__l2=0.5)
    assert wrapped.inner.l2 == 0.5


def test_sklearn_clone_roundtrip():
    sklearn_base = pytest.importorskip("sklearn.base")
    for estimator in (IFair(n_prototypes=3, max_iter=5), LFR(n_prototypes=3)):
        cloned = sklearn_base.clone(estimator)
        assert type(cloned) is type(estimator)
        assert cloned is not estimator
        assert cloned.get_params() == estimator.get_params()
