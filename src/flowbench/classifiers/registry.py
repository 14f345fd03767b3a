"""Model registry: stable snake_case names to default-parameter model classes."""

from __future__ import annotations

import inspect

from flowbench.classifiers.base import Classifier
from flowbench.classifiers.bayes import BernoulliNBModel, GaussianNBModel
from flowbench.classifiers.dummy import DummyModel
from flowbench.classifiers.ensemble import (
    BaggingModel,
    ExtraTreesModel,
    RandomForestModel,
)
from flowbench.classifiers.linear import (
    LinearSVMModel,
    LogisticRegressionModel,
    PerceptronModel,
    RidgeModel,
)
from flowbench.classifiers.neighbors import KNNModel, NearestCentroidModel
from flowbench.classifiers.tree import DecisionTreeModel, ExtraTreeModel

MODEL_CLASSES: dict[str, type[Classifier]] = {
    cls.name: cls
    for cls in (
        DecisionTreeModel,
        ExtraTreeModel,
        BaggingModel,
        RandomForestModel,
        ExtraTreesModel,
        KNNModel,
        GaussianNBModel,
        BernoulliNBModel,
        NearestCentroidModel,
        RidgeModel,
        LinearSVMModel,
        LogisticRegressionModel,
        PerceptronModel,
        DummyModel,
    )
}


MODEL_NAMES = list(MODEL_CLASSES)


def make_model(name: str, seed: int = 0) -> Classifier:
    """Instantiate a portfolio model by registry name with default parameters.

    `seed` goes to the constructor only if it takes one.
    """
    try:
        cls = MODEL_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}") from None
    if "seed" in inspect.signature(cls).parameters:
        return cls(seed=seed)
    return cls()
