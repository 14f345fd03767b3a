"""From-scratch classifier portfolio behind one fit/predict/score interface."""

from flowbench.classifiers.base import Classifier, NotFittedError, non_negative_int
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
    margin,
)
from flowbench.classifiers.neighbors import KNNModel, NearestCentroidModel
from flowbench.classifiers.persistence import (
    FORMAT_VERSION,
    ModelArtifact,
    ModelFormatError,
    load_model,
    save_model,
)
from flowbench.classifiers.registry import (
    MODEL_CLASSES,
    MODEL_NAMES,
    make_model,
)
from flowbench.classifiers.tree import (
    DecisionTreeModel,
    ExtraTreeModel,
    TreeNode,
    build_tree,
    gini,
    tree_scores,
)
