from .network import (
    BRANCH_WIDTHS,
    HierarchicalClassifier,
    HierarchicalNetSpec,
)
from .tasks import (
    DEFAULT_VALIDATION,
    STRATEGY_CLASSES,
    TASKS,
    WEIGHT_CLASSES,
    TaskSpec,
    balance_classes,
    cluster_views,
    validation_split,
)
from .training import TrainReport, evaluate, predict_logits, train_classifier
