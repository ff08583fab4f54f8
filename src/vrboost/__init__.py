"""Boosted-LSTM binary classifier for tabular VR experience records.

Small LSTM weak learners trained with per-sample weights by BPTT, combined
by AdaBoost into an additive model, with a CSV data pipeline, synthetic data
generator, and classification metrics.
"""

from .boosting import (BoostConfig, Ensemble, LstmWeakLearner, alpha,
                       boost_train, ensemble_predict, init_weights,
                       lstm_factory, staged_train_error, update_weights,
                       weighted_error)
from .data import (Standardizer, Table, TargetSpec, apply_standardizer, encode,
                   encode_labels, fit_standardizer, gen_synthetic, load_csv,
                   majority_rate, split_indices, synthetic_bayes_rate, write_csv)
from .errors import DataError, TrainingError, UsageError, VrboostError
from .lstm import (LossCurve, PackedLstm, TrainConfig, grad_check,
                   init_params, learning_rate, param_keys, step_dim,
                   train_weak_learner, weighted_loss)
from .metrics import (ConfusionMatrix, MetricReport, confusion,
                      correct_incorrect, f1_score, scores)
from .numerics import Rng, sigmoid

__version__ = "0.1.0"
