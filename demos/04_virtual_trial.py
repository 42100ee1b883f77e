"""
A virtual multi-reader detection trial
======================================

One call to the trial runner plays out a complete experiment: the
dataset is split into disjoint training subsets plus a shared test set,
each subset trains one model reader, every reader scores every test
case, and a one-shot multi-reader multi-case analysis turns the score
matrix into a mean AUC with an estimate of its variance.

The variance matters as much as the mean: it says how far a repeat of
the whole experiment, new cases and new readers, would scatter.
"""

from collections import Counter

import numpy as np

from cinecho.stacks import GEOMETRY_PRESETS, LesionSpec, generate_dataset
from cinecho.trial import PipelineConfig, run_trial, split_dataset

# 100 pairs over 5 subsets leaves 20 per class per reader, enough to
# estimate the 15-channel covariance (which needs at least 16)
N_PAIRS = 100
N_READERS = 4

dataset = generate_dataset(GEOMETRY_PRESETS["dataset_b"], N_PAIRS,
                           LesionSpec("microcalc", amplitude=60.0), seed=23)

# the plan deals pairs round-robin: n_readers training subsets plus one
# shared test subset, members of a pair never in the same subset
plan = split_dataset(dataset.pairing, N_READERS, seed=23, min_per_class=6)
sizes = Counter(plan.subset_assignment.values())
for subset in range(N_READERS + 1):
    role = "test" if subset == N_READERS else f"reader {subset}"
    print(f"subset {subset} ({role}): {sizes[subset]} stacks")

config = PipelineConfig(slice_rate=25.0, ssr=7.0)
result = run_trial(dataset, plan, config)

print(f"\nper-reader AUC: "
      f"{np.array2string(result.per_reader_auc, precision=3)}")
print(f"mean AUC {result.mean_auc:.3f}, "
      f"MRMC variance {result.variance:.2e} "
      f"(stddev {np.sqrt(result.variance):.3f})")
print(f"score matrix {result.scores.shape[0]} readers x "
      f"{result.scores.shape[1]} test cases "
      f"({int(result.test_labels.sum())} with lesion)")

# reader disagreement on the same cases is what separates the multi-
# reader variance from a single-reader binomial error bar
spread = result.per_reader_auc.max() - result.per_reader_auc.min()
print(f"reader spread {spread:.3f}")
assert result.mean_auc > 0.5, "readers should beat chance"
