"""
Training the multi-slice model observer
=======================================

The scoring chain, spelled out by hand: generate labeled stacks, map
them through the display, filter each into its perceived form, reduce
every slice to a handful of channel responses, and train the two-stage
observer.  A held-out set then measures how well the trained template
separates the classes.

The trial runner automates exactly this; doing it once manually shows
where each moving part sits.
"""

import numpy as np

from cinecho.csf import ViewingConditions
from cinecho.display import DisplayModel
from cinecho.observer import lg_channel_bank, score_stack, train_mscho_b
from cinecho.percept import apply_stcsf
from cinecho.stacks import LesionSpec, generate_dataset
from cinecho.trial import auc_wilcoxon

N_TRAIN = 24
N_TEST = 12
SSR = 7.0
RATE = 25.0

dataset = generate_dataset("dataset_b", N_TRAIN + N_TEST,
                           LesionSpec("microcalc", amplitude=60.0), seed=11)
by_id = {s.stack_id: s for s in dataset.stacks}
pairs = dataset.pairing
print(f"{len(pairs)} pairs, stacks of "
      f"{dataset.stacks[0].width}x{dataset.stacks[0].height}"
      f"x{dataset.stacks[0].n_slices}")

# step 1: codes -> luminance -> JND units, at a fixed browsing speed
display = DisplayModel()


def perceive(stack):
    """The perceived W x H x K array of one stack."""
    lum = display.code_to_luminance(stack.data)
    vc = ViewingConditions.for_stack(stack.width, SSR, RATE, lum.mean())
    return apply_stcsf(lum, vc).data


train_pairs, test_pairs = pairs[:N_TRAIN], pairs[N_TRAIN:]
train_h = [perceive(by_id[h]) for h, _ in train_pairs]
train_l = [perceive(by_id[l]) for _, l in train_pairs]
print(f"perceived {2 * N_TRAIN} training stacks")

# step 2: channel bank and the slice range the observer reads; the
# generator records which slices the lesion touched
bank = lg_channel_bank(64, 64, n_channels=15, spread=10.0)
slice_range = by_id[train_pairs[0][1]].lesion_slices
print(f"{bank.n_channels} channels, observer reads slices {slice_range}")

# step 3: stage 1 learns a channel template on the central slice, stage 2
# learns how to pool the per-slice scores
model = train_mscho_b(train_h, train_l, bank, slice_range)
print(f"stage-1 ridge {model.stage1.ridge:g}, "
      f"stage-2 weights {np.array2string(model.stage2_weights, precision=3)}")

# step 4: the held-out cases measure separation
scores_h = [score_stack(perceive(by_id[h]), model) for h, _ in test_pairs]
scores_l = [score_stack(perceive(by_id[l]), model) for _, l in test_pairs]
auc = auc_wilcoxon(scores_h, scores_l)
print(f"held-out AUC over {N_TEST}+{N_TEST} cases: {auc:.3f}")
assert auc > 0.5, "trained observer should beat chance"
