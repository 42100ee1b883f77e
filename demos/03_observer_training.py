"""
Training the multi-slice model observer
=======================================

The scoring chain, spelled out by hand: generate labeled stacks, map
them through the display, filter each into its perceived form reduced
to a handful of channel responses per slice, and train the two-stage
observer on those responses.  A held-out set then measures how well the
trained template separates the classes.

The trial runner automates exactly this; doing it once manually shows
where each moving part sits.
"""

import numpy as np

from cinecho.csf import ViewingConditions
from cinecho.display import DisplayModel
from cinecho.observer import (
    central_position,
    lg_channel_bank,
    score_responses,
    train_mscho_from_responses,
)
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
geometry = dataset.stacks[0].geometry
print(f"{len(pairs)} pairs, stacks of "
      f"{geometry.width}x{geometry.height}x{geometry.n_slices}")

# step 1: channel bank and the slice range the observer reads; the
# generator records which slices the lesion touched
train_pairs, test_pairs = pairs[:N_TRAIN], pairs[N_TRAIN:]
bank = lg_channel_bank(64, 64, n_channels=15, spread=10.0)
slice_range = by_id[train_pairs[0][1]].lesion_slices
print(f"{bank.n_channels} channels, observer reads slices {slice_range}")

# step 2: codes -> luminance -> JND units at a fixed browsing speed, read
# out as the channel responses of the slice range: with a bank the filter
# projects onto the channels and never forms the perceived planes
display = DisplayModel()


def perceive(stack):
    """The (slices, channels) responses of one perceived stack."""
    lum = display.code_to_luminance(stack.data)
    vc = ViewingConditions.for_stack(geometry.width, SSR, RATE, lum.mean())
    return apply_stcsf(lum, vc, slices=slice_range, bank=bank)


train_h = np.array([perceive(by_id[h]) for h, _ in train_pairs])
train_l = np.array([perceive(by_id[l]) for _, l in train_pairs])
print(f"perceived {2 * N_TRAIN} training stacks")

# step 3: stage 1 learns a channel template on the central slice, stage 2
# learns how to pool the per-slice scores
central = central_position(slice_range, geometry.n_slices)
model = train_mscho_from_responses(train_h, train_l, central, slice_range)
print(f"stage-1 ridge {model.ridge:g}, "
      f"stage-2 weights {np.array2string(model.stage2_weights, precision=3)}")

# step 4: the held-out cases measure separation
scores_h = [score_responses(perceive(by_id[h]), model) for h, _ in test_pairs]
scores_l = [score_responses(perceive(by_id[l]), model) for _, l in test_pairs]
auc = auc_wilcoxon(scores_h, scores_l)
print(f"held-out AUC over {N_TEST}+{N_TEST} cases: {auc:.3f}")
assert auc > 0.5, "trained observer should beat chance"
