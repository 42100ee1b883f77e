"""End-to-end acceptance gate: twelve behavioural criteria, one test and
one recorded PASS/FAIL line each.

Criteria 1-5 pin the sensitivity model and the perceptual filter against
analytic facts and an arbitrary-precision oracle; 6-7 pin the trial
statistics against brute force and Monte Carlo; 8-12 run the full virtual-
trial pipeline at its defaults and check the headline detection trends.
The heavy sweeps behind 8, 9, 10 and 11 are computed once in a shared
fixture; 12 recomputes its half from scratch, which is the point.
"""

import math
import time

import numpy as np
import pytest

from cinecho.config import DEFAULTS, geometry_from, lesion_from
from cinecho.csf import (
    ViewingConditions,
    derive_optics,
    lateral_inhibition,
    optical_mtf,
    pupil_diameter,
    stcsf,
    temporal_filter,
)
from cinecho.display import DisplayModel
from cinecho.harness import SweepSpec, emit_csv, run_sweep
from cinecho.percept import (
    ACUITY_B,
    apply_stcsf,
    filter_contrast,
    foveal_weight,
    frequency_of_index,
    taper_margins,
    transfer_gain,
)
from cinecho.stacks import generate_dataset
from cinecho.trial import (
    PipelineConfig,
    auc_wilcoxon,
    one_shot_mrmc,
    run_trial,
    split_dataset,
)

pytestmark = pytest.mark.acceptance

# the reference viewing conditions for the sensitivity criteria: a 2.5 deg
# object at 20 cd/m^2
VC_REF = ViewingConditions(luminance=20.0, x0=2.5)

DATASET_SEEDS = (1, 2, 3, 4, 5)
RATE_GRID = (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
SSR_GRID = (1.0, 7.0, 25.0, 99.0)
TREND_RATE = 25.0


def _config(seed: int, ssr: float = 7.0) -> dict:
    config = dict(DEFAULTS)
    config["generator.seed"] = seed
    config["percept.ssr"] = ssr
    return config


def _generate(config: dict):
    return generate_dataset(geometry_from(config),
                            config["generator.n_pairs"],
                            lesion_from(config),
                            seed=config["generator.seed"],
                            texture=config["generator.texture"],
                            beta=config["generator.beta"])


def _rate_sweep(seed: int, ssr: float):
    """One complete browsing-speed sweep at the toolkit defaults."""
    config = _config(seed, ssr)
    dataset = _generate(config)
    return run_sweep(dataset, SweepSpec("slice_rate", RATE_GRID), config)


@pytest.fixture(scope="module")
def trend_runs():
    """Every trend criterion's data, computed in one pass per seed.

    Returns dict with:
      rate_curves[(seed, ssr)] -> tuple of mean AUC over RATE_GRID
      ssr7_rows[seed]          -> the SSR=7 sweep's result rows, for the
                                  byte-reproducibility comparison
      ssr_curves[seed]         -> tuple of mean AUC over SSR_GRID at 25 sl/s
      display_runs             -> {variant: (mean_auc, stddev)} at the peak
                                  browsing speed of the seed-1 curve
      ssr7_seconds             -> wall time of the five SSR=7 sweeps
    """
    rate_curves, ssr7_rows, ssr_curves = {}, {}, {}
    display_runs = {}
    ssr7_seconds = 0.0
    for seed in DATASET_SEEDS:
        config = _config(seed)
        dataset = _generate(config)
        t0 = time.perf_counter()
        rows7 = run_sweep(dataset, SweepSpec("slice_rate", RATE_GRID), config)
        ssr7_seconds += time.perf_counter() - t0
        rows14 = run_sweep(dataset, SweepSpec("slice_rate", RATE_GRID),
                           _config(seed, ssr=14.0))
        rows_ssr = run_sweep(dataset, SweepSpec("ssr", SSR_GRID),
                             _config(seed))
        rate_curves[(seed, 7.0)] = tuple(r.mean_auc for r in rows7)
        rate_curves[(seed, 14.0)] = tuple(r.mean_auc for r in rows14)
        ssr7_rows[seed] = rows7
        ssr_curves[seed] = tuple(r.mean_auc for r in rows_ssr)

        if seed == 1:
            # display-variant trials for the luminance criterion, run at
            # this seed's peak browsing speed on the same dataset and plan
            peak_rate = RATE_GRID[int(np.argmax(rate_curves[(seed, 7.0)]))]
            plan = split_dataset(dataset.pairing,
                                 config["trial.n_readers"],
                                 config["trial.seed"],
                                 config["trial.min_per_class"])
            base_display = DisplayModel()
            variants = {
                "base": base_display,
                "half_l_max": DisplayModel(
                    l_min=base_display.l_min / 2.0,
                    l_max=base_display.l_max / 2.0),
                "half_contrast": DisplayModel(
                    l_min=base_display.l_min * 2.0,
                    l_max=base_display.l_max),
            }
            for name, display in variants.items():
                result = run_trial(dataset, plan,
                                   PipelineConfig(display=display,
                                                  slice_rate=peak_rate))
                display_runs[name] = (result.mean_auc,
                                      math.sqrt(result.variance))
            display_runs["peak_rate"] = peak_rate
    return {"rate_curves": rate_curves, "ssr7_rows": ssr7_rows,
            "ssr_curves": ssr_curves, "display_runs": display_runs,
            "ssr7_seconds": ssr7_seconds}


def test_criterion_01_low_frequency_flicker_boost(criterion_report):
    w = np.arange(0.0, 40.0 + 1e-9, 0.5)
    argmax_low = float(w[int(np.argmax(stcsf(0.1, w, VC_REF)))])
    argmax_high = float(w[int(np.argmax(stcsf(8.0, w, VC_REF)))])
    ok = argmax_low >= 1.0 and argmax_high == 0.0
    criterion_report(
        f"criterion 01 {'PASS' if ok else 'FAIL'} - sensitivity at "
        f"0.1 cyc/deg peaks at {argmax_low:g} Hz (need >= 1), at 8 cyc/deg "
        f"peaks at {argmax_high:g} Hz (need 0)")
    assert ok


def test_criterion_02_spatial_reduction_bit_identical(criterion_report):
    rng = np.random.default_rng(42)
    u = rng.uniform(0.0, 60.0, size=100)
    w = rng.uniform(0.0, 40.0, size=100)
    static = stcsf(u, 0.0, VC_REF, temporal_filters=False)
    mismatches = 0
    for other_w in (w, w + 5.0, np.full(100, 33.0)):
        probed = stcsf(u, other_w, VC_REF, temporal_filters=False)
        mismatches += int(np.count_nonzero(probed != static))
    ok = mismatches == 0
    criterion_report(
        f"criterion 02 {'PASS' if ok else 'FAIL'} - unity temporal filters: "
        f"{mismatches} of 300 probes differ from the static value "
        f"(need bit-identical)")
    assert ok


def test_criterion_03_analytic_anchors(criterion_report):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    exact_pupil = pupil_diameter(256.0, 2.5)  # L*x0^2 = 1600 exactly
    units = (float(temporal_filter(0.0, 0.0077, 7)),
             float(optical_mtf(0.0, 7.31)),
             float(lateral_inhibition(0.0)))

    # oracle chain at the reference conditions, 50 significant digits
    lum, x0 = mp.mpf(20), mp.mpf("2.5")
    d = 5 - 3 * mp.tanh(mp.mpf("0.4") * mp.log(lum * x0 * x0 / 1600))
    e = mp.pi * d * d * lum / 4 * (1 - (d / mp.mpf("9.7")) ** 2
                                   + (d / mp.mpf("12.4")) ** 4)
    field = 2 * x0 / mp.sqrt(mp.pi)
    tau1 = mp.mpf("0.032") / (1 + mp.mpf("0.55")
                              * mp.log(1 + (1 + field) ** mp.mpf("0.6")
                                       * e / mp.mpf("3.5")))
    tau2 = mp.mpf("0.018") / (1 + mp.mpf("0.37")
                              * mp.log(1 + (1 + field / mp.mpf("3.2")) ** 5
                                       * e / 120))
    u = mp.mpf(2)
    sigma = mp.sqrt(mp.mpf("0.25") + (mp.mpf("0.08") * d) ** 2) / 60
    m_opt = mp.exp(-2 * (mp.pi * sigma * u) ** 2)
    f_u = 1 - mp.sqrt(1 - mp.exp(-((u / 7) ** 2)))
    spatial = 1 / (x0 * x0) + mp.mpf(1) / 144 + (u / 15) ** 2
    noise = 1 / (mp.mpf("0.03") * mp.mpf("1.285e6") * e) \
        + mp.mpf("3e-8") / (1 - f_u) ** 2
    s20 = m_opt / (3 * mp.sqrt(20 * spatial * noise))

    optics = derive_optics(VC_REF)
    pairs = (
        ("pupil", optics.pupil_mm, float(d)),
        ("illuminance", optics.retinal_troland, float(e)),
        ("tau1", optics.tau1, float(tau1)),
        ("tau2", optics.tau2, float(tau2)),
        ("S(2,0)", float(stcsf(2.0, 0.0, VC_REF)), float(s20)),
    )
    worst_name, worst = max(((name, abs(got - want) / abs(want))
                             for name, got, want in pairs),
                            key=lambda p: p[1])
    ok = (exact_pupil == 5.0 and all(v == 1.0 for v in units)
          and worst <= 1e-10)
    criterion_report(
        f"criterion 03 {'PASS' if ok else 'FAIL'} - pupil at the 1600 "
        f"cd/m2*deg2 knee = {exact_pupil} (need exactly 5), unity anchors "
        f"{units}, worst oracle error {worst:.2e} at {worst_name} "
        f"(need <= 1e-10)")
    assert ok


def test_criterion_04_acuity_falloff_polynomial(criterion_report):
    b = ACUITY_B
    direct = {}
    for alpha in (0.0, 63.5780):
        q = -1.0 / (alpha + 0.1)
        direct[alpha] = -sum(bi * q ** i for i, bi in enumerate(b))
    got_axis = float(foveal_weight(0.0, "soft"))
    got_edge = float(foveal_weight(63.5780, "soft"))
    edge_err = abs(got_edge - 0.02)
    # on axis the power-sum terms reach 1e6 and cancel to ~1, so Horner
    # and the direct sum can only be expected to agree to ~1e-9 relative
    ok = (edge_err <= 1e-3 and 0.97 <= got_axis <= 1.03
          and got_axis == pytest.approx(direct[0.0], rel=1e-9)
          and got_edge == pytest.approx(direct[63.5780], rel=1e-9))
    criterion_report(
        f"criterion 04 {'PASS' if ok else 'FAIL'} - acuity weight at "
        f"63.578 deg = {got_edge:.6f} (|err from 0.02| = {edge_err:.2e}, "
        f"need <= 1e-3), on-axis = {got_axis:.6f} (need within [0.97, 1.03])")
    assert ok


def test_criterion_05_filter_correctness(criterion_report):
    w_px, h_px, n_sl = 24, 20, 12
    ssr, rate, lum0, amp = 7.0, 25.0, 50.0, 3.0
    x = np.arange(w_px)[:, None, None]
    y = np.arange(h_px)[None, :, None]
    t = np.arange(n_sl)[None, None, :]
    k1, k2, k3 = 3, 5, 4
    phase = 2.0 * np.pi * (k1 * x / w_px + k2 * y / h_px
                           + k3 * t / n_sl) + 0.7
    perceived, = apply_stcsf(lum0 + amp * np.cos(phase), [(ssr, rate)],
                             taper=False)
    gain = float(transfer_gain(float(frequency_of_index(k1, w_px, ssr)),
                               float(frequency_of_index(k2, h_px, ssr)),
                               float(frequency_of_index(k3, n_sl, rate)),
                               perceived.vc))
    expected = amp * gain * np.cos(phase)
    cosine_err = float(np.abs(perceived.data - expected).max()
                       / np.abs(expected).max())

    rng = np.random.default_rng(77)
    contrast = taper_margins(rng.normal(size=(16, 16, 8)))
    back = np.fft.ifftn(np.fft.fftn(contrast),
                        norm="forward") / contrast.size
    round_trip_err = float(max(np.abs(back.real - contrast).max(),
                               np.abs(back.imag).max())
                           / np.abs(contrast).max())

    a = rng.normal(size=(16, 16, 8))
    b = rng.normal(size=(16, 16, 8))
    # L = 25 cd/m^2 and x0 = 16/2 = 8 deg
    small = [(2.0, 15.0)]
    lhs, = filter_contrast(1.7 * a - 0.6 * b, 25.0, small)
    rhs = 1.7 * filter_contrast(a, 25.0, small)[0] \
        - 0.6 * filter_contrast(b, 25.0, small)[0]
    linearity_err = float(np.abs(lhs - rhs).max() / np.abs(rhs).max())

    xb = np.arange(15)[:, None, None] - 7
    yb = np.arange(15)[None, :, None] - 7
    tb = np.arange(9)[None, None, :] - 4
    blob = np.exp(-(xb ** 2 + yb ** 2) / 8.0 - tb ** 2 / 4.0)
    out, = apply_stcsf(30.0 + 5.0 * blob, [(1.5, 12.0)], taper=False)
    peak = tuple(int(i) for i in
                 np.unravel_index(int(np.argmax(out.data)), out.data.shape))
    centered = peak == (7, 7, 4)

    ok = (cosine_err <= 1e-9 and round_trip_err <= 1e-9
          and linearity_err <= 1e-9 and centered)
    criterion_report(
        f"criterion 05 {'PASS' if ok else 'FAIL'} - cosine gain error "
        f"{cosine_err:.2e}, round trip {round_trip_err:.2e}, linearity "
        f"{linearity_err:.2e} (all need <= 1e-9), centered blob peak at "
        f"{peak} (need (7, 7, 4))")
    assert ok


def test_criterion_06_auc_equals_brute_force(criterion_report):
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        n0 = int(rng.integers(1, 21))
        n1 = int(rng.integers(1, 21))
        healthy = rng.integers(0, 11, size=n0) / 2.0
        lesion = rng.integers(0, 11, size=n1) / 2.0
        wins = sum(1.0 if l > h else 0.5 if l == h else 0.0
                   for h in healthy for l in lesion)
        if auc_wilcoxon(healthy, lesion) != wins / (n0 * n1):
            mismatches += 1
    ok = mismatches == 0
    criterion_report(
        f"criterion 06 {'PASS' if ok else 'FAIL'} - rank AUC vs brute-force "
        f"pair counting: {mismatches} of 1000 score sets differ "
        f"(need exact equality)")
    assert ok


def test_criterion_07_variance_estimate_tracks_monte_carlo(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    n_readers, n_per_class, separation = 5, 100, 1.1902
    labels = np.repeat([False, True], n_per_class)
    mean_aucs, estimates = [], []
    for _ in range(200):
        case = rng.normal(0.0, np.sqrt(0.5), size=2 * n_per_class)
        case[n_per_class:] += separation
        scores = (case[None, :]
                  + rng.normal(0.0, 0.1, size=(n_readers, 1))
                  + rng.normal(0.0, np.sqrt(0.5),
                               size=(n_readers, 2 * n_per_class)))
        mean_auc, variance = one_shot_mrmc(scores, labels)
        mean_aucs.append(mean_auc)
        estimates.append(variance)
    empirical = float(np.var(mean_aucs, ddof=1))
    estimate = float(np.mean(estimates))
    rel_err = abs(estimate - empirical) / empirical
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.30 and elapsed < 120.0
    criterion_report(
        f"criterion 07 {'PASS' if ok else 'FAIL'} - mean one-shot variance "
        f"{estimate:.3e} vs empirical {empirical:.3e} over 200 resims "
        f"(rel err {rel_err:.1%}, need <= 30%; mean AUC "
        f"{np.mean(mean_aucs):.3f}) in {elapsed:.0f}s (need < 120s)")
    assert ok


def test_criterion_08_browsing_speed_peak(criterion_report, trend_runs):
    verdicts = {}
    for seed in DATASET_SEEDS:
        curve = trend_runs["rate_curves"][(seed, 7.0)]
        idx = int(np.argmax(curve))
        verdicts[seed] = (RATE_GRID[idx], 0 < idx < len(RATE_GRID) - 1)
    interior = sum(ok for _, ok in verdicts.values())
    elapsed = trend_runs["ssr7_seconds"]
    peaks = {seed: rate for seed, (rate, _) in verdicts.items()}
    ok = interior >= 4 and elapsed < 1800.0
    criterion_report(
        f"criterion 08 {'PASS' if ok else 'FAIL'} - browsing-speed curve "
        f"has an interior peak in {interior}/5 seeds (need >= 4; peaks at "
        f"{peaks} slice/s) in {elapsed:.0f}s (need < 1800s)")
    assert ok, (
        f"interior browsing-speed peak in only {interior}/5 seeds "
        f"(point-estimate peaks at {peaks}; the curves keep rising to the "
        f"top of the grid and flatten out there, so the point-estimate max "
        f"lands on the 45 slice/s endpoint for most seeds: at the default "
        f"display's ~500 cd/m2 adaptation level the temporal response is "
        f"fast (tau1 ~ 6 ms) and the model's optimum sits at ~45-52 "
        f"slice/s, at or just past the grid end)")


def test_criterion_09_coarser_sampling_lowers_peak(criterion_report,
                                                   trend_runs):
    wins = {}
    for seed in DATASET_SEEDS:
        peak7 = max(trend_runs["rate_curves"][(seed, 7.0)])
        peak14 = max(trend_runs["rate_curves"][(seed, 14.0)])
        wins[seed] = (round(peak7, 4), round(peak14, 4), peak7 > peak14)
    n_wins = sum(win for _, _, win in wins.values())
    ok = n_wins >= 4
    detail = {seed: f"{p7} > {p14}" if win else f"{p7} <= {p14}"
              for seed, (p7, p14, win) in wins.items()}
    criterion_report(
        f"criterion 09 {'PASS' if ok else 'FAIL'} - peak AUC at 7 px/deg "
        f"exceeds 14 px/deg in {n_wins}/5 seeds (need >= 4): {detail}")
    assert ok


def test_criterion_10_ssr_trend_non_increasing(criterion_report, trend_runs):
    good = {}
    for seed in DATASET_SEEDS:
        curve = trend_runs["ssr_curves"][seed]
        rises = [b - a for a, b in zip(curve, curve[1:]) if b > a]
        good[seed] = (len(rises) <= 1
                      and all(r <= 0.005 for r in rises))
    n_good = sum(good.values())
    curves = {seed: tuple(round(v, 4) for v in trend_runs["ssr_curves"][seed])
              for seed in DATASET_SEEDS}
    ok = n_good >= 4
    criterion_report(
        f"criterion 10 {'PASS' if ok else 'FAIL'} - AUC non-increasing "
        f"over sampling rates {SSR_GRID} px/deg at 25 slice/s (one "
        f"inversion <= 0.005 allowed) in {n_good}/5 seeds (need >= 4): "
        f"{curves}")
    assert ok


def test_criterion_11_display_insensitivity(criterion_report, trend_runs):
    runs = trend_runs["display_runs"]
    base_auc, base_std = runs["base"]
    checks = {}
    for name in ("half_l_max", "half_contrast"):
        auc, std = runs[name]
        pooled = math.sqrt((base_std ** 2 + std ** 2) / 2.0)
        checks[name] = (abs(auc - base_auc), 2.0 * pooled)
    ok = all(delta < bound for delta, bound in checks.values())
    detail = {name: f"|dAUC| {delta:.4f} vs bound {bound:.4f}"
              for name, (delta, bound) in checks.items()}
    criterion_report(
        f"criterion 11 {'PASS' if ok else 'FAIL'} - display variants at "
        f"{runs['peak_rate']:g} slice/s move AUC less than 2x pooled "
        f"stddev: {detail}")
    assert ok


def test_criterion_12_reruns_are_byte_identical(criterion_report,
                                                trend_runs, tmp_path):
    # run A is the shared fixture's sweep; run B regenerates the dataset,
    # the reader split, and every trial from nothing but the seeds
    differing = []
    for seed in DATASET_SEEDS:
        first = emit_csv(trend_runs["ssr7_rows"][seed],
                         tmp_path / f"first_{seed}.csv").read_bytes()
        again = emit_csv(_rate_sweep(seed, ssr=7.0),
                         tmp_path / f"again_{seed}.csv").read_bytes()
        if first != again:
            differing.append(seed)
    ok = not differing
    criterion_report(
        f"criterion 12 {'PASS' if ok else 'FAIL'} - repeated "
        f"browsing-speed sweeps byte-identical for seeds {DATASET_SEEDS} "
        f"(differing: {differing or 'none'})")
    assert ok
