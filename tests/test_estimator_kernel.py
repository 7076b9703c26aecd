"""Property tests for the batched estimator kernel, unseen_estimates."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supportsize.estimators import (
    ESTIMATOR_IDS,
    UndefinedEstimateError,
    chao_unseen,
    chebyshev_coefficients,
    chebyshev_support,
    modified_chao_unseen,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from supportsize.poisson_model import Fingerprint

fingerprints = st.dictionaries(
    st.integers(1, 40), st.integers(0, 60), max_size=12
).map(lambda phi: Fingerprint(phi=phi))
batches = st.lists(fingerprints, min_size=1, max_size=8)
ks = st.integers(2, 10**6)
# n as a multiple of k: the Chebyshev coefficients alternate in sign for
# n/k below about 4 and collapse to the plug-in above about ln(k)/2
ratios = st.floats(0.05, 8.0)


def batch_arrays(fps, k):
    """Truncated occupancy matrix and seen counts of a list of fingerprints."""
    width = occupancy_width(k)
    occupancy = np.zeros((len(fps), width), dtype=np.int64)
    for t, fp in enumerate(fps):
        for i, count in fp.phi.items():
            if i < width:
                occupancy[t, i] = count
    seen = np.array([sum(fp.phi.values()) for fp in fps])
    return occupancy, seen


@settings(deadline=None)
@given(batches, ks, ratios)
def test_batched_call_equals_one_row_calls(fps, k, ratio):
    n = ratio * k
    occupancy, seen = batch_arrays(fps, k)
    for estimator_id in ESTIMATOR_IDS:
        batched = unseen_estimates(occupancy, seen, estimator_id, k=k, n=n)
        assert batched.shape == (len(fps),)
        for t, fp in enumerate(fps):
            try:
                value = support_estimate(fp, estimator_id, k=k, n=n).value
            except UndefinedEstimateError:
                assert math.isnan(batched[t])
                continue
            assert value == seen[t] + batched[t]
            if estimator_id == "chebyshev":
                assert chebyshev_support(fp, k, n).value == value


@given(batches)
def test_closed_forms_and_undefined_chao(fps):
    occupancy, seen = batch_arrays(fps, 2)
    plugin = unseen_estimates(occupancy, seen, "plugin")
    chao = unseen_estimates(occupancy, seen, "chao")
    modified = unseen_estimates(occupancy, seen, "modified_chao")
    for t, fp in enumerate(fps):
        phi1, phi2 = fp.phi.get(1, 0), fp.phi.get(2, 0)
        assert seen[t] + plugin[t] == sum(fp.phi.values())
        assert math.isnan(chao[t]) == (phi2 == 0)
        if phi2:
            assert math.isclose(chao[t], phi1**2 / (2 * phi2), rel_tol=1e-12)
            assert chao_unseen(fp) == chao[t]
        assert math.isclose(modified[t], phi1**2 / (2 * (phi2 + 1)),
                            rel_tol=1e-12)
        assert modified_chao_unseen(fp) == modified[t]


def reference_chebyshev_support(fp, k, n):
    """The linear estimator sum_i g_i phi_i (g_i = 1 beyond L), clamped at 0,
    summed directly over the whole fingerprint."""
    g = chebyshev_coefficients(k, float(n))
    terms = [(g[i - 1] if i <= len(g) else 1.0) * count
             for i, count in fp.phi.items()]
    return max(math.fsum(terms), 0.0), math.fsum(abs(x) for x in terms)


@settings(deadline=None)
@given(batches, ks, ratios)
# g_2 < 0 at k = 100, n = 5, so this fingerprint needs the clamp
@example([Fingerprint(phi={2: 10}), Fingerprint(phi={1: 1, 2: 3})], 100, 0.05)
def test_chebyshev_is_clamped_linear_estimator(fps, k, ratio):
    n = ratio * k
    occupancy, seen = batch_arrays(fps, k)
    unseen = unseen_estimates(occupancy, seen, "chebyshev", k=k, n=n)
    for t, fp in enumerate(fps):
        value = chebyshev_support(fp, k, n).value
        assert value >= 0 and seen[t] + unseen[t] >= 0
        expected, scale = reference_chebyshev_support(fp, k, n)
        # the kernel sums (g_i - 1) phi_i and adds the plug-in count, so it
        # may round differently from the direct sum, by a few ulps of the
        # largest partial sum
        assert abs(value - expected) <= 1e-12 * max(scale, seen[t], 1.0)
