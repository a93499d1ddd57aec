"""HMM forward/Baum-Welch against enumeration, log-space and generator-recovery oracles."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbehav import hmm
from trajbehav.errors import ConfigError, DataError, NumericalError
from trajbehav.rng import HMM_INIT, seeded_rng
from trajbehav.hmm import (
    HMM_TOL,
    VARIANCE_FLOOR,
    GaussianHMM,
    HMMClassifier,
    LOG_2PI,
    _check_sequences,
    _forward_batch,
    _init_model,
    _state_major,
    baum_welch_fit,
    fit_classifier,
    hmm_predict_batch,
)


def forward_loglik_batch(model, seqs):
    """Log-likelihood of each (N, T, D) observation sequence, as
    hmm_predict_batch scores it."""
    return _forward_batch(model, _state_major(_check_sequences(seqs)))[3]


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - safe).sum(axis=axis)) + np.squeeze(safe, axis=axis)
    return out


def log_density(model, seqs):
    """Diagonal Gaussian log N(x | state) of (..., T, D) observations ->
    (..., T, K): a per-dimension term summed over D, independent of the
    package's state-major emission code."""
    x = np.asarray(seqs)[..., None, :]
    per_dim = -0.5 * (LOG_2PI + np.log(model.variances)
                      + (x - model.means) ** 2 / model.variances)
    return per_dim.sum(axis=-1)


def log_forward(model, seqs):
    """Log-space forward pass: (log_alpha (N, T, K), loglik (N,))."""
    logb = log_density(model, seqs)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.initial)
        log_a = np.log(model.transitions)
    n, t_len, k = logb.shape
    log_alpha = np.empty((n, t_len, k))
    log_alpha[:, 0] = log_pi + logb[:, 0]
    for t in range(1, t_len):
        log_alpha[:, t] = (
            _logsumexp(log_alpha[:, t - 1][:, :, None] + log_a[None], axis=1)
            + logb[:, t]
        )
    return log_alpha, _logsumexp(log_alpha[:, -1], axis=1)


def log_backward(model, logb):
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transitions)
    n, t_len, k = logb.shape
    log_beta = np.zeros((n, t_len, k))
    for t in range(t_len - 2, -1, -1):
        log_beta[:, t] = _logsumexp(
            log_a[None] + (logb[:, t + 1] + log_beta[:, t + 1])[:, None, :], axis=2
        )
    return log_beta


def log_space_em(seqs, n_states, max_iters, seed):
    """Baum-Welch with a log-space E-step and a per-step xi loop; returns the trace."""
    model = _init_model(seqs, n_states, seed)
    trace = []
    prev_ll = -np.inf
    for _ in range(max_iters):
        logb = log_density(model, seqs)
        log_alpha, ll = log_forward(model, seqs)
        log_beta = log_backward(model, logb)
        trace.append(float(ll.sum()))
        if trace[-1] - prev_ll < HMM_TOL:
            break
        prev_ll = trace[-1]
        gamma = np.exp(log_alpha + log_beta - ll[:, None, None])
        with np.errstate(divide="ignore"):
            log_a = np.log(model.transitions)
        xi_sum = np.zeros((n_states, n_states))
        for t in range(seqs.shape[1] - 1):
            xi_sum += np.exp(
                log_alpha[:, t][:, :, None] + log_a[None]
                + (logb[:, t + 1] + log_beta[:, t + 1])[:, None, :]
                - ll[:, None, None]
            ).sum(axis=0)
        initial = gamma[:, 0].sum(axis=0)
        initial /= initial.sum()
        # States with no posterior mass keep their parameters.
        transitions = model.transitions.copy()
        trans_den = gamma[:, :-1].sum(axis=(0, 1))
        active = trans_den > 0
        transitions[active] = xi_sum[active] / trans_den[active, None]
        transitions /= transitions.sum(axis=1, keepdims=True)
        gsum = gamma.sum(axis=(0, 1))
        occupied = gsum > 0
        means, variances = model.means.copy(), model.variances.copy()
        means[occupied] = (np.einsum("ntk,ntd->kd", gamma, seqs)[occupied]
                           / gsum[occupied, None])
        diff = seqs[:, :, None, :] - means[None, None]
        variances[occupied] = (np.einsum("ntk,ntkd->kd", gamma, diff * diff)[occupied]
                               / gsum[occupied, None])
        model = GaussianHMM(initial, transitions, means,
                            np.maximum(variances, VARIANCE_FLOOR))
    return trace


def loglik(model, seq):
    return float(forward_loglik_batch(model, seq[None])[0])


def random_model(rng, k, d=4):
    initial = rng.dirichlet(np.ones(k))
    transitions = rng.dirichlet(np.ones(k), size=k)
    means = rng.normal(size=(k, d))
    variances = rng.uniform(0.2, 1.5, size=(k, d))
    return GaussianHMM(initial, transitions, means, variances)


def enumerate_loglik(model, seq):
    """Brute force over all K^T hidden state paths."""
    k = model.n_states
    t_len = seq.shape[0]
    logb = log_density(model, seq)
    total = -np.inf
    for path in product(range(k), repeat=t_len):
        lp = np.log(model.initial[path[0]]) + logb[0, path[0]]
        for t in range(1, t_len):
            lp += np.log(model.transitions[path[t - 1], path[t]]) + logb[t, path[t]]
        total = np.logaddexp(total, lp)
    return total


def sample_sequences(rng, model, n, t_len):
    d = model.means.shape[1]
    seqs = np.zeros((n, t_len, d))
    for i in range(n):
        s = rng.choice(model.n_states, p=model.initial)
        for t in range(t_len):
            seqs[i, t] = rng.normal(model.means[s], np.sqrt(model.variances[s]))
            s = rng.choice(model.n_states, p=model.transitions[s])
    return seqs


class TestForward:
    def test_single_state_closed_form(self, rng):
        m = GaussianHMM(
            np.array([1.0]), np.array([[1.0]]),
            rng.normal(size=(1, 4)), rng.uniform(0.3, 2.0, size=(1, 4)),
        )
        seq = rng.normal(size=(5, 4))
        expect = 0.0
        for t in range(5):
            expect += (
                -0.5 * (np.log(2 * np.pi * m.variances[0])
                        + (seq[t] - m.means[0]) ** 2 / m.variances[0])
            ).sum()
        assert abs(loglik(m, seq) - expect) < 1e-10

    def test_two_state_two_step_enumeration(self, rng):
        m = random_model(rng, 2)
        seq = rng.normal(size=(2, 4))
        assert abs(loglik(m, seq) - enumerate_loglik(m, seq)) < 1e-10

    def test_enumeration_up_to_four_states(self):
        for k in (2, 3, 4):
            for trial in range(10):
                r = np.random.default_rng(100 * k + trial)
                m = random_model(r, k)
                seq = r.normal(size=(5, 4))
                assert abs(loglik(m, seq) - enumerate_loglik(m, seq)) < 1e-8

    def test_scaled_equals_log_space(self):
        for trial in range(50):
            r = np.random.default_rng(trial)
            m = random_model(r, int(r.integers(1, 6)))
            seq = r.normal(size=(5, 4))
            assert abs(loglik(m, seq) - log_forward(m, seq[None])[1][0]) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 7), t_len=st.integers(1, 6), n=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_log_space_oracle(self, k, t_len, n, seed):
        r = np.random.default_rng(seed)
        m = random_model(r, k)
        seqs = r.normal(scale=2.0, size=(n, t_len, 4))
        expect = log_forward(m, seqs)[1]
        got = forward_loglik_batch(m, seqs)
        assert np.allclose(got, expect, rtol=1e-9, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 5), t_len=st.integers(1, 6), n=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_per_sequence_and_log_space(self, k, t_len, n, seed):
        # The state-major layout mixes no sequence into another: each row of
        # a batch scores as it does alone, and as the log-space oracle does.
        r = np.random.default_rng(seed)
        m = random_model(r, k)
        seqs = r.normal(scale=2.0, size=(n, t_len, 4))
        got = forward_loglik_batch(m, seqs)
        alone = np.array([loglik(m, s) for s in seqs])
        assert got.shape == (n,)
        assert np.allclose(got, alone, rtol=1e-12, atol=0.0)
        assert np.allclose(got, log_forward(m, seqs)[1], rtol=1e-9, atol=0.0)

    def test_far_outlier_under_floor_variances(self):
        # Three states within 1 sigma of each other at the variance floor; one
        # observation 50 sigma from all of them. Unshifted emissions would
        # underflow to 0 (log-likelihood -inf) and raise here.
        sigma = np.sqrt(VARIANCE_FLOOR)
        m = GaussianHMM(
            np.array([0.5, 0.3, 0.2]),
            np.array([[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]),
            np.array([[0.0] * 4, [sigma] * 4, [-sigma] * 4]),
            np.full((3, 4), VARIANCE_FLOOR),
        )
        seq = np.zeros((5, 4))
        seq[2] = 50 * sigma
        with np.errstate(all="raise"):
            got = loglik(m, seq)
        expect = log_forward(m, seq[None])[1][0]
        assert np.isfinite(got) and expect < -1000
        assert abs(got - expect) <= 1e-9 * abs(expect)

    def test_impossible_sequence_scores_minus_inf(self):
        # State 1 is unreachable and state 0's emission underflows next to
        # it: the scaled pass gives -inf, never nan, and loses the argmax.
        sigma = np.sqrt(VARIANCE_FLOOR)
        stuck = GaussianHMM(np.array([1.0, 0.0]), np.eye(2),
                            np.array([[0.0] * 4, [100 * sigma] * 4]),
                            np.full((2, 4), VARIANCE_FLOOR))
        other = GaussianHMM(np.array([1.0]), np.array([[1.0]]),
                            np.full((1, 4), 5.0), np.ones((1, 4)))
        seqs = np.zeros((2, 3, 4))
        seqs[1, 1] = 100 * sigma
        with np.errstate(all="raise", under="ignore"):
            ll = forward_loglik_batch(stuck, seqs)
        assert np.isfinite(ll[0]) and ll[1] == -np.inf
        clf = HMMClassifier(models=[stuck, other], class_names=["A", "B"])
        assert list(hmm_predict_batch(clf, seqs)) == [0, 1]

    def test_state_relabeling_invariance(self, rng):
        m = random_model(rng, 4)
        seq = rng.normal(size=(5, 4))
        base = loglik(m, seq)
        for perm in permutations(range(4)):
            p = list(perm)
            permuted = GaussianHMM(
                m.initial[p], m.transitions[np.ix_(p, p)], m.means[p],
                m.variances[p],
            )
            assert abs(loglik(permuted, seq) - base) < 1e-10

    def test_non_finite_observations_rejected(self, rng):
        m = random_model(rng, 2)
        seq = rng.normal(size=(5, 4))
        seq[2, 1] = np.nan
        with pytest.raises(DataError):
            loglik(m, seq)

    def test_single_sequence_needs_a_batch_axis(self, rng):
        m = random_model(rng, 2)
        with pytest.raises(ConfigError, match=r"expected \(N, T, D\) observations, "
                                              r"got shape \(5, 4\)"):
            forward_loglik_batch(m, rng.normal(size=(5, 4)))

    def test_batch_matches_single(self, rng):
        m = random_model(rng, 3)
        seqs = rng.normal(size=(6, 5, 4))
        batch = forward_loglik_batch(m, seqs)
        for i in range(6):
            assert abs(batch[i] - loglik(m, seqs[i])) < 1e-12


def reference_init(seqs, n_states, seed):
    """The k-means initialisation as it was written over an (n_obs, K, D)
    distance temporary; the state-major one must give the same bits."""
    rng = seeded_rng(seed, HMM_INIT)
    pooled = seqs.reshape(-1, seqs.shape[-1])
    n_obs = pooled.shape[0]
    idx = rng.choice(n_obs, size=n_states, replace=n_obs < n_states)
    centers = pooled[idx].copy()
    for _ in range(10):
        dist = ((pooled[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        for k in range(n_states):
            members = pooled[assign == k]
            if len(members):
                centers[k] = members.mean(axis=0)
    initial = 1.0 + rng.uniform(0.0, 0.05, size=n_states)
    initial /= initial.sum()
    transitions = 1.0 + rng.uniform(0.0, 0.05, size=(n_states, n_states))
    transitions /= transitions.sum(axis=1, keepdims=True)
    return centers, initial, transitions


class TestInit:
    @pytest.mark.parametrize("n, t_len, k, seed, edit", [
        (1, 5, 7, 0, None),       # n_obs 5 < K: sampled with replacement
        (1, 1, 3, 1, None),       # n_obs 1 < K
        (2, 5, 7, 2, np.round),   # tied distances
        (40, 5, 7, 3, None),
        (40, 5, 3, 4, np.round),
        (300, 5, 7, 6, lambda x: x + 1e8),  # distances far below the values
        (921, 5, 7, 5, None),
    ])
    def test_centres_bit_identical_to_reference(self, n, t_len, k, seed, edit):
        r = np.random.default_rng(seed)
        seqs = r.normal(size=(n, t_len, 4)) + 2.0 * r.normal(size=(n, 1, 4))
        if edit is not None:
            seqs = edit(seqs)
        got = _init_model(seqs, k, seed)
        centers, initial, transitions = reference_init(seqs, k, seed)
        assert np.array_equal(got.means, centers)
        assert np.array_equal(got.initial, initial)
        assert np.array_equal(got.transitions, transitions)


class TestBaumWelch:
    def test_em_trace_non_decreasing_random_data(self):
        for trial in range(20):
            r = np.random.default_rng(trial)
            seqs = r.normal(size=(30, 5, 4)) + r.normal(size=(30, 1, 4))
            model = baum_welch_fit(seqs, n_states=3, max_iters=25, seed=trial)
            trace = np.array(model.fit_loglik)
            assert (np.diff(trace) >= -1e-8).all(), f"trial {trial}"

    def test_stochasticity_preserved(self, rng):
        seqs = rng.normal(size=(40, 5, 4))
        model = baum_welch_fit(seqs, n_states=4, max_iters=15, seed=0)
        assert abs(model.initial.sum() - 1.0) < 1e-9
        assert np.abs(model.transitions.sum(axis=1) - 1.0).max() < 1e-9
        assert (model.variances >= 1e-6).all()

    def test_two_state_generator_recovery(self):
        gen = GaussianHMM(
            np.array([0.6, 0.4]),
            np.array([[0.85, 0.15], [0.25, 0.75]]),
            np.array([[0.0] * 4, [3.0] * 4]),
            np.full((2, 4), 0.25),
        )
        rng = np.random.default_rng(11)
        seqs = sample_sequences(rng, gen, 2000, 5)
        fit = baum_welch_fit(seqs, max_iters=100, seed=3, n_states=2)
        best = min(
            np.abs(fit.transitions[np.ix_(p, p)] - gen.transitions).max()
            for p in ([0, 1], [1, 0])
        )
        assert best < 0.1

    def test_degenerate_repeated_observation(self):
        seqs = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (12, 5, 1))
        model = baum_welch_fit(seqs, n_states=3, max_iters=40, seed=1)
        assert np.allclose(model.variances, 1e-6)
        assert np.abs(model.means - np.array([1.0, -2.0, 0.5, 3.0])).max() < 1e-6

    def test_deterministic_given_seed(self, rng):
        seqs = rng.normal(size=(25, 5, 4))
        a = baum_welch_fit(seqs, n_states=3, max_iters=10, seed=5)
        b = baum_welch_fit(seqs, n_states=3, max_iters=10, seed=5)
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.means, b.means)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            baum_welch_fit(np.zeros((0, 5, 4)), max_iters=10, seed=0, n_states=2)

    @pytest.mark.parametrize("n, seed", [(921, 1), (40, 2), (3, 3)])
    def test_trace_matches_log_space_em(self, n, seed):
        r = np.random.default_rng(seed)
        seqs = r.normal(size=(n, 5, 4)) + 2.0 * r.normal(size=(n, 1, 4))
        fit = baum_welch_fit(seqs, n_states=7, max_iters=40, seed=seed)
        expect = log_space_em(seqs, 7, 40, seed=seed)
        assert len(fit.fit_loglik) == len(expect)
        assert np.allclose(fit.fit_loglik, expect, rtol=1e-9, atol=0.0)

    def test_converged_flag(self, rng):
        seqs = rng.normal(size=(40, 5, 4))
        capped = baum_welch_fit(seqs, n_states=3, max_iters=2, seed=0)
        assert len(capped.fit_loglik) == 2 and not capped.fit_converged
        done = baum_welch_fit(seqs, n_states=3, max_iters=500, seed=0)
        assert len(done.fit_loglik) < 500 and done.fit_converged
        assert done.fit_loglik[-1] - done.fit_loglik[-2] < 1e-4

    def test_zero_likelihood_sequence_raises(self, rng, monkeypatch):
        stuck = GaussianHMM(np.array([1.0, 0.0]), np.eye(2),
                            np.array([[0.0] * 4, [0.1] * 4]),
                            np.full((2, 4), VARIANCE_FLOOR))
        monkeypatch.setattr(hmm, "_init_model", lambda seqs, k, seed: stuck)
        seqs = np.zeros((3, 5, 4))
        seqs[2, 3] = 0.1
        with pytest.raises(NumericalError, match="1 sequences"):
            baum_welch_fit(seqs, max_iters=10, seed=0, n_states=2)


class TestClassifier:
    def test_numerical_error_names_the_class(self, monkeypatch):
        stuck = GaussianHMM(np.array([1.0, 0.0]), np.eye(2),
                            np.array([[0.0] * 4, [0.1] * 4]),
                            np.full((2, 4), VARIANCE_FLOOR))
        monkeypatch.setattr(hmm, "_init_model", lambda seqs, k, seed: stuck)
        states = np.zeros((6, 5, 4))
        states[4, 3] = 0.1
        labels = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(NumericalError) as info:
            fit_classifier(states, labels, ["SA", "USD"], max_iters=10, seed=0)
        assert str(info.value).startswith(
            "class 'USD': EM iteration 1: 1 sequences have zero likelihood")
        assert info.value.exit_code == 4

    def test_well_separated_single_state_models(self, rng):
        m_a = GaussianHMM(np.array([1.0]), np.array([[1.0]]),
                          np.zeros((1, 4)), np.full((1, 4), 0.2))
        m_b = GaussianHMM(np.array([1.0]), np.array([[1.0]]),
                          np.full((1, 4), 5.0), np.full((1, 4), 0.2))
        clf = HMMClassifier(models=[m_a, m_b], class_names=["A", "B"])
        seq = rng.normal(size=(5, 4)) * 0.3
        assert list(hmm_predict_batch(clf, np.stack([seq, seq + 5.0]))) == [0, 1]

    def test_overflowing_window_raises_naming_it(self, rng):
        # A finite coordinate of 1e300 overflows every state's emission, so
        # its score is NaN: an error (exit 3), not a silent class 0.
        clf = HMMClassifier(models=[random_model(rng, 2), random_model(rng, 3)],
                            class_names=["A", "B"])
        seqs = rng.normal(size=(4, 5, 4))
        seqs[2, 1, 0] = 1e300
        with pytest.raises(DataError, match="window 2 has a NaN class score") as info:
            hmm_predict_batch(clf, seqs)
        assert info.value.exit_code == 3

    def test_equal_models_tie_to_class_zero(self, rng):
        m = random_model(rng, 2)
        clf = HMMClassifier(models=[m, m, m], class_names=["A", "B", "C"])
        assert list(hmm_predict_batch(clf, rng.normal(size=(4, 5, 4)))) == [0] * 4

    def test_synthetic_three_class_accuracy(self):
        rng = np.random.default_rng(21)
        gens = [
            GaussianHMM(np.array([1.0]), np.array([[1.0]]),
                        np.full((1, 4), c * 2.5), np.full((1, 4), 0.4))
            for c in range(3)
        ]
        train = [sample_sequences(rng, g, 120, 5) for g in gens]
        states = np.concatenate(train)
        labels = np.repeat(np.arange(3), 120)
        clf = fit_classifier(states, labels, ["A", "B", "C"], max_iters=30, seed=0)
        test = np.concatenate([sample_sequences(rng, g, 40, 5) for g in gens])
        test_labels = np.repeat(np.arange(3), 40)
        preds = hmm_predict_batch(clf, test)
        assert (preds == test_labels).mean() >= 0.9
