"""Per-class Gaussian-emission hidden Markov models trained with Baum-Welch.

Classification picks the class whose model assigns the window the highest
forward log-likelihood. Emissions use diagonal covariance: 5-step sequences
cannot support a full 4x4 covariance per state. Fitting and prediction
share one batched forward-backward with per-step scaling (Rabiner 1989,
Proc. IEEE, section V.A): emissions are shifted by their per-step maximum
before exponentiation, alpha is renormalised at every step, and the
log-likelihood is the sum of the log scales plus the shifts, so a far
outlier cannot underflow to log 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError, StateError
from .rng import HMM_INIT, seeded_rng

VARIANCE_FLOOR = 1e-6
LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianHMM:
    initial: np.ndarray          # (K,)
    transitions: np.ndarray      # (K, K), row-stochastic
    means: np.ndarray            # (K, D)
    variances: np.ndarray        # (K, D), >= VARIANCE_FLOOR
    fit_loglik: list = field(default_factory=list, compare=False)
    fit_converged: bool = field(default=False, compare=False)
    fit_seconds: float = field(default=0.0, compare=False)

    @property
    def n_states(self):
        return self.initial.shape[0]


@dataclass
class HMMClassifier:
    models: list                 # one GaussianHMM per class
    class_names: list

    kind = "hmm"


def _log_emissions(model, obs):
    """log N(obs | state) for every state; obs (..., D) -> (..., K).

    The quadratic term is accumulated one dimension at a time, in the order
    a sum over D would add, without an (..., K, D) temporary.
    """
    quad = 0.0
    for d in range(model.means.shape[1]):
        diff = obs[..., d, None] - model.means[:, d]
        quad = quad + diff * diff / model.variances[:, d]
    norm = (LOG_2PI + np.log(model.variances)).sum(axis=-1)
    return -0.5 * (norm + quad)


def _forward_batch(model, seqs):
    """Scaled forward pass over a batch of equal-length sequences.

    seqs: (N, T, D). Returns (b, alpha, scale, loglik): the emissions
    b (N, T, K), shifted per (n, t) so that the likeliest state reads 1;
    alpha (N, T, K), normalised to sum 1 at every step; the scales
    c (N, T); and the log-likelihoods (N,), the sum of log c plus the
    shifts. A sequence the model cannot emit at double precision gets a
    zero scale from that step on, alpha 0 and log-likelihood -inf.
    """
    logb = _log_emissions(model, seqs)
    shift = logb.max(axis=2, keepdims=True)
    b = np.exp(logb - shift)
    n, t_len, k = b.shape
    alpha = np.empty((n, t_len, k))
    scale = np.empty((n, t_len))
    a = model.initial * b[:, 0]
    for t in range(t_len):
        if t:
            a = (alpha[:, t - 1] @ model.transitions) * b[:, t]
        c = a.sum(axis=1)
        alpha[:, t] = a / np.where(c > 0, c, 1.0)[:, None]
        scale[:, t] = c
    with np.errstate(divide="ignore"):
        loglik = np.log(scale).sum(axis=1) + shift.sum(axis=(1, 2))
    return b, alpha, scale, loglik


def _backward_batch(model, b, scale):
    """Scaled backward pass: beta_t = ((b_{t+1} * beta_{t+1}) @ A^T) / c_{t+1}.

    Takes the emissions and scales of `_forward_batch`, whose alpha times
    this beta is the state posterior gamma. Returns beta (N, T, K).
    """
    beta = np.empty_like(b)
    beta[:, -1] = 1.0
    for t in range(b.shape[1] - 2, -1, -1):
        beta[:, t] = (b[:, t + 1] * beta[:, t + 1]) @ model.transitions.T
        beta[:, t] /= scale[:, t + 1, None]
    return beta


def _check_sequences(seqs):
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim == 2:
        seqs = seqs[None]
    if seqs.ndim != 3:
        raise ConfigError(f"expected (N, T, D) observations, got shape {seqs.shape}")
    if not np.isfinite(seqs).all():
        raise DataError("non-finite observation values")
    return seqs


def forward_loglik_batch(model, seqs):
    """Log-likelihood of each observation sequence; seqs (N, T, D) or (T, D)."""
    return _forward_batch(model, _check_sequences(seqs))[3]


def _init_model(seqs, n_states, seed):
    """Seeded k-means-style means over pooled observations; near-uniform
    initial/transition rows with jitter to break symmetry."""
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
    variances = np.maximum(pooled.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(variances, (n_states, 1))
    initial = 1.0 + rng.uniform(0.0, 0.05, size=n_states)
    initial /= initial.sum()
    transitions = 1.0 + rng.uniform(0.0, 0.05, size=(n_states, n_states))
    transitions /= transitions.sum(axis=1, keepdims=True)
    return GaussianHMM(initial, transitions, centers, variances)


def baum_welch_fit(sequences, n_states=7, max_iters=100, tol=1e-4, seed=0):
    """EM fit of a Gaussian-emission HMM on equal-length sequences.

    The training log-likelihood trace (one entry per iteration, evaluated
    before that iteration's M-step) is stored on the returned model as
    `fit_loglik`; EM guarantees it is non-decreasing up to the variance
    floor. `fit_converged` is True when the tolerance stopped EM and False
    when `max_iters` did. `fit_seconds` is the wall time of the fit.
    """
    t0 = time.perf_counter()
    seqs = _check_sequences(sequences)
    if seqs.shape[0] < 1:
        raise ConfigError("baum_welch_fit requires at least one sequence")
    model = _init_model(seqs, n_states, seed)
    trace = []
    converged = False
    prev_ll = -np.inf
    for _ in range(max_iters):
        b, alpha, scale, ll = _forward_batch(model, seqs)
        total_ll = float(ll.sum())
        if not np.isfinite(total_ll):
            raise NumericalError(
                f"EM iteration {len(trace) + 1}: {int((~np.isfinite(ll)).sum())} "
                "sequences have zero likelihood at double precision"
            )
        trace.append(total_ll)
        if total_ll - prev_ll < tol:
            converged = True
            break
        prev_ll = total_ll

        beta = _backward_batch(model, b, scale)
        gamma = alpha * beta                         # (N, T, K)
        # xi summed over sequences and steps: alpha_t(i) A(i, j)
        # b_{t+1}(j) beta_{t+1}(j) / c_{t+1}, one GEMM over the N(T-1) steps.
        nxt = b[:, 1:] * beta[:, 1:] / scale[:, 1:, None]
        xi_sum = model.transitions * (
            alpha[:, :-1].reshape(-1, n_states).T @ nxt.reshape(-1, n_states)
        )

        initial = gamma[:, 0].sum(axis=0)
        initial /= initial.sum()

        trans_den = gamma[:, :-1].sum(axis=(0, 1))
        transitions = model.transitions.copy()
        active = trans_den > 0
        transitions[active] = xi_sum[active] / trans_den[active, None]
        transitions /= transitions.sum(axis=1, keepdims=True)

        gsum = gamma.sum(axis=(0, 1))
        means = model.means.copy()
        variances = model.variances.copy()
        occupied = gsum > 0
        new_means = np.einsum("ntk,ntd->kd", gamma, seqs)
        means[occupied] = new_means[occupied] / gsum[occupied, None]
        diff = seqs[:, :, None, :] - means[None, None]
        new_vars = np.einsum("ntk,ntkd->kd", gamma, diff * diff)
        variances[occupied] = new_vars[occupied] / gsum[occupied, None]
        variances = np.maximum(variances, VARIANCE_FLOOR)

        model = GaussianHMM(initial, transitions, means, variances)

    model.fit_loglik = trace
    model.fit_converged = converged
    model.fit_seconds = time.perf_counter() - t0
    return model


def fit_classifier(states, labels, class_names, n_states=7, max_iters=100,
                   tol=1e-4, seed=0):
    """One Baum-Welch fit per class over that class's window sequences."""
    labels = np.asarray(labels)
    models = []
    for idx, name in enumerate(class_names):
        class_seqs = states[labels == idx]
        if class_seqs.shape[0] == 0:
            raise ConfigError(f"no training sequences for class {name!r}")
        models.append(
            baum_welch_fit(
                class_seqs, n_states=n_states, max_iters=max_iters, tol=tol,
                seed=seed + idx,
            )
        )
    return HMMClassifier(models=models, class_names=list(class_names))


def hmm_predict_batch(classifier, seqs):
    """Class with the highest sequence log-likelihood; ties to lowest index."""
    if any(m is None for m in classifier.models):
        raise StateError("classifier has untrained class models")
    seqs = _check_sequences(seqs)
    scores = np.stack(
        [_forward_batch(m, seqs)[3] for m in classifier.models], axis=1
    )
    return np.argmax(scores, axis=1)
