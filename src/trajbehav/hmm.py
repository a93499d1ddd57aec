"""Per-class Gaussian-emission hidden Markov models trained with Baum-Welch.

Classification picks the class whose model assigns the window the highest
forward log-likelihood. Emissions use diagonal covariance: 5-step sequences
cannot support a full 4x4 covariance per state. Fitting and prediction
share one batched forward-backward with per-step scaling (Rabiner 1989,
Proc. IEEE, section V.A): emissions are shifted by their per-step maximum
before exponentiation, alpha is renormalised at every step, and the
log-likelihood is the sum of the log scales plus the shifts, so a far
outlier cannot underflow to log 0.

Layout. The public functions take (N, T, D) sequences and transpose them
once; inside EM and scoring, observations are (T, D, N) and every per-state
array (log emissions, b, alpha, beta, gamma) is (T, K, N). The sequence
axis N, hundreds to thousands long, is then contiguous and innermost, so
each numpy call runs long loops over it instead of short ones over K = 7
states or D = 4 features, and each forward or backward step is one
(K, K) @ (K, N) product. The M-step sums over (T, N) per state and
builds the variances one dimension at a time, with no (N, T, K, D)
temporary.

`fit_classifier` fits HMM_STATES = 7 states per class. EM stops when an
iteration raises the training log-likelihood by less than HMM_TOL = 1e-4,
or after `max_iters` iterations (`TrainConfig.hmm_max_iters`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .rng import HMM_INIT, seeded_rng

HMM_STATES = 7
HMM_TOL = 1e-4
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
    """log N(obs | state) for every state; obs (T, D, N) -> (T, K, N).

    The quadratic term is accumulated one dimension at a time, in the order
    a sum over D would add, without a (T, K, D, N) temporary.
    """
    means, variances = model.means, model.variances
    quad = np.zeros((obs.shape[0], means.shape[0], obs.shape[2]))
    for d in range(means.shape[1]):
        diff = obs[:, d, None, :] - means[:, d, None]
        diff *= diff
        diff /= variances[:, d, None]
        quad += diff
    quad += (LOG_2PI + np.log(variances)).sum(axis=-1)[:, None]
    quad *= -0.5
    return quad


def _forward_batch(model, obs):
    """Scaled forward pass over a batch of equal-length sequences.

    obs: (T, D, N). Returns (b, alpha, scale, loglik): the emissions
    b (T, K, N), shifted per (t, n) so that the likeliest state reads 1;
    alpha (T, K, N), normalised to sum 1 at every step; the scales
    c (T, N); and the log-likelihoods (N,), the sum of log c plus the
    shifts. A sequence the model cannot emit at double precision gets a
    zero scale from that step on, alpha 0 and log-likelihood -inf.
    """
    logb = _log_emissions(model, obs)
    shift = logb.max(axis=1)
    logb -= shift[:, None]
    b = np.exp(logb, out=logb)
    t_len, n = shift.shape
    alpha = np.empty_like(b)
    scale = np.empty((t_len, n))
    a = model.initial[:, None] * b[0]
    for t in range(t_len):
        if t:
            a = model.transitions.T @ alpha[t - 1]
            a *= b[t]
        c = a.sum(axis=0)
        np.divide(a, np.where(c > 0, c, 1.0), out=alpha[t])
        scale[t] = c
    with np.errstate(divide="ignore"):
        loglik = np.log(scale).sum(axis=0) + shift.sum(axis=0)
    return b, alpha, scale, loglik


def _backward_batch(model, b, scale):
    """Scaled backward pass: beta_t = A @ (b_{t+1} * beta_{t+1}) / c_{t+1}.

    Takes the emissions and scales of `_forward_batch`, whose alpha times
    this beta is the state posterior gamma. Returns beta (T, K, N).
    """
    beta = np.empty_like(b)
    beta[-1] = 1.0
    for t in range(b.shape[0] - 2, -1, -1):
        np.matmul(model.transitions, b[t + 1] * beta[t + 1], out=beta[t])
        beta[t] /= scale[t + 1]
    return beta


def _check_sequences(seqs):
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 3:
        raise ConfigError(f"expected (N, T, D) observations, got shape {seqs.shape}")
    if not np.isfinite(seqs).all():
        raise DataError("non-finite observation values")
    return seqs


def _state_major(seqs):
    """(N, T, D) sequences as contiguous (T, D, N) observations."""
    return np.ascontiguousarray(seqs.transpose(1, 2, 0))


def _init_model(seqs, n_states, seed):
    """Seeded k-means-style means over pooled (N, T, D) observations;
    near-uniform initial/transition rows with jitter to break symmetry."""
    rng = seeded_rng(seed, HMM_INIT)
    pooled = seqs.reshape(-1, seqs.shape[-1])
    columns = pooled.T.copy()                    # (D, n_obs)
    n_obs = pooled.shape[0]
    idx = rng.choice(n_obs, size=n_states, replace=n_obs < n_states)
    centers = pooled[idx].copy()
    for _ in range(10):
        dist = np.zeros((n_states, n_obs))
        for d in range(columns.shape[0]):
            diff = columns[d] - centers[:, d, None]
            diff *= diff
            dist += diff
        assign = dist.argmin(axis=0)
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


def baum_welch_fit(sequences, max_iters, seed, n_states=HMM_STATES):
    """EM fit of a Gaussian-emission HMM on equal-length sequences.

    The training log-likelihood trace (one entry per iteration, evaluated
    before that iteration's M-step) is stored on the returned model as
    `fit_loglik`; EM guarantees it is non-decreasing up to the variance
    floor. `fit_converged` is True when HMM_TOL stopped EM and False
    when `max_iters` did. `fit_seconds` is the wall time of the fit.
    """
    t0 = time.perf_counter()
    seqs = _check_sequences(sequences)
    if seqs.shape[0] < 1:
        raise ConfigError("baum_welch_fit requires at least one sequence")
    model = _init_model(seqs, n_states, seed)
    obs = _state_major(seqs)                     # (T, D, N)
    trace = []
    converged = False
    prev_ll = -np.inf
    for _ in range(max_iters):
        b, alpha, scale, ll = _forward_batch(model, obs)
        total_ll = float(ll.sum())
        if not np.isfinite(total_ll):
            raise NumericalError(
                f"EM iteration {len(trace) + 1}: {int((~np.isfinite(ll)).sum())} "
                "sequences have zero likelihood at double precision"
            )
        trace.append(total_ll)
        if total_ll - prev_ll < HMM_TOL:
            converged = True
            break
        prev_ll = total_ll

        beta = _backward_batch(model, b, scale)
        gamma = alpha * beta                         # (T, K, N)
        # xi summed over sequences and steps: alpha_t(i) A(i, j)
        # b_{t+1}(j) beta_{t+1}(j) / c_{t+1}.
        nxt = b[1:] * beta[1:]
        nxt /= scale[1:, None]
        xi_sum = model.transitions * np.einsum("tin,tjn->ij", alpha[:-1], nxt)

        initial = gamma[0].sum(axis=1)
        initial /= initial.sum()

        trans_den = gamma[:-1].sum(axis=(0, 2))
        transitions = model.transitions.copy()
        active = trans_den > 0
        transitions[active] = xi_sum[active] / trans_den[active, None]
        transitions /= transitions.sum(axis=1, keepdims=True)

        gsum = gamma.sum(axis=(0, 2))
        means = model.means.copy()
        variances = model.variances.copy()
        occupied = gsum > 0
        new_means = np.einsum("tkn,tdn->kd", gamma, obs)
        means[occupied] = new_means[occupied] / gsum[occupied, None]
        new_vars = np.empty_like(variances)
        for d in range(obs.shape[1]):
            diff = obs[:, d, None, :] - means[:, d, None]
            diff *= diff
            new_vars[:, d] = np.einsum("tkn,tkn->k", gamma, diff)
        variances[occupied] = new_vars[occupied] / gsum[occupied, None]
        variances = np.maximum(variances, VARIANCE_FLOOR)

        model = GaussianHMM(initial, transitions, means, variances)

    model.fit_loglik = trace
    model.fit_converged = converged
    model.fit_seconds = time.perf_counter() - t0
    return model


def fit_classifier(states, labels, class_names, max_iters, seed):
    """One Baum-Welch fit per class over that class's window sequences."""
    labels = np.asarray(labels)
    models = []
    for idx, name in enumerate(class_names):
        class_seqs = states[labels == idx]
        if class_seqs.shape[0] == 0:
            raise ConfigError(f"no training sequences for class {name!r}")
        try:
            model = baum_welch_fit(class_seqs, max_iters, seed + idx)
        except NumericalError as exc:
            raise NumericalError(f"class {name!r}: {exc}") from exc
        models.append(model)
    return HMMClassifier(models=models, class_names=list(class_names))


def hmm_predict_batch(classifier, seqs):
    """Class with the highest sequence log-likelihood; ties to lowest index.
    DataError names the first window whose emissions overflow to a NaN score."""
    obs = _state_major(_check_sequences(seqs))
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        scores = np.stack([_forward_batch(m, obs)[3] for m in classifier.models], axis=1)
    bad = np.isnan(scores).any(axis=1)
    if bad.any():
        raise DataError(f"window {int(bad.argmax())} has a NaN class score")
    return np.argmax(scores, axis=1)
