"""Marked event-sequence model: type embedding, gap-driven selective-SSM
stack, conditional intensities, log-likelihood, and next-event heads.

The likelihood of a sequence decomposes into an event term (log intensity of
the observed type at each event) minus the integral of the total intensity
over the observed window. The integral is estimated by Monte Carlo during
training and by deterministic trapezoid quadrature for reporting.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .ssm import MambaBlock, linear_init


@dataclass
class MhpConfig:
    """Architecture and objective settings; defaults follow the reference setup."""

    d_model: int = 64
    d_state: int = 16
    d_conv: int = 4
    expand: int = 2
    n_layers: int = 4
    K: int = 5
    mlp_hidden: int = 0          # 0 -> use d_model
    mc_samples: int = 100
    event_loss_weight: float = 1.0
    time_loss_weight: float = 1e-4
    loglik_mode: str = "marked"  # "marked" or "total"
    delta_transform: str = "softplus_clamp"  # or "raw"
    delta_clamp_min: float = 1e-6
    delta_clamp_max: float = 1e4

    def __post_init__(self):
        for name in ("d_model", "d_state", "d_conv", "expand", "n_layers", "K", "mc_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.mlp_hidden < 0:
            raise ValueError("config field mlp_hidden must be >= 0")
        if not 0.0 < self.delta_clamp_min <= self.delta_clamp_max:
            raise ValueError("delta clamp bounds must satisfy "
                             "0 < delta_clamp_min <= delta_clamp_max")
        if self.loglik_mode not in ("marked", "total"):
            raise ValueError(f"unknown loglik_mode {self.loglik_mode!r}")
        if self.delta_transform not in ("softplus_clamp", "raw"):
            raise ValueError(f"unknown delta_transform {self.delta_transform!r}")

    @property
    def d_inner(self):
        return self.expand * self.d_model

    @property
    def mlp_width(self):
        return self.mlp_hidden if self.mlp_hidden else self.d_model

    def to_dict(self):
        return asdict(self)


def raw_event_deltas(timestamps):
    """Inter-event gaps with the first gap taken as the first timestamp."""
    t = np.asarray(timestamps, dtype=np.float64)
    return np.concatenate([t[:1], np.diff(t)])


def transform_deltas(raw, cfg):
    """Gap transform guarding the scan against zero/negative steps."""
    if cfg.delta_transform == "raw":
        return np.asarray(raw, dtype=np.float64)
    sp = np.logaddexp(0.0, raw)  # softplus
    return np.clip(sp, cfg.delta_clamp_min, cfg.delta_clamp_max)


def sequence_seed(base_seed, seq):
    """Stable per-sequence seed: depends only on base seed and event content,
    so batched and unbatched passes draw identical Monte Carlo points."""
    h = hashlib.blake2b(digest_size=8)
    h.update(np.int64(base_seed).tobytes())
    h.update(np.ascontiguousarray(seq.timestamps).tobytes())
    h.update(np.ascontiguousarray(seq.types).tobytes())
    return int.from_bytes(h.digest(), "little")


class MlpHead:
    """Two-layer MLP applied position-wise after the encoder stack."""

    def __init__(self, d_model, hidden, rng):
        self.W1 = Parameter(linear_init(rng, d_model, hidden), "W1")
        self.b1 = Parameter(np.zeros(hidden), "b1")
        self.W2 = Parameter(linear_init(rng, hidden, d_model), "W2")
        self.b2 = Parameter(np.zeros(d_model), "b2")

    def named_parameters(self, prefix=""):
        return [(prefix + "W1", self.W1), (prefix + "b1", self.b1),
                (prefix + "W2", self.W2), (prefix + "b2", self.b2)]

    def __call__(self, x):
        h = ag.silu(ag.add(ag.matmul(x, self.W1), self.b1))
        return ag.add(ag.matmul(h, self.W2), self.b2)


class IntensityHead:
    """Per-type conditional intensity parameters.

    lambda_k(t) = softplus_{beta_k}(alpha_k * (t - t_j) + w_k . h(t_j) + b_k),
    with the softplus scale kept positive by storing its log.
    """

    def __init__(self, K, d_model, rng):
        self.alpha = Parameter(np.zeros(K), "alpha")
        self.W = Parameter(linear_init(rng, d_model, K).T, "W")  # [K, d_model]
        self.b = Parameter(np.zeros(K), "b")
        self.log_beta = Parameter(np.zeros(K), "log_beta")

    def named_parameters(self, prefix=""):
        return [(prefix + "alpha", self.alpha), (prefix + "W", self.W),
                (prefix + "b", self.b), (prefix + "log_beta", self.log_beta)]

    def base_scores(self, hidden):
        """w_k . h + b_k for every (position, type) pair -> [L, K]."""
        return ag.add(ag.matmul(hidden, ag.transpose(self.W)), self.b)

    def intensities(self, offsets, scores):
        """Intensity at offsets past the interval start.

        offsets: constant array broadcastable against scores' leading shape,
        e.g. [L] or [L, S]; scores: [L, K] tensor of base scores. Returns a
        tensor of shape offsets.shape + (K,).
        """
        off = np.asarray(offsets, dtype=np.float64)
        off_t = Tensor(off[..., None])
        sc = scores if off.ndim == 1 else ag.reshape(
            scores, (scores.shape[0],) + (1,) * (off.ndim - 1) + (scores.shape[1],))
        arg = ag.add(ag.mul(off_t, self.alpha), sc)
        return ag.softplus(arg, ag.exp(self.log_beta))


class PredictionHeads:
    """Linear next-type and next-time readouts from the hidden state."""

    def __init__(self, K, d_model, rng):
        self.P_e = Parameter(linear_init(rng, d_model, K).T, "P_e")  # [K, d_model]
        self.P_t = Parameter(linear_init(rng, d_model, 1).T, "P_t")  # [1, d_model]

    def named_parameters(self, prefix=""):
        return [(prefix + "P_e", self.P_e), (prefix + "P_t", self.P_t)]

    def logits(self, hidden):
        return ag.matmul(hidden, ag.transpose(self.P_e))

    def times(self, hidden):
        return ag.reshape(ag.matmul(hidden, ag.transpose(self.P_t)), (-1,))


class LossBreakdown(NamedTuple):
    event: Tensor
    time: Tensor
    total: Tensor
    log_likelihood: Tensor


class PredictionResult(NamedTuple):
    probs: np.ndarray
    next_type: int       # 1-based
    next_time: float


class MambaHawkes:
    """Full model: embedding -> gap-driven block stack -> MLP -> heads."""

    arch = "mhp"

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.embedding = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(cfg.d_model), size=(cfg.d_model, cfg.K)),
            "embedding")
        self.layers = self._build_encoder(rng)
        self.mlp = MlpHead(cfg.d_model, cfg.mlp_width, rng)
        self.head = IntensityHead(cfg.K, cfg.d_model, rng)
        self.pred = PredictionHeads(cfg.K, cfg.d_model, rng)
        for name, p in self.named_parameters():
            p.name = name

    def _build_encoder(self, rng):
        return [MambaBlock(self.cfg.d_model, self.cfg.d_state, self.cfg.d_conv,
                           self.cfg.expand, rng)
                for _ in range(self.cfg.n_layers)]

    def _encoder_parameters(self):
        out = []
        for i, blk in enumerate(self.layers):
            out += blk.named_parameters(f"layers.{i}.")
        return out

    def named_parameters(self):
        out = [("embedding", self.embedding)]
        out += self._encoder_parameters()
        out += self.mlp.named_parameters("mlp.")
        out += self.head.named_parameters("head.")
        out += self.pred.named_parameters("pred.")
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- encoding ----------------------------------------------------------

    def embed(self, seq):
        idx = seq.type_indices
        if idx.max() >= self.cfg.K:
            raise ValueError(
                f"event type out of range: sequence contains type {int(idx.max()) + 1} "
                f"but the model has K={self.cfg.K}")
        return ag.transpose(ag.gather(self.embedding, idx, axis=1))

    def deltas(self, seq):
        return transform_deltas(raw_event_deltas(seq.timestamps), self.cfg)

    def _run_stack(self, x, delta):
        for blk in self.layers:
            x = blk(x, delta)
        return x

    def encode(self, seq):
        """Hidden state per event, [L, d_model]; row j sees only events <= j."""
        x = self.embed(seq)
        delta = Tensor(self.deltas(seq))
        return self.mlp(self._run_stack(x, delta))

    # -- intensities and likelihood -----------------------------------------

    def intensity(self, t, j, hidden, seq):
        """Vector of per-type intensities at time t, given latest event index j (0-based)."""
        t_j = float(seq.timestamps[j])
        if t < t_j:
            raise ValueError(f"t={t} precedes the anchoring event at t_j={t_j}")
        scores = self.head.base_scores(ag.reshape(hidden[j], (1, -1)))
        lam = self.head.intensities(np.array([t - t_j]), scores)
        return ag.reshape(lam, (self.cfg.K,))

    def _event_term(self, seq, scores):
        gaps = np.diff(seq.timestamps)
        lam = self.head.intensities(gaps, scores[:-1])  # [n-1, K] at event times
        if self.cfg.loglik_mode == "total":
            lam_at_events = ag.reduce_sum(lam, axis=1)
        else:
            hot = np.zeros((len(seq) - 1, self.cfg.K))
            hot[np.arange(len(seq) - 1), seq.type_indices[1:]] = 1.0
            lam_at_events = ag.reduce_sum(ag.mul(lam, hot), axis=1)
        return ag.reduce_sum(ag.log(lam_at_events))

    def _compensator(self, seq, scores, integrator, mc_samples, base_seed, n_quad):
        gaps = np.diff(seq.timestamps)
        if integrator == "mc":
            m = mc_samples if mc_samples else self.cfg.mc_samples
            rng = np.random.default_rng(sequence_seed(base_seed, seq))
            frac = rng.uniform(size=(len(gaps), m))
            weights = gaps[:, None] / m
        elif integrator == "trapezoid":
            frac = np.tile(np.linspace(0.0, 1.0, n_quad), (len(gaps), 1))
            w = np.full(n_quad, 1.0 / (n_quad - 1))
            w[0] = w[-1] = 0.5 / (n_quad - 1)
            weights = gaps[:, None] * w
        else:
            raise ValueError(f"unknown integrator {integrator!r}")
        offsets = frac * gaps[:, None]
        lam = self.head.intensities(offsets, scores[:-1])   # [n-1, S, K]
        total = ag.reduce_sum(lam, axis=2)
        return ag.reduce_sum(ag.mul(total, weights))

    def log_likelihood(self, seq, integrator="mc", mc_samples=None, seed=0,
                       n_quad=1024, hidden=None):
        """Sequence log-likelihood: sum of event log-intensities minus the
        integrated total intensity over [t_1, t_n]. Differentiable end to end."""
        if len(seq) < 2:
            raise ValueError("log-likelihood needs at least two events")
        if hidden is None:
            hidden = self.encode(seq)
        scores = self.head.base_scores(hidden)
        event = self._event_term(seq, scores)
        comp = self._compensator(seq, scores, integrator, mc_samples, seed, n_quad)
        return ag.sub(event, comp)

    # -- prediction and losses ----------------------------------------------

    def predict_next(self, seq):
        """Next-event type distribution and time prediction from the latest state."""
        with ag.no_grad():
            hidden = self.encode(seq)
            h_last = ag.reshape(hidden[len(seq) - 1], (1, -1))
            probs = ag.softmax(self.pred.logits(h_last), axis=1).data[0]
            t_hat = float(self.pred.times(h_last).data[0])
        return PredictionResult(probs, int(np.argmax(probs)) + 1, t_hat)

    def predicted_times(self, hidden, seq):
        """Absolute next-time predictions, one per history position, with the
        first event's own timestamp prepended as the anchoring convention."""
        t_hat = self.pred.times(hidden[:len(seq) - 1])
        return ag.concat([Tensor(seq.timestamps[:1]), t_hat], axis=0)

    def losses(self, seq, mc_samples=None, seed=0, integrator="mc"):
        """(event cross-entropy, time MSE, weighted total) plus the log-likelihood."""
        if len(seq) < 2:
            raise ValueError("losses need at least two events")
        hidden = self.encode(seq)
        ll = self.log_likelihood(seq, integrator=integrator, mc_samples=mc_samples,
                                 seed=seed, hidden=hidden)

        logits = self.pred.logits(hidden[:len(seq) - 1])
        logp = ag.log_softmax(logits, axis=1)
        hot = np.zeros((len(seq) - 1, self.cfg.K))
        hot[np.arange(len(seq) - 1), seq.type_indices[1:]] = 1.0
        event_loss = ag.neg(ag.reduce_sum(ag.mul(logp, hot)))

        t_hat = self.predicted_times(hidden, seq)
        pred_gaps = ag.sub(t_hat[1:], t_hat[:-1])
        diff = ag.sub(pred_gaps, Tensor(np.diff(seq.timestamps)))
        time_loss = ag.reduce_sum(ag.mul(diff, diff))

        total = ag.add(ag.neg(ll),
                       ag.add(ag.mul(ag.as_tensor(self.cfg.event_loss_weight), event_loss),
                              ag.mul(ag.as_tensor(self.cfg.time_loss_weight), time_loss)))
        return LossBreakdown(event_loss, time_loss, total, ll)
