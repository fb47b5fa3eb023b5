"""Event-sequence data model, JSONL persistence, unpadded batching, and a
synthetic multivariate Hawkes generator (exponential kernels, Ogata thinning).

JSONL schema, one sequence per line:

    {"K": <int, 1..MAX_TYPES>, "events": [{"t": <float>, "k": <int, 1-based>}, ...]}

Timestamps must be strictly increasing within a line. Ties are resolved at
load time by nudging each duplicate up by the larger of 1e-9 and one ulp
(with a warning); decreasing timestamps are a hard error naming the line.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

MAX_TYPES = 1024   # bound on K: the model allocates [d_model, K] and [L, K] arrays
# Bounds on the sizes a config or checkpoint sets, each at least 16 times its
# default, so that a size too large to allocate is refused by name.
MAX_D_MODEL = 1024
MAX_D_STATE = 256
MAX_EXPAND = 32
MAX_D_CONV = 64
MAX_LAYERS = 64            # n_layers, mamba_layers and attn_blocks
MAX_HEADS = 64
MAX_HIDDEN = 4096          # mlp_hidden and ff_width, the widths of the position-wise MLPs
MAX_QUAD_POINTS = 16384    # bound on eval_quad_points, which changes nothing


class DataError(ValueError):
    """Malformed data file or schema violation."""


class ExplosionError(ValueError):
    """Generator configuration is non-stationary (spectral radius >= 1)."""


class RetryExhaustedError(RuntimeError):
    """No simulated sequence satisfied the length bounds within the retry budget."""


@dataclass
class EventSequence:
    """Ordered (timestamp, type) pairs; types are 1-based in {1..K}."""

    timestamps: np.ndarray
    types: np.ndarray
    K: int

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.types = np.asarray(self.types, dtype=np.int64)
        if self.timestamps.ndim != 1 or self.timestamps.shape != self.types.shape:
            raise ValueError(
                f"timestamps and types must be equal-length vectors, got "
                f"{self.timestamps.shape} and {self.types.shape}")
        if len(self.timestamps) == 0:
            raise ValueError("empty event sequence")
        if not np.all(np.isfinite(self.timestamps)):
            raise ValueError("timestamps must be finite")
        if np.any(np.diff(self.timestamps) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        if self.K < 1 or np.any(self.types < 1) or np.any(self.types > self.K):
            raise ValueError(f"event types must lie in 1..{self.K}")

    def __len__(self):
        return len(self.timestamps)

    @property
    def type_indices(self):
        """0-based type indices for embedding lookups."""
        return self.types - 1

    @property
    def duration(self):
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass
class Dataset:
    sequences: list
    K: int
    split: str = ""
    tie_nudges: int = 0     # timestamps nudged off a tie when loaded

    def __post_init__(self):
        if any(s.K != self.K for s in self.sequences):
            raise ValueError("all sequences in a dataset must share the same K")

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)


# ---------------------------------------------------------------------------
# synthetic Hawkes generation


@dataclass
class HawkesGenConfig:
    """Multivariate Hawkes with kernels psi_{k,k'}(t) = alpha[k,k'] * exp(-beta_decay[k,k'] * t).

    alpha[k, k'] is the jump that a type-k' event adds to the intensity of
    type k. Stationarity requires the branching matrix alpha/beta_decay to
    have spectral radius < 1.
    """

    K: int
    mu: np.ndarray
    alpha: np.ndarray
    beta_decay: np.ndarray
    horizon: float
    length_bounds: tuple | None = None
    max_retries: int = 200

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64).reshape(self.K)
        self.alpha = np.asarray(self.alpha, dtype=np.float64).reshape(self.K, self.K)
        self.beta_decay = np.asarray(self.beta_decay, dtype=np.float64).reshape(self.K, self.K)
        if np.any(self.mu < 0) or np.any(self.alpha < 0):
            raise ValueError("base rates and excitation jumps must be non-negative")
        if np.any(self.beta_decay <= 0):
            raise ValueError("decay rates must be strictly positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        radius = self.branching_radius()
        if radius >= 1.0:
            raise ExplosionError(
                f"branching matrix spectral radius {radius:.4f} >= 1; the process would explode")

    def branching_radius(self):
        return float(np.abs(np.linalg.eigvals(self.alpha / self.beta_decay)).max())


def _thin_once(cfg, rng):
    """One exact thinning pass over [0, horizon]; returns (times, types)."""
    t = 0.0
    excite = np.zeros((cfg.K, cfg.K))  # current kernel mass, source type per column
    mu_tot, neg_decay = cfg.mu.sum(), -cfg.beta_decay
    times, types = [], []
    while True:
        lam_bar = mu_tot + excite.sum()
        if lam_bar <= 0.0:
            break  # nothing can ever fire again
        t_prop = t + rng.exponential(1.0 / lam_bar)
        if t_prop > cfg.horizon:
            break
        excite *= np.exp(neg_decay * (t_prop - t))
        t = t_prop
        lam_vec = cfg.mu + excite.sum(axis=1)
        lam_tot = lam_vec.sum()
        if rng.uniform() * lam_bar <= lam_tot:
            # the draw rng.choice(K, p=lam_vec / lam_tot) makes, without its checks
            cdf = np.cumsum(lam_vec / lam_tot)
            cdf /= cdf[-1]
            k = bisect_right(cdf.tolist(), rng.random())
            times.append(t)
            types.append(k + 1)
            excite[:, k] += cfg.alpha[:, k]
    return times, types


def simulate_hawkes(cfg, seed=None, rng=None):
    """Sample one event sequence by Ogata thinning.

    Between events the intensity only decays, so the total intensity just
    after the latest move is a valid upper bound for the next proposal; the
    bound is re-tightened after every proposal. If length bounds are set,
    out-of-range draws are rejected and resampled up to cfg.max_retries.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    lo, hi = cfg.length_bounds if cfg.length_bounds else (1, None)
    for _ in range(cfg.max_retries):
        times, types = _thin_once(cfg, rng)
        n = len(times)
        if n >= lo and (hi is None or n <= hi):
            return EventSequence(np.array(times), np.array(types, dtype=np.int64), cfg.K)
    raise RetryExhaustedError(
        f"no sequence with length in [{lo}, {hi}] after {cfg.max_retries} attempts")


def benchmark_generator_config():
    """Pinned 5-type config for the synthetic benchmark.

    Each event strongly excites the next type in a 5-cycle (fast decay) and
    weakly re-excites its own type (slow decay), giving sequences with both
    temporal clustering and a learnable type-transition structure. Chosen to
    put lengths in [20, 100] with mean near 60 over a horizon of 40.
    """
    K = 5
    alpha = np.zeros((K, K))
    beta = np.ones((K, K))
    for k in range(K):
        alpha[(k + 1) % K, k] = 2.0   # cyclic cross-excitation, fast decay
        beta[(k + 1) % K, k] = 4.0
        alpha[k, k] = 0.1             # mild self-excitation
    return HawkesGenConfig(K=K, mu=np.full(K, 0.13), alpha=alpha, beta_decay=beta,
                           horizon=40.0, length_bounds=(20, 100))


def make_synthetic_benchmark(seed, n_train=1600, n_dev=200, n_test=200):
    """Deterministic train/dev/test datasets from the pinned generator.

    Returns a dict {"train": Dataset, "dev": Dataset, "test": Dataset}. Each
    sequence draws from its own child RNG, so the result depends only on the
    seed and the split sizes.
    """
    cfg = benchmark_generator_config()
    counts = {"train": n_train, "dev": n_dev, "test": n_test}
    children = iter(np.random.SeedSequence(seed).spawn(sum(counts.values())))
    out = {}
    for split, n in counts.items():
        seqs = [simulate_hawkes(cfg, rng=np.random.default_rng(next(children)))
                for _ in range(n)]
        out[split] = Dataset(seqs, cfg.K, split)
    return out


# ---------------------------------------------------------------------------
# JSONL persistence


def save_jsonl(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for seq in dataset:
            rec = {"K": dataset.K,
                   "events": [{"t": float(t), "k": int(k)}
                              for t, k in zip(seq.timestamps, seq.types)]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def finite_float(value):
    """A JSON number as a finite float, else None (also for a bool, a string
    and an integer that no float holds): the rule every number read from an
    outside file passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:    # an integer literal beyond the float range
        return None
    return value if math.isfinite(value) else None


def read_json(raw, source, what="JSON"):
    """The document in the bytes `raw` of a data line, config file or
    checkpoint. Every refusal (text that is not UTF-8, malformed JSON, an
    integer literal longer than the interpreter converts, nesting too deep
    for the decoder) raises one DataError naming `source` and the reason."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 text: {e.reason}"
    except json.JSONDecodeError as e:
        reason = e.msg
    except ValueError:  # the digit limit of int()
        reason = "integer literal too long"
    except RecursionError:
        reason = "nested too deeply"
    raise DataError(f"{source}: invalid {what} ({reason})")


def _parse_line(line, lineno, path):
    rec = read_json(line, f"{path}:{lineno}")
    if not isinstance(rec, dict) or "K" not in rec:
        raise DataError(f"{path}:{lineno}: missing field 'K'")
    if "events" not in rec or not isinstance(rec["events"], list) or not rec["events"]:
        raise DataError(f"{path}:{lineno}: field 'events' must be a non-empty list")
    K = rec["K"]
    if isinstance(K, bool) or not isinstance(K, int) or not 1 <= K <= MAX_TYPES:
        raise DataError(f"{path}:{lineno}: field 'K' must be an integer in 1..{MAX_TYPES}")
    times, types = [], []
    for i, ev in enumerate(rec["events"]):
        if not isinstance(ev, dict) or "t" not in ev or "k" not in ev:
            raise DataError(f"{path}:{lineno}: event {i} must have fields 't' and 'k'")
        if not isinstance(ev["k"], int):
            raise DataError(f"{path}:{lineno}: field 'k' must be an integer at event {i}, "
                            f"got {ev['k']!r}")
        if isinstance(ev["k"], bool) or not 1 <= ev["k"] <= K:
            raise DataError(f"{path}:{lineno}: field 'k' out of range 1..{K} at event {i}, "
                            f"got {ev['k']!r}")
        t = finite_float(ev["t"])
        if t is None:
            raise DataError(f"{path}:{lineno}: field 't' must be a finite number at event {i}, "
                            f"got {ev['t']!r}")
        times.append(t)
        types.append(ev["k"])
    times = np.asarray(times, dtype=np.float64)
    if np.any(np.diff(times) < 0.0):
        raise DataError(f"{path}:{lineno}: decreasing timestamps in field 'events'")
    # break exact ties so every inter-event gap is positive downstream; from
    # 2^24 on, t + 1e-9 rounds back to t, so a tie moves by one ulp there
    dup = 0
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = max(times[i - 1] + 1e-9, math.nextafter(times[i - 1], math.inf))
            dup += 1
    if not math.isfinite(times[-1]):
        raise DataError(f"{path}:{lineno}: a tie at the largest finite timestamp cannot be nudged")
    if dup:
        logger.warning("%s:%d: nudged %d duplicate timestamps by 1e-9 or one ulp",
                       path, lineno, dup)
    return EventSequence(times, np.asarray(types, dtype=np.int64), K), K, dup


def load_jsonl(path, split=""):
    sequences, K, nudges = [], None, 0
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()   # at \n, \r and \r\n, as a text file reads
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        seq, k, dup = _parse_line(line, lineno, path)
        nudges += dup
        if K is None:
            K = k
        elif k != K:
            raise DataError(f"{path}:{lineno}: inconsistent 'K' ({k} != {K})")
        sequences.append(seq)
    if not sequences:
        raise DataError(f"{path}: no sequences found")
    return Dataset(sequences, K, split, tie_nudges=nudges)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Consecutive sequences of one optimizer step, scored one at a time."""

    sequences: list

    def unpadded(self):
        """The sequences, as given."""
        return self.sequences

    @property
    def mask(self):
        """[B, Lmax] bool, True on each row's events, as a padded batch would
        need. Only the benchmark's traced run reads it (`data.batch_pad_frac`);
        it goes when the benchmark stops reading it (ROADMAP item 1)."""
        lengths = np.array([len(s) for s in self.sequences])
        return np.arange(lengths.max()) < lengths[:, None]


def batch(dataset, batch_size):
    """The sequences of dataset (or a list), in order, in batches of at most batch_size."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    seqs = list(dataset)
    return [Batch(seqs[i:i + batch_size]) for i in range(0, len(seqs), batch_size)]
