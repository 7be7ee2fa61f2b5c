"""Deep imputation methods: denoising autoencoders and adversarial imputers.

Four variants share the engine in `nn`:

* naa   -- overcomplete denoising autoencoder, one-time KNN (k=5)
           pre-imputation and a fixed training corruption mask.
* inaa  -- undercomplete autoencoder; corruption mask and KNN neighbor
           count are refreshed on a rotating schedule; mixed RMSE+BCE loss.
* gain  -- adversarial imputer: the generator fills corrupted cells from
           uniform noise, the discriminator predicts the mask under hints.
* igain -- gain with batch normalization in both networks, a 5-layer
           undercomplete generator, rotating-k KNN pre-fill, and the mixed
           loss for reconstruction.

Training works on min-max normalized matrices; if the training table has
real missing cells they are first completed by KNN self-imputation so the
reconstruction target is defined everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .imputers import ImputationResult, Imputer, _finish, column_stats, knn_fill
from .missingness import drop_cells
from .nn import Adam, LayerSpec, Network, _activate, mixed_loss
from .seeding import derive_seed, make_rng
from .tabular import MixedTable, Schema, denormalize, fit_normalizer, normalize

__all__ = [
    "RotationSchedule",
    "RotatingPreimputer",
    "DaeConfig",
    "GainConfig",
    "DaeImputer",
    "GainImputer",
    "make_hint",
]

NOISE_HIGH = 0.01
CLIP_EPS = 1e-7


@dataclass(frozen=True)
class RotationSchedule:
    """Refresh the KNN pre-imputation every `period` epochs with a fresh k
    drawn from [k_min, k_max] without repetition (history resets once the
    interval is exhausted)."""

    period: int = 10
    k_min: int = 3
    k_max: int = 15

    def __post_init__(self):
        if self.k_min < 1 or self.k_max <= self.k_min or self.period < 1:
            raise ValueError(f"invalid rotation schedule {self}")

    @property
    def median_k(self) -> int:
        return (self.k_min + self.k_max) // 2


class RotatingPreimputer:
    """KNN self-imputation with a k drawn anew on each call (see `RotationSchedule`)."""

    def __init__(self, schedule: RotationSchedule, seed: int):
        self.schedule = schedule
        self._rng = make_rng(seed, "rotate-k")
        self.used_ks: list[int] = []
        self.n_knn_calls = 0

    def _next_k(self) -> int:
        choices = [
            k
            for k in range(self.schedule.k_min, self.schedule.k_max + 1)
            if k not in self.used_ks
        ]
        if not choices:
            self.used_ks = []
            choices = list(range(self.schedule.k_min, self.schedule.k_max + 1))
        k = int(self._rng.choice(choices))
        self.used_ks.append(k)
        return k

    def preimpute(self, corrupted_norm: np.ndarray, schema: Schema, stats):
        """KNN self-imputation of the corrupted matrix; one call per rotation period."""
        k = self._next_k()
        filled, _, _ = knn_fill(corrupted_norm, corrupted_norm, k, schema, stats)
        self.n_knn_calls += 1
        return filled


def make_hint(mask: np.ndarray, hint_rate: float, rng: np.random.Generator):
    """Hint grid H = B*M + 0.5*(1-B) with B ~ Bernoulli(hint_rate).

    Returns (H, B): H equals the mask where B is 1 and 0.5 where the
    discriminator must infer the cell's status.
    """
    if not 0.0 < hint_rate <= 1.0:
        raise ValueError("hint_rate must be in (0, 1]")
    b = rng.random(mask.shape) < hint_rate
    h = np.where(b, mask.astype(float), 0.5)
    return h, b


@dataclass(frozen=True)
class _DeepConfig:
    """Training settings shared by the DAE and GAIN families."""

    variants = ()  # the accepted `variant` names, per family
    variant: str = ""
    epochs: int = 200
    batch_size: int = 128
    corruption_rate: float = 0.2
    learning_rate: float = 1e-3
    rotation: RotationSchedule = field(default_factory=RotationSchedule)

    def __post_init__(self):
        if self.variant not in self.variants:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {self.variants}")
        if not 0.0 < self.corruption_rate < 1.0:
            raise ValueError("corruption_rate must be in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass(frozen=True)
class DaeConfig(_DeepConfig):
    variants = ("naa", "inaa")
    variant: str = "inaa"


@dataclass(frozen=True)
class GainConfig(_DeepConfig):
    variants = ("gain", "igain")
    variant: str = "igain"
    hint_rate: float = 0.9
    alpha: float = 10.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.hint_rate <= 1.0:
            raise ValueError("hint_rate must be in (0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


def _map_outputs(raw: np.ndarray, cat_idx: np.ndarray) -> np.ndarray:
    """Column-wise output head: sigmoid on categoricals, identity elsewhere."""
    out = raw.copy()
    if cat_idx.size:
        out[:, cat_idx] = _activate("sigmoid", raw[:, cat_idx])
    return out


def _map_grad(mapped: np.ndarray, grad: np.ndarray, cat_idx: np.ndarray) -> np.ndarray:
    g = grad.copy()
    if cat_idx.size:
        s = mapped[:, cat_idx]
        g[:, cat_idx] = grad[:, cat_idx] * s * (1.0 - s)
    return g


def _batches(n: int, batch_size: int, rng: np.random.Generator, min_size: int = 2):
    """Shuffled batch index lists; a trailing singleton merges backwards."""
    order = rng.permutation(n)
    chunks = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and chunks[-1].size < min_size:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


class _DeepImputer(Imputer):
    """Shared config / normalization / completion plumbing for the deep methods."""

    config_type: type

    def __init__(self, schema: Schema, seed: int = 0, config=None, **overrides):
        super().__init__(schema, seed)
        self.config = replace(config or self.config_type(), **overrides)
        self.name = self.config.variant

    def _prepare_training_matrix(self, train: MixedTable) -> np.ndarray:
        self._check_schema(train)
        self.params_ = fit_normalizer(train)
        norm = normalize(train, self.params_).values
        self.norm_stats_ = column_stats(norm, self.schema)
        if np.isnan(norm).any():
            # complete the incomplete training fold before internal corruption
            norm, _, _ = knn_fill(norm, norm, 5, self.schema, self.norm_stats_)
        return norm

    def _result(self, target: MixedTable, out_raw: np.ndarray) -> ImputationResult:
        """Map raw network outputs (normalized units) into an ImputationResult."""
        num, cat = self.schema.numerical_indices, self.schema.categorical_indices
        scores = _map_outputs(out_raw, cat)
        filled = scores.copy()
        filled[:, num] = np.clip(scores[:, num], 0.0, 1.0)
        filled[:, cat] = scores[:, cat] >= 0.5
        filled_raw = denormalize(MixedTable(self.schema, filled), self.params_).values
        return _finish(target, filled_raw, scores, self.params_)


class DaeImputer(_DeepImputer):
    """Denoising-autoencoder imputer (variants naa and inaa)."""

    config_type = DaeConfig

    def _build_network(self, n_features: int) -> Network:
        if self.config.variant == "naa":
            hidden = 2 * n_features
        else:
            hidden = max(1, n_features // 2)
        specs = [LayerSpec(hidden, "relu"), LayerSpec(n_features, "linear")]
        return Network(n_features, specs, seed=self.seed)

    def fit(self, train: MixedTable) -> "DaeImputer":
        cfg = self.config
        clean = self._prepare_training_matrix(train)
        n, c = clean.shape
        self.net_ = self._build_network(c)
        optimizer = Adam(self.net_, lr=cfg.learning_rate)
        cat_idx = self.schema.categorical_indices
        corrupt_rng = make_rng(self.seed, "dae-corrupt")
        batch_rng = make_rng(self.seed, "dae-batches")
        rotator = RotatingPreimputer(cfg.rotation, self.seed)
        pre = None
        self.loss_history_ = []
        for epoch in range(cfg.epochs):
            if cfg.variant == "naa":
                if pre is None:
                    corrupted = drop_cells(clean, cfg.corruption_rate, corrupt_rng)
                    pre, _, _ = knn_fill(corrupted, corrupted, 5, self.schema, self.norm_stats_)
            elif epoch % cfg.rotation.period == 0:
                corrupted = drop_cells(clean, cfg.corruption_rate, corrupt_rng)
                pre = rotator.preimpute(corrupted, self.schema, self.norm_stats_)
            epoch_loss = 0.0
            for rows in _batches(n, cfg.batch_size, batch_rng, min_size=1):
                out_raw, cache = self.net_.forward(pre[rows], train=True)
                out = _map_outputs(out_raw, cat_idx)
                loss, grad = mixed_loss(out, clean[rows], self.schema)
                param_grad, _ = self.net_.backward(cache, _map_grad(out, grad, cat_idx))
                optimizer.step(param_grad)
                epoch_loss += loss * rows.size
            self.loss_history_.append(epoch_loss / n)
        self.train_ref_ = clean
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        cfg = self.config
        k = 5 if cfg.variant == "naa" else cfg.rotation.median_k
        target_norm = normalize(target, self.params_).values
        pre, _, _ = knn_fill(self.train_ref_, target_norm, k, self.schema, self.norm_stats_)
        out_raw, _ = self.net_.forward(pre, train=False)
        return self._result(target, out_raw)


class GainImputer(_DeepImputer):
    """Adversarial imputer (variants gain and igain)."""

    config_type = GainConfig

    def _build_networks(self, c: int):
        if self.config.variant == "gain":
            # 3 equal-width dense layers in both networks
            gen_specs = [
                LayerSpec(c, "relu"),
                LayerSpec(c, "relu"),
                LayerSpec(c, "linear"),
            ]
            disc_specs = [
                LayerSpec(c, "relu"),
                LayerSpec(c, "relu"),
                LayerSpec(c, "sigmoid"),
            ]
        else:
            # 5-layer undercomplete generator; discriminator mirrors the depth
            widths = [c, max(1, c // 2), max(1, c // 4), max(1, c // 2), c]
            gen_specs = [
                LayerSpec(w, "relu", batch_norm=True) for w in widths[:-1]
            ] + [LayerSpec(widths[-1], "linear")]
            disc_specs = [
                LayerSpec(w, "relu", batch_norm=True) for w in widths[:-1]
            ] + [LayerSpec(widths[-1], "sigmoid")]
        gen = Network(2 * c, gen_specs, seed=derive_seed(self.seed, "gen"))
        disc = Network(2 * c, disc_specs, seed=derive_seed(self.seed, "disc"))
        return gen, disc

    def fit(self, train: MixedTable) -> "GainImputer":
        cfg = self.config
        clean = self._prepare_training_matrix(train)
        n, c = clean.shape
        cat_idx = self.schema.categorical_indices
        self.gen_, self.disc_ = self._build_networks(c)
        opt_g = Adam(self.gen_, lr=cfg.learning_rate)
        opt_d = Adam(self.disc_, lr=cfg.learning_rate)
        corrupt_rng = make_rng(self.seed, "gain-corrupt")
        batch_rng = make_rng(self.seed, "gain-batches")
        hint_rng = make_rng(self.seed, "gain-hint")
        noise_rng = make_rng(self.seed, "gain-noise")
        rotator = RotatingPreimputer(cfg.rotation, self.seed)
        filled_all = mask_all = None
        for epoch in range(cfg.epochs):
            if cfg.variant == "igain" and epoch % cfg.rotation.period == 0:
                corrupted = drop_cells(clean, cfg.corruption_rate, corrupt_rng)
                mask_all = (~np.isnan(corrupted)).astype(float)
                filled_all = rotator.preimpute(corrupted, self.schema, self.norm_stats_)
            for rows in _batches(n, cfg.batch_size, batch_rng):
                target_batch = clean[rows]
                if cfg.variant == "gain":
                    m = (corrupt_rng.random(target_batch.shape) >= cfg.corruption_rate).astype(float)
                    noise = noise_rng.uniform(0.0, NOISE_HIGH, size=target_batch.shape)
                    xf = m * target_batch + (1.0 - m) * noise
                else:
                    m = mask_all[rows]
                    xf = filled_all[rows]
                self._train_step(xf, m, target_batch, cat_idx, opt_g, opt_d, hint_rng)
        self.train_ref_ = clean
        return self

    def _train_step(self, xf, m, clean, cat_idx, opt_g, opt_d, hint_rng):
        cfg = self.config
        g_in = np.concatenate([xf, m], axis=1)
        g_raw, g_cache = self.gen_.forward(g_in, train=True)
        g_out = _map_outputs(g_raw, cat_idx)
        imputed = m * xf + (1.0 - m) * g_out
        h, b = make_hint(m, cfg.hint_rate, hint_rng)
        region = ~b  # cells whose status the discriminator must infer
        d_in = np.concatenate([imputed, h], axis=1)

        if region.any():
            d_out, d_cache = self.disc_.forward(d_in, train=True)
            p = np.clip(d_out, CLIP_EPS, 1.0 - CLIP_EPS)
            d_grad = np.where(region, (p - m) / (p * (1.0 - p)) / region.sum(), 0.0)
            d_param_grad, _ = self.disc_.backward(d_cache, d_grad)
            opt_d.step(d_param_grad)

        # generator step: adversarial term over corrupted cells + alpha * recon
        grad_gout = np.zeros_like(g_out)
        n_miss = (1.0 - m).sum()
        if region.any() and n_miss > 0:
            d_out2, d_cache2 = self.disc_.forward(d_in, train=True)
            p2 = np.clip(d_out2, CLIP_EPS, 1.0 - CLIP_EPS)
            adv_grad = -(1.0 - m) / p2 / n_miss
            _, d_input_grad = self.disc_.backward(d_cache2, adv_grad)
            grad_gout += d_input_grad[:, : g_out.shape[1]] * (1.0 - m)
        if cfg.variant == "gain":
            m_sum = max(m.sum(), 1.0)
            grad_rec = 2.0 * m * (g_out - clean) / m_sum
        else:
            _, grad_rec = mixed_loss(g_out, clean, self.schema, m)
        grad_gout += cfg.alpha * grad_rec
        g_param_grad, _ = self.gen_.backward(g_cache, _map_grad(g_out, grad_gout, cat_idx))
        opt_g.step(g_param_grad)

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        cfg = self.config
        target_norm = normalize(target, self.params_).values
        mask = target.mask().astype(float)
        if cfg.variant == "gain":
            rng = make_rng(self.seed, "gain-impute-noise")
            noise = rng.uniform(0.0, NOISE_HIGH, size=target_norm.shape)
            pre = np.where(mask == 1, target_norm, noise)
        else:
            pre, _, _ = knn_fill(
                self.train_ref_,
                target_norm,
                cfg.rotation.median_k,
                self.schema,
                self.norm_stats_,
            )
        out_raw, _ = self.gen_.forward(np.concatenate([pre, mask], axis=1), train=False)
        return self._result(target, out_raw)
