"""Deep imputation methods: denoising autoencoders and adversarial imputers.

Four methods share the engine in `nn`, one class each, and `epochs` is the
one training setting (the others are module constants):

* naa   -- `DaeImputer`: overcomplete denoising autoencoder, one-time KNN
           (k=5) pre-imputation and a fixed training corruption mask.
* inaa  -- `InaaImputer`: undercomplete autoencoder; corruption mask and
           KNN neighbor count are refreshed on a rotating schedule. Both
           autoencoders train on the mixed RMSE+BCE loss.
* gain  -- `GainImputer`: adversarial imputer: the generator fills corrupted
           cells from uniform noise, the discriminator predicts the mask
           under hints; its reconstruction term is the masked squared error.
* igain -- `IgainImputer`: gain with batch normalization in both networks,
           a 5-layer undercomplete generator, rotating-k KNN pre-fill, and
           the mixed loss for reconstruction.

Training works on min-max normalized matrices; if the training table has
real missing cells they are first completed by KNN self-imputation (k=5)
so the reconstruction target is defined everywhere. One memo keeps, read-only,
the last KNN fill of a fold and of an impute-time target, keyed by every input
(schema, k, stats, and the shapes and bytes of both matrices): the deep methods
fitted in turn on one fold share one completion, and inaa and igain share one
pre-fill of a target.
"""

from __future__ import annotations

import numpy as np

from .imputers import ImputationResult, Imputer, _finish, knn_fill
from .missingness import drop_cells
from .nn import CLAMP_EPS, Adam, LayerSpec, Network, _activate, mixed_loss
from .seeding import _check_int, derive_seed, make_rng
from .tabular import MixedTable, Schema, denormalize, normalize

__all__ = [
    "RotatingPreimputer",
    "DaeImputer",
    "InaaImputer",
    "GainImputer",
    "IgainImputer",
    "make_hint",
]

NOISE_HIGH = 0.01
CORRUPTION_RATE = 0.2  # share of training cells dropped by each internal corruption
BATCH_SIZE = 128
LEARNING_RATE = 1e-3  # Adam's step size, for every network
HINT_RATE = 0.9  # gain/igain: share of mask cells the discriminator is told
ALPHA = 10.0  # gain/igain: weight of the reconstruction term in the generator loss


ROTATION_PERIOD = 10  # epochs between refreshes of the inaa/igain KNN pre-fill
ROTATION_KS = tuple(range(3, 16))  # the rotated k values
ROTATED_IMPUTE_K = 9  # inaa/igain impute-time k: the median of ROTATION_KS
FIXED_K = 5  # naa's pre-fill and the completion of an incomplete training fold


# kind -> (key, fill) of the last `_shared_fill` at one call site: "fold", the
# completion of an incomplete training fold (the deep methods of a bench fold,
# or of a predict repeat, fit on one fold in turn), and "target", the
# impute-time pre-fill of a target (inaa and igain fill one target alike)
_last_fill = {}


def _shared_fill(kind: str, ref: np.ndarray, target: np.ndarray, k: int, schema: Schema, stats):
    """`knn_fill(ref, target, k, schema, stats)`'s filled grid, read-only.

    The last result of `kind` is returned again when the schema, k, the bytes
    of `stats` and the shapes and bytes of `ref` and `target` all equal that
    call's, so a hit is exactly what a new call makes.
    """
    key = (schema, k, stats.tobytes(), ref.shape, ref.tobytes(), target.shape,
           None if target is ref else target.tobytes())
    last = _last_fill.get(kind)
    if last is None or last[0] != key:
        filled = knn_fill(ref, target, k, schema, stats)[0]
        filled.flags.writeable = False
        _last_fill[kind] = last = (key, filled)
    return last[1]


def _drop_and_fill(clean: np.ndarray, rng, k: int, schema: Schema, stats):
    """(mask, filled): CORRUPTION_RATE of each column's cells of `clean` are
    dropped (mask 0, else 1) and refilled by KNN self-imputation with `k`."""
    corrupted = drop_cells(clean, CORRUPTION_RATE, rng)
    filled, _, _ = knn_fill(corrupted, corrupted, k, schema, stats)
    return (~np.isnan(corrupted)).astype(float), filled


class RotatingPreimputer:
    """`_drop_and_fill` with a k drawn anew on each call from `ROTATION_KS`,
    without repetition; the history resets once every k has been used."""

    def __init__(self, seed: int):
        self._rng = make_rng(seed, "rotate-k")
        self.used_ks: list[int] = []
        self.n_knn_calls = 0

    def _next_k(self) -> int:
        if len(self.used_ks) == len(ROTATION_KS):
            self.used_ks = []
        k = int(self._rng.choice([k for k in ROTATION_KS if k not in self.used_ks]))
        self.used_ks.append(k)
        return k

    def preimpute(self, clean: np.ndarray, rng, schema: Schema, stats):
        """(mask, filled) of `_drop_and_fill`; one call per rotation period."""
        result = _drop_and_fill(clean, rng, self._next_k(), schema, stats)
        self.n_knn_calls += 1
        return result


def make_hint(mask: np.ndarray, rng: np.random.Generator):
    """Hint grid H = B*M + 0.5*(1-B) with B ~ Bernoulli(HINT_RATE).

    Returns (H, B): H equals the mask where B is 1 and 0.5 where the
    discriminator must infer the cell's status.
    """
    b = rng.random(mask.shape) < HINT_RATE
    h = np.where(b, mask.astype(float), 0.5)
    return h, b


def _map_outputs(raw: np.ndarray, cat_idx: np.ndarray) -> np.ndarray:
    """Column-wise output head: sigmoid on categoricals, identity elsewhere."""
    out = raw.copy()
    out[:, cat_idx] = _activate("sigmoid", raw[:, cat_idx])
    return out


def _map_grad(mapped: np.ndarray, grad: np.ndarray, cat_idx: np.ndarray) -> np.ndarray:
    g = grad.copy()
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
    """Shared settings, training loop and network input of the deep methods;
    `epochs` is the number of passes over the training fold."""

    def __init__(self, schema: Schema, seed: int = 0, *, epochs: int = 200):
        super().__init__(schema, seed)
        self.epochs = _check_int("epochs", epochs)

    def _train(self, train: MixedTable, step) -> list:
        """Each epoch's `step(clean, rows, refill, corrupt_rng)` results, one per
        shuffled batch of at least `min_batch` rows of the normalized, completed fold
        `clean`; `tag` names the generators. `refill` is the (mask, filled) of naa's
        one `_drop_and_fill` with FIXED_K, of inaa's and igain's `preimpute` every
        ROTATION_PERIOD epochs, or None for gain, whose step draws its own per batch.
        """
        clean = self._normalized_fold(train)
        if np.isnan(clean).any():
            # complete the incomplete training fold before internal corruption
            clean = _shared_fill("fold", clean, clean, FIXED_K, self.schema, self.norm_stats_)
        corrupt_rng = make_rng(self.seed, f"{self.tag}-corrupt")
        batch_rng = make_rng(self.seed, f"{self.tag}-batches")
        rotator = RotatingPreimputer(self.seed)
        refill = None
        if self.name == "naa":
            refill = _drop_and_fill(clean, corrupt_rng, FIXED_K, self.schema, self.norm_stats_)
        results = []
        for epoch in range(self.epochs):
            if self.name in ("inaa", "igain") and epoch % ROTATION_PERIOD == 0:
                refill = rotator.preimpute(clean, corrupt_rng, self.schema, self.norm_stats_)
            results.append([
                step(clean, rows, refill, corrupt_rng)
                for rows in _batches(len(clean), BATCH_SIZE, batch_rng, self.min_batch)
            ])
        self.train_ref_ = clean
        return results

    def _network_input(self, target: MixedTable) -> np.ndarray:
        """`target` normalized, its missing cells pre-filled: gain's by noise, the
        others' by KNN from `train_ref_` with FIXED_K or ROTATED_IMPUTE_K."""
        self._check_schema(target)
        target_norm = normalize(target.values, self.params_)
        if self.name == "gain":
            rng = make_rng(self.seed, "gain-impute-noise")
            noise = rng.uniform(0.0, NOISE_HIGH, size=target_norm.shape)
            return np.where(target.mask() == 1, target_norm, noise)
        k = FIXED_K if self.name == "naa" else ROTATED_IMPUTE_K
        return _shared_fill("target", self.train_ref_, target_norm, k, self.schema, self.norm_stats_)

    def _result(self, target: MixedTable, out_raw: np.ndarray) -> ImputationResult:
        """Map raw network outputs (normalized units) into an ImputationResult."""
        num, cat = self.schema.numerical_indices, self.schema.categorical_indices
        scores = _map_outputs(out_raw, cat)
        filled = scores.copy()
        # clip in normalized units too: 1 * (max - min) + min can fall an ulp
        # below max, where the clip in data units alone would give max
        filled[:, num] = np.clip(scores[:, num], 0.0, 1.0)
        return _finish(target, denormalize(filled, self.params_), scores, self.params_)


class DaeImputer(_DeepImputer):
    """Denoising-autoencoder imputer naa; `InaaImputer` is inaa."""

    name, tag, min_batch = "naa", "dae", 1

    def _build_network(self, n_features: int) -> Network:
        hidden = 2 * n_features if self.name == "naa" else max(1, n_features // 2)
        specs = [LayerSpec(hidden, "relu"), LayerSpec(n_features, "linear")]
        return Network(n_features, specs, seed=self.seed)

    def fit(self, train: MixedTable) -> "DaeImputer":
        self.net_ = self._build_network(self.schema.n_cols)
        optimizer = Adam(self.net_, lr=LEARNING_RATE)
        cat_idx = self.schema.categorical_indices

        def step(clean, rows, refill, corrupt_rng):
            out_raw, cache = self.net_.forward(refill[1][rows], train=True)
            out = _map_outputs(out_raw, cat_idx)
            loss, grad = mixed_loss(out, clean[rows], self.schema)
            param_grad, _ = self.net_.backward(cache, _map_grad(out, grad, cat_idx), inputs=False)
            optimizer.step(param_grad)
            return loss * rows.size

        epochs = self._train(train, step)
        # cumsum adds left to right, as a running sum does; `sum` compensates from 3.12
        self.loss_history_ = [float(np.cumsum(losses)[-1]) / train.n_rows for losses in epochs]
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        out_raw, _ = self.net_.forward(self._network_input(target), train=False)
        return self._result(target, out_raw)


class InaaImputer(DaeImputer):
    """Denoising-autoencoder imputer inaa."""
    name = "inaa"


class GainImputer(_DeepImputer):
    """Adversarial imputer gain; `IgainImputer` is igain."""

    name, tag, min_batch = "gain", "gain", 2

    def _build_networks(self, c: int):
        """(generator, discriminator): the same relu hidden layers, batch-normed
        in igain, then a width-c linear or sigmoid output."""
        igain = self.name == "igain"
        hidden = [c, max(1, c // 2), max(1, c // 4), max(1, c // 2)] if igain else [c, c]
        specs = [LayerSpec(w, "relu", igain) for w in hidden]
        return tuple(
            Network(2 * c, specs + [LayerSpec(c, out)], seed=derive_seed(self.seed, role))
            for out, role in (("linear", "gen"), ("sigmoid", "disc"))
        )

    def fit(self, train: MixedTable) -> "GainImputer":
        if self.name == "igain" and train.n_rows < 2:  # batch norm needs 2 rows a batch
            raise ValueError(f"igain needs at least 2 training rows, got {train.n_rows}")
        cat_idx = self.schema.categorical_indices
        self.gen_, self.disc_ = self._build_networks(self.schema.n_cols)
        opt_g = Adam(self.gen_, lr=LEARNING_RATE)
        opt_d = Adam(self.disc_, lr=LEARNING_RATE)
        hint_rng = make_rng(self.seed, "gain-hint")
        noise_rng = make_rng(self.seed, "gain-noise")

        def step(clean, rows, refill, corrupt_rng):
            target = clean[rows]
            if refill is None:  # gain: a new corruption mask and noise per batch
                m = (corrupt_rng.random(target.shape) >= CORRUPTION_RATE).astype(float)
                noise = noise_rng.uniform(0.0, NOISE_HIGH, size=target.shape)
                xf = m * target + (1.0 - m) * noise
            else:
                m, xf = refill[0][rows], refill[1][rows]
            g_in = np.concatenate([xf, m], axis=1)
            g_raw, g_cache = self.gen_.forward(g_in, train=True)
            g_out = _map_outputs(g_raw, cat_idx)
            imputed = m * xf + (1.0 - m) * g_out
            h, b = make_hint(m, hint_rng)
            region = ~b  # cells whose status the discriminator must infer
            d_in = np.concatenate([imputed, h], axis=1)

            if region.any():
                # the discriminator never runs in eval mode: no running statistics
                d_out, d_cache = self.disc_.forward(d_in, train=True, track_running=False)
                p = np.clip(d_out, CLAMP_EPS, 1.0 - CLAMP_EPS)
                d_grad = np.where(region, (p - m) / (p * (1.0 - p)) / region.sum(), 0.0)
                d_param_grad, _ = self.disc_.backward(d_cache, d_grad, inputs=False)
                opt_d.step(d_param_grad)

            # generator step: adversarial term over corrupted cells + alpha * recon
            grad_gout = np.zeros_like(g_out)
            n_miss = (1.0 - m).sum()
            if region.any() and n_miss > 0:
                d_out2, d_cache2 = self.disc_.forward(d_in, train=True, track_running=False)
                p2 = np.clip(d_out2, CLAMP_EPS, 1.0 - CLAMP_EPS)
                adv_grad = -(1.0 - m) / p2 / n_miss
                _, d_input_grad = self.disc_.backward(d_cache2, adv_grad, params=False)
                grad_gout += d_input_grad[:, : g_out.shape[1]] * (1.0 - m)
            if self.name == "gain":
                m_sum = max(m.sum(), 1.0)
                grad_rec = 2.0 * m * (g_out - target) / m_sum
            else:
                _, grad_rec = mixed_loss(g_out, target, self.schema, m)
            grad_gout += ALPHA * grad_rec
            g_param_grad, _ = self.gen_.backward(
                g_cache, _map_grad(g_out, grad_gout, cat_idx), inputs=False
            )
            opt_g.step(g_param_grad)

        self._train(train, step)
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        mask = target.mask().astype(float)
        g_in = np.concatenate([self._network_input(target), mask], axis=1)
        out_raw, _ = self.gen_.forward(g_in, train=False)
        return self._result(target, out_raw)


class IgainImputer(GainImputer):
    """Adversarial imputer igain."""
    name = "igain"
