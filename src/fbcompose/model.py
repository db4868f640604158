"""Dual-branch channel-blending model: forward pass, loss, analytic gradients.

The model is linear: a content branch blends the basis planes, a residual
branch blends the residual planes source - plane, and a merge layer combines
the content estimate with source - residual estimate.  The residual branch
is computed from the basis; no residual stack is built.  All weights are
shared across color channels, so a magnitude-n basis trains 2n + 5 scalars.
Being linear, the "mse" objective can also be taken from a per-sample Gram
matrix (``gram_matrix``, ``gram_gradients``) without touching the pixels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .basis import FilteredBasis
from .filters import FilterConfig, parse_config
from .image import Image
from .metrics import tv_of_array

MODEL_FORMAT = "cfmodel/1"
LOSS_KINDS = ("mse", "l1_tv")


class ModelIOError(ValueError):
    """Base class for model file problems."""


class ModelVersionError(ModelIOError):
    """The document declares a format this code does not speak."""


class ModelDocumentError(ModelIOError):
    """The document is not valid JSON or is missing required fields."""


class ModelCountError(ModelIOError):
    """Weight vector lengths disagree with the config list."""


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights for the content, residual and merge loss terms."""

    alpha: float = 0.1
    lam: float = 0.1
    gamma: float = 1.0

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("lam", self.lam), ("gamma", self.gamma)):
            if not (0.0 <= value < np.inf):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True, eq=False)
class BranchWeights:
    """One weight per basis plane plus a scalar bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("branch weights must be a non-empty vector")
        if not (np.all(np.isfinite(arr)) and np.isfinite(self.bias)):
            raise ValueError("branch weights must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "bias", float(self.bias))


@dataclass(frozen=True)
class MergeWeights:
    w_content: float
    w_residual_path: float
    bias: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.w_content, self.w_residual_path, self.bias)):
            raise ValueError("merge weights must be finite")


@dataclass(frozen=True, eq=False)
class CompositionModel:
    """Learnable state plus the config list documenting its expected inputs."""

    basis_configs: tuple[FilterConfig, ...]
    content: BranchWeights
    residual: BranchWeights
    merge: MergeWeights

    def __post_init__(self):
        n = len(self.basis_configs)
        if n < 1:
            raise ValueError("model needs at least one basis config")
        if self.content.weights.size != n or self.residual.weights.size != n:
            raise ValueError(
                f"branch weight lengths ({self.content.weights.size}, "
                f"{self.residual.weights.size}) do not match {n} configs"
            )

    @property
    def magnitude(self) -> int:
        return len(self.basis_configs)


def init_model(
    configs: Sequence[FilterConfig], seed: int = 0, randomized: bool = False
) -> CompositionModel:
    """Uniform-average start: both branches average their planes, the merge
    splits evenly.  ``randomized`` draws branch weights uniform in [-1/n, 1/n]
    from the seeded generator instead."""
    n = len(configs)
    if n < 1:
        raise ValueError("model needs at least one basis config")
    if randomized:
        rng = np.random.default_rng(seed)
        content_w = rng.uniform(-1.0 / n, 1.0 / n, n)
        residual_w = rng.uniform(-1.0 / n, 1.0 / n, n)
    else:
        content_w = np.full(n, 1.0 / n)
        residual_w = np.full(n, 1.0 / n)
    return CompositionModel(
        tuple(configs),
        BranchWeights(content_w, 0.0),
        BranchWeights(residual_w, 0.0),
        MergeWeights(0.5, 0.5, 0.0),
    )


# ---------------------------------------------------------------------------
# Forward pass and loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ForwardOutputs:
    """Raw (unclamped) branch outputs; clamping happens only on export."""

    content: np.ndarray
    residual: np.ndarray
    merged: np.ndarray
    source: np.ndarray

    def content_image(self) -> Image:
        return Image(self.content)

    def merged_image(self) -> Image:
        return Image(self.merged)


def forward(model: CompositionModel, basis: FilteredBasis, residuals=None) -> ForwardOutputs:
    """Per pixel and channel: content = sum_i wc[i]*plane[i] + bc, residual =
    sum_i wr[i]*(source - plane[i]) + br, merged = w1*content + w2*(source -
    residual) + bm.

    One contraction of [wc; wr] with the planes gives both blends, and the
    residual branch is sum(wr)*source - sum_i wr[i]*plane[i] + br.
    ``residuals`` is never read: it is kept only for three-argument callers
    until the benchmark's next update.
    """
    if basis.magnitude != model.magnitude:
        raise ValueError(
            f"basis magnitude {basis.magnitude} does not match model magnitude {model.magnitude}"
        )
    source = basis.source.data
    weights = np.stack([model.content.weights, model.residual.weights])
    blends = np.tensordot(weights, basis.tensor(), axes=1)
    content = blends[0] + model.content.bias
    residual = model.residual.weights.sum() * source - blends[1] + model.residual.bias
    merged = (
        model.merge.w_content * content
        + model.merge.w_residual_path * (source - residual)
        + model.merge.bias
    )
    return ForwardOutputs(content, residual, merged, source)


def _component(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    diff = pred - target
    if kind == "mse":
        return float(np.mean(diff * diff))
    return float(np.mean(np.abs(diff)))


def total_loss(
    outputs: ForwardOutputs,
    gt_clean: Image,
    lw: LossWeights = LossWeights(),
    kind: str = "mse",
    tv_weight: float = 0.0,
) -> tuple[float, tuple[float, float, float]]:
    """Weighted objective alpha*L_c + lam*L_r + gamma*L_m.

    ``kind`` "mse" uses mean squared error per component; "l1_tv" uses mean
    absolute error and adds tv_weight * TV(merged) once to the total.  The
    residual branch's target is the signed artifact source - clean.
    Returns (total, (l_c, l_r, l_m)).
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    target = gt_clean.data
    if target.shape != outputs.content.shape:
        raise ValueError(
            f"target shape {target.shape} does not match outputs {outputs.content.shape}"
        )
    l_c = _component(outputs.content, target, kind)
    l_r = _component(outputs.residual, outputs.source - target, kind)
    l_m = _component(outputs.merged, target, kind)
    total = lw.alpha * l_c + lw.lam * l_r + lw.gamma * l_m
    if kind == "l1_tv":
        total = total + tv_weight * tv_of_array(outputs.merged)
    return float(total), (l_c, l_r, l_m)


# ---------------------------------------------------------------------------
# Analytic gradients
# ---------------------------------------------------------------------------


def _tv_adjoint(z: np.ndarray) -> np.ndarray:
    """d(TV)/dz for per-pixel anisotropic TV; subgradient 0 at exact kinks."""
    height, width = z.shape[-2], z.shape[-1]
    adj = np.zeros_like(z)
    sx = np.sign(z[..., :, 1:] - z[..., :, :-1])
    adj[..., :, 1:] += sx
    adj[..., :, :-1] -= sx
    sy = np.sign(z[..., 1:, :] - z[..., :-1, :])
    adj[..., 1:, :] += sy
    adj[..., :-1, :] -= sy
    return adj / (height * width)


def gradients(
    model: CompositionModel,
    basis: FilteredBasis,
    gt_clean: Image,
    lw: LossWeights = LossWeights(),
    kind: str = "mse",
    tv_weight: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Exact derivatives of ``total_loss`` w.r.t. every weight and bias,
    as one vector in the ``model_to_vector`` layout.

    The merge term chains into both branches; for "l1_tv" the subgradient of
    |.| at exact zeros is 0.
    """
    out = forward(model, basis)
    target = gt_clean.data
    artifact = out.source - target
    total, _ = total_loss(out, gt_clean, lw, kind, tv_weight)

    count = target.size
    if kind == "mse":
        d_c = (2.0 / count) * (out.content - target)
        d_r = (2.0 / count) * (out.residual - artifact)
        d_m = (2.0 / count) * (out.merged - target)
    else:
        d_c = np.sign(out.content - target) / count
        d_r = np.sign(out.residual - artifact) / count
        d_m = np.sign(out.merged - target) / count

    adj_m = lw.gamma * d_m
    if kind == "l1_tv" and tv_weight != 0.0:
        adj_m = adj_m + tv_weight * _tv_adjoint(out.merged)
    adj_c = lw.alpha * d_c + model.merge.w_content * adj_m
    adj_r = lw.lam * d_r - model.merge.w_residual_path * adj_m

    # d(residual)/d(wr[i]) = source - plane[i], so one contraction of the
    # planes against [adj_c; adj_r] serves both branches.
    plane_dots = np.tensordot(
        basis.tensor(), np.stack([adj_c, adj_r]), axes=([1, 2, 3], [1, 2, 3])
    )
    grads = np.concatenate(
        [
            plane_dots[:, 0],
            [adj_c.sum()],
            (out.source * adj_r).sum() - plane_dots[:, 1],
            [adj_r.sum()],
            [(adj_m * out.content).sum(), (adj_m * (out.source - out.residual)).sum(), adj_m.sum()],
        ]
    )
    return total, grads


# ---------------------------------------------------------------------------
# Gram-matrix form of the "mse" objective
# ---------------------------------------------------------------------------


def gram_matrix(basis: FilteredBasis, gt_clean: Image) -> np.ndarray:
    """Mean Gram matrix X^T X / count of the columns X = [p_1..p_n, source,
    target, 1], with one row per pixel and channel.

    Every output and target of the model is a linear combination of these
    columns, so a sample's "mse" objective and its gradients depend on its
    data only through this (n + 3) x (n + 3) matrix (see ``gram_gradients``).
    It is built from pairwise dot products of the flattened columns, so no
    buffer larger than one plane is allocated.
    """
    target = gt_clean.data
    if target.shape != basis.source.shape:
        raise ValueError(
            f"target shape {target.shape} does not match basis {basis.source.shape}"
        )
    columns = [plane.data.ravel() for plane in basis.planes]
    columns += [basis.source.data.ravel(), target.ravel()]
    m = len(columns)
    gram = np.empty((m + 1, m + 1))
    for i, column in enumerate(columns):
        gram[i, :m] = [column @ other for other in columns]
        gram[i, m] = gram[m, i] = column.sum()
    gram[m, m] = target.size
    return gram / target.size


def gram_gradients(
    model: CompositionModel, gram: np.ndarray, lw: LossWeights = LossWeights()
) -> tuple[float, np.ndarray]:
    """``gradients(model, basis, gt_clean, lw, "mse")`` computed in O(n^2)
    from the sample's ``gram_matrix`` alone.

    Each error (an output minus its target) is X @ a for a coefficient
    vector a over the Gram columns, so its mean square is a^T G a and the
    pixel adjoint 2 * error / count contracts with X to 2 G a.  Those
    adjoints chain into the weights exactly as in ``gradients``.  Each loss
    component is floored at 0, since a^T G a can round below zero at an
    exact fit.
    """
    n = model.magnitude
    if gram.shape != (n + 3, n + 3):
        raise ValueError(
            f"Gram matrix shape {gram.shape} does not match model magnitude {n}"
        )
    wr = model.residual.weights
    w_content, w_restored = model.merge.w_content, model.merge.w_residual_path
    target, one = np.eye(n + 3)[n + 1 :]
    content = np.concatenate([model.content.weights, [0.0, 0.0, model.content.bias]])
    # source - residual, the estimate the residual path hands to the merge.
    restored = np.concatenate([wr, [1.0 - wr.sum(), 0.0, -model.residual.bias]])
    merged = w_content * content + w_restored * restored + model.merge.bias * one
    errors = np.stack([content - target, target - restored, merged - target])
    projected = errors @ gram
    l_c, l_r, l_m = (max(float(v), 0.0) for v in (errors * projected).sum(axis=1))
    total = lw.alpha * l_c + lw.lam * l_r + lw.gamma * l_m

    d_c, d_r, d_m = 2.0 * projected
    adj_m = lw.gamma * d_m
    adj_c = lw.alpha * d_c + w_content * adj_m
    adj_r = lw.lam * d_r - w_restored * adj_m
    grads = np.concatenate(
        [
            adj_c[:n],
            [adj_c[n + 2]],
            adj_r[n] - adj_r[:n],
            [adj_r[n + 2]],
            [adj_m @ content, adj_m @ restored, adj_m[n + 2]],
        ]
    )
    return float(total), grads


# ---------------------------------------------------------------------------
# Flat parameter vector (optimizer interface)
# ---------------------------------------------------------------------------


def model_to_vector(model: CompositionModel) -> np.ndarray:
    """Layout: [content_w (n), content_b, residual_w (n), residual_b,
    merge_w_content, merge_w_residual_path, merge_b]."""
    return np.concatenate(
        [
            model.content.weights,
            [model.content.bias],
            model.residual.weights,
            [model.residual.bias],
            [model.merge.w_content, model.merge.w_residual_path, model.merge.bias],
        ]
    )


def vector_to_model(vec: np.ndarray, configs: Sequence[FilterConfig]) -> CompositionModel:
    n = len(configs)
    if vec.size != 2 * n + 5:
        raise ValueError(f"vector length {vec.size} does not match 2*{n}+5 parameters")
    return CompositionModel(
        tuple(configs),
        BranchWeights(vec[:n], float(vec[n])),
        BranchWeights(vec[n + 1 : 2 * n + 1], float(vec[2 * n + 1])),
        MergeWeights(float(vec[2 * n + 2]), float(vec[2 * n + 3]), float(vec[2 * n + 4])),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_model(model: CompositionModel, path, training: dict | None = None) -> None:
    """Versioned JSON document; float repr keeps full precision.

    ``training`` records provenance (loss kind and weights, optimizer
    settings, seed); it is carried verbatim and ignored on load.
    """
    doc = {
        "format": MODEL_FORMAT,
        "configs": [cfg.canonical() for cfg in model.basis_configs],
        "content": {
            "weights": [float(w) for w in model.content.weights],
            "bias": model.content.bias,
        },
        "residual": {
            "weights": [float(w) for w in model.residual.weights],
            "bias": model.residual.bias,
        },
        "merge": {
            "w_content": model.merge.w_content,
            "w_residual_path": model.merge.w_residual_path,
            "bias": model.merge.bias,
        },
        "training": training,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model_document(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelDocumentError(f"not a valid model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelDocumentError("model document must be a JSON object")
    if "format" not in doc:
        raise ModelDocumentError("model document is missing the format field")
    if doc["format"] != MODEL_FORMAT:
        raise ModelVersionError(
            f"unsupported model format {doc['format']!r}, expected {MODEL_FORMAT!r}"
        )
    return doc


def load_model(path) -> CompositionModel:
    doc = load_model_document(path)
    try:
        configs = tuple(parse_config(text) for text in doc["configs"])
        content_doc = doc["content"]
        residual_doc = doc["residual"]
        merge_doc = doc["merge"]
        content = BranchWeights(np.asarray(content_doc["weights"], dtype=np.float64),
                                float(content_doc["bias"]))
        residual = BranchWeights(np.asarray(residual_doc["weights"], dtype=np.float64),
                                 float(residual_doc["bias"]))
        merge = MergeWeights(
            float(merge_doc["w_content"]),
            float(merge_doc["w_residual_path"]),
            float(merge_doc["bias"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelDocumentError(f"malformed model document: {exc}") from exc
    for name, branch in (("content", content), ("residual", residual)):
        if branch.weights.size != len(configs):
            raise ModelCountError(
                f"{name} branch has {branch.weights.size} weights "
                f"for {len(configs)} configs"
            )
    return CompositionModel(configs, content, residual, merge)
