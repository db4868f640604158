"""Dual-branch channel-blending model: forward pass, loss, analytic gradients.

The model is linear: a content branch blends the basis planes, a residual
branch blends the residual planes source - plane, and a merge layer combines
the content estimate with source - residual estimate.  All weights are
shared across color channels, so a magnitude-n basis trains 2n + 5 scalars.

Being linear, the model is declared once, as a 3 x (n + 2) coefficient
matrix over the columns [p_1..p_n, source, 1] whose rows give the content,
restored (source - residual) and merged outputs.  ``forward`` contracts it
with the planes; ``gradients`` (per pixel) and ``gram_gradients`` (from a
per-sample Gram matrix, "mse" only) both find the loss gradient with respect
to that matrix and share one chain from it to the weights.
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


def init_model(configs: Sequence[FilterConfig]) -> CompositionModel:
    """Uniform-average start: both branches average their planes, the merge
    splits evenly."""
    n = len(configs)
    if n < 1:
        raise ValueError("model needs at least one basis config")
    return CompositionModel(
        tuple(configs),
        BranchWeights(np.full(n, 1.0 / n), 0.0),
        BranchWeights(np.full(n, 1.0 / n), 0.0),
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


def _coefficients(model: CompositionModel) -> np.ndarray:
    """The model as one linear map: rows content, restored = source -
    residual and merged = w1*content + w2*restored + bm, over the columns
    [p_1..p_n, source, 1]."""
    n = model.magnitude
    wr = model.residual.weights
    coeffs = np.empty((3, n + 2))
    content, restored, merged = coeffs
    content[:n] = model.content.weights
    content[n:] = 0.0, model.content.bias
    restored[:n] = wr
    restored[n:] = 1.0 - wr.sum(), -model.residual.bias
    np.multiply(model.merge.w_content, content, out=merged)
    merged += model.merge.w_residual_path * restored
    merged[-1] += model.merge.bias
    return coeffs


def forward(model: CompositionModel, basis: FilteredBasis, residuals=None) -> ForwardOutputs:
    """Per pixel and channel: content = sum_i wc[i]*plane[i] + bc, residual =
    sum_i wr[i]*(source - plane[i]) + br, merged = w1*content + w2*(source -
    residual) + bm.

    All three outputs come from one contraction of the model's coefficient
    matrix with the planes and the source.  ``residuals`` is never read: it
    is kept only for three-argument callers until the benchmark's next
    update.
    """
    if basis.magnitude != model.magnitude:
        raise ValueError(
            f"basis magnitude {basis.magnitude} does not match model magnitude {model.magnitude}"
        )
    n = model.magnitude
    source = basis.source.data
    coeffs = _coefficients(model)
    outputs = (coeffs[:, :n] @ basis.tensor().reshape(n, -1)).reshape((3,) + source.shape)
    outputs += np.multiply.outer(coeffs[:, n], source)
    outputs += coeffs[:, n + 1, None, None, None]
    content, restored, merged = outputs
    return ForwardOutputs(content, source - restored, merged, source)


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


def _chain(model: CompositionModel, coeffs: np.ndarray, d_coeffs: np.ndarray) -> np.ndarray:
    """The loss gradient with respect to the coefficient matrix, chained into
    the weights in the ``model_to_vector`` layout."""
    n = model.magnitude
    d_merged = d_coeffs[2]
    merge = np.array([[model.merge.w_content], [model.merge.w_residual_path]])
    content, restored = d_coeffs[:2] + merge * d_merged
    return np.concatenate(
        [
            content[:n],
            content[n + 1 :],
            restored[:n] - restored[n],
            -restored[n + 1 :],
            [d_merged @ coeffs[0], d_merged @ coeffs[1], d_merged[n + 1]],
        ]
    )


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

    The per-pixel adjoints of the content, restored and merged outputs are
    contracted with the coefficient matrix's columns; for "l1_tv" the
    subgradient of |.| at exact zeros is 0.
    """
    out = forward(model, basis)
    target = gt_clean.data
    total, _ = total_loss(out, gt_clean, lw, kind, tv_weight)

    # Each output minus its target; the residual's target is source - clean.
    errors = np.stack(
        [out.content - target, out.residual - (out.source - target), out.merged - target]
    )
    count = target.size
    d = (2.0 / count) * errors if kind == "mse" else np.sign(errors) / count
    # Adjoints of the content, restored and merged rows: restored = source -
    # residual, so the residual term's sign flips.
    adjoints = np.array([lw.alpha, -lw.lam, lw.gamma])[:, None, None, None] * d
    if kind == "l1_tv" and tv_weight != 0.0:
        adjoints[2] += tv_weight * _tv_adjoint(out.merged)

    pixels = (1, 2, 3)
    d_coeffs = np.column_stack(
        [
            np.tensordot(adjoints, basis.tensor(), axes=(pixels, pixels)),
            np.tensordot(adjoints, out.source, axes=3),
            adjoints.sum(axis=pixels),
        ]
    )
    return total, _chain(model, _coefficients(model), d_coeffs)


# ---------------------------------------------------------------------------
# Gram-matrix form of the "mse" objective
# ---------------------------------------------------------------------------


def gram_matrix(basis: FilteredBasis, gt_clean: Image) -> np.ndarray:
    """Mean Gram matrix X^T X / count of the columns X = [p_1..p_n, source,
    1, target], with one row per pixel and channel.

    Every output of the model is a combination of the first n + 2 columns
    (the coefficient matrix's), and every target adds the last one, so a
    sample's "mse" objective and its gradients depend on its data only
    through this (n + 3) x (n + 3) matrix (see ``gram_gradients``).  It is
    built from the dot products of the flattened columns, so no buffer
    larger than one plane is allocated.
    """
    target = gt_clean.data
    if target.shape != basis.source.shape:
        raise ValueError(
            f"target shape {target.shape} does not match basis {basis.source.shape}"
        )
    columns = [plane.data.ravel() for plane in basis.planes]
    columns += [basis.source.data.ravel(), np.ones(target.size), target.ravel()]
    return np.array([[a @ b for b in columns] for a in columns]) / target.size


def gram_gradients(
    model: CompositionModel, gram: np.ndarray, lw: LossWeights = LossWeights()
) -> tuple[float, np.ndarray]:
    """``gradients(model, basis, gt_clean, lw, "mse")`` computed in O(n^2)
    from the sample's ``gram_matrix`` alone.

    Each output minus the clean target (the restored output's error is the
    residual error negated) is X @ e for a row e of the coefficient matrix
    extended by -1 on the target column, so its mean square is e^T G e and
    its gradient with respect to the coefficients is 2 G e.  Each loss
    component is floored at 0, since e^T G e can round below zero at an
    exact fit.
    """
    n = model.magnitude
    if gram.shape != (n + 3, n + 3):
        raise ValueError(
            f"Gram matrix shape {gram.shape} does not match model magnitude {n}"
        )
    coeffs = _coefficients(model)
    errors = np.column_stack([coeffs, np.full(3, -1.0)])
    projected = errors @ gram
    l_c, l_r, l_m = (max(float(v), 0.0) for v in (errors * projected).sum(axis=1))
    total = lw.alpha * l_c + lw.lam * l_r + lw.gamma * l_m
    weights = np.array([[lw.alpha], [lw.lam], [lw.gamma]])
    return float(total), _chain(model, coeffs, 2.0 * weights * projected[:, : n + 2])


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
