"""Dual-branch channel-blending model: forward pass, loss, analytic gradients.

The model is linear: a content branch blends the basis planes, a residual
branch blends the residual planes source - plane, and a merge layer combines
the content estimate with source - residual estimate.  All weights are
shared across color channels, so a magnitude-n basis trains 2n + 5 scalars,
held as one vector (``CompositionModel.params``).

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

from .basis import FilteredBasis, _read_text
from .filters import FilterConfig, parse_config
from .image import Image
from .metrics import tv_of_array

MODEL_FORMAT = "cfmodel/1"
LOSS_KINDS = ("mse", "l1_tv")


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
class CompositionModel:
    """The config list documenting the expected inputs plus the whole
    learnable state, one read-only float64 vector of 2n + 5 parameters laid
    out as [wc (n), bc, wr (n), br, w1, w2, bm]: the content weights and
    bias, the residual weights and bias, the merge weights of the content
    and restored outputs, and the merge bias.  ``_unpack`` is the one place
    that slices this layout.  The constructor copies ``params``.
    """

    basis_configs: tuple[FilterConfig, ...]
    params: np.ndarray

    def __post_init__(self):
        n = len(self.basis_configs)
        if n < 1:
            raise ValueError("model needs at least one basis config")
        params = np.array(self.params, dtype=np.float64)
        if params.shape != (2 * n + 5,):
            raise ValueError(f"parameter vector length {params.size} does not match 2*{n}+5")
        if not np.isfinite(params).all():  # name the first bad one, e.g. wr[2] or bm
            names = ("wc", "bc", "wr", "br", "w1", "w2", "bm")
            for name, bad in zip(names, _unpack(~np.isfinite(params))):
                if np.any(bad):
                    at = f"[{np.flatnonzero(bad)[0]}]" if np.ndim(bad) else ""
                    raise ValueError(f"parameter {name}{at} must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "basis_configs", tuple(self.basis_configs))
        object.__setattr__(self, "params", params)

    @property
    def magnitude(self) -> int:
        return len(self.basis_configs)


def _unpack(params: np.ndarray) -> tuple:
    """(wc, bc, wr, br, w1, w2, bm) of a 2n + 5 vector: the weight vectors
    as views, the biases and merge weights as scalars."""
    n = (params.size - 5) // 2
    wc, bc, wr, br = params[:n], params[n], params[n + 1 : 2 * n + 1], params[2 * n + 1]
    return wc, bc, wr, br, params[2 * n + 2], params[2 * n + 3], params[2 * n + 4]


def model_to_vector(model: CompositionModel) -> np.ndarray:
    """A writable copy of ``model.params``."""
    return model.params.copy()


def vector_to_model(vec: np.ndarray, configs: Sequence[FilterConfig]) -> CompositionModel:
    """``CompositionModel(configs, vec)``; ``vec`` is copied."""
    return CompositionModel(configs, vec)


def init_model(configs: Sequence[FilterConfig]) -> CompositionModel:
    """Uniform-average start: both branches average their planes, the merge
    splits evenly."""
    n = len(configs)
    uniform = np.full(n, 1.0) / n  # empty for no configs, which the model rejects
    return CompositionModel(
        configs, np.concatenate([uniform, [0.0], uniform, [0.0, 0.5, 0.5, 0.0]])
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
    wc, bc, wr, br, w1, w2, bm = _unpack(model.params)
    n = model.magnitude
    coeffs = np.empty((3, n + 2))
    content, restored, merged = coeffs
    content[:n] = wc
    content[n:] = 0.0, bc
    restored[:n] = wr
    restored[n:] = 1.0 - wr.sum(), -br
    np.multiply(w1, content, out=merged)
    merged += w2 * restored
    merged[-1] += bm
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
    the parameters in the ``CompositionModel`` layout."""
    n = model.magnitude
    d_merged = d_coeffs[2]
    _, _, _, _, w1, w2, _ = _unpack(model.params)
    content, restored = d_coeffs[:2] + np.array([[w1], [w2]]) * d_merged
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
    as one vector in the ``CompositionModel`` layout.

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
# Persistence
# ---------------------------------------------------------------------------


def save_model(model: CompositionModel, path, training: dict | None = None) -> None:
    """Versioned JSON document; float repr keeps full precision.

    ``training`` records provenance (loss kind and weights, optimizer
    settings, seed); it is carried verbatim and ignored on load.
    """
    wc, bc, wr, br, w1, w2, bm = _unpack(model.params)
    doc = {
        "format": MODEL_FORMAT,
        "configs": [cfg.canonical() for cfg in model.basis_configs],
        "content": {"weights": wc.tolist(), "bias": float(bc)},
        "residual": {"weights": wr.tolist(), "bias": float(br)},
        "merge": {"w_content": float(w1), "w_residual_path": float(w2), "bias": float(bm)},
        "training": training,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model_document(path) -> dict:
    """The JSON object of a model file, its format checked; every error
    names ``path``."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model document must be a JSON object")
    if "format" not in doc:
        raise ValueError(f"{path}: model document is missing the format field")
    if doc["format"] != MODEL_FORMAT:
        raise ValueError(
            f"{path}: unsupported model format {doc['format']!r}, expected {MODEL_FORMAT!r}"
        )
    return doc


def load_model(path) -> CompositionModel:
    """Read a ``save_model`` document.  A bad field, a branch weight count
    that differs from the config count, a non-finite weight or a malformed
    config is a ``ValueError`` that names ``path``."""
    doc = load_model_document(path)
    try:
        configs = tuple(parse_config(text) for text in doc["configs"])
        content, residual, merge = doc["content"], doc["residual"], doc["merge"]
        wc = np.asarray(content["weights"], dtype=np.float64)
        wr = np.asarray(residual["weights"], dtype=np.float64)
        params = np.concatenate([
            wc, [float(content["bias"])], wr, [float(residual["bias"])],
            [float(merge["w_content"]), float(merge["w_residual_path"]), float(merge["bias"])],
        ])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model document: {exc}") from exc
    for name, weights in (("content", wc), ("residual", wr)):
        if weights.size != len(configs):
            raise ValueError(
                f"{path}: {name} branch has {weights.size} weights for {len(configs)} configs"
            )
    try:
        return CompositionModel(configs, params)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model document: {exc}") from exc
