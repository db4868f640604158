import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcompose import (
    BranchWeights,
    CompositionModel,
    Gaussian,
    Image,
    LossWeights,
    Median,
    MergeWeights,
    build_basis,
    build_residuals,
    forward,
    gradients,
    init_model,
    load_model,
    save_model,
    total_loss,
)
from fbcompose.basis import FilteredBasis
from fbcompose.metrics import tv_of_array
from fbcompose.model import (
    ForwardOutputs,
    ModelCountError,
    ModelDocumentError,
    ModelVersionError,
    gram_gradients,
    gram_matrix,
    model_to_vector,
    vector_to_model,
)

from synth import synthetic_clean


def _dummy_configs(n):
    return tuple(Gaussian(0.5 + 0.1 * i) for i in range(n))


def _synthetic_problem(rng, n, height, width, channels=1):
    """Random basis plus target; planes need not come from real filters for
    gradient math."""
    source = Image(rng.random((channels, height, width)))
    planes = tuple(Image(rng.random((channels, height, width))) for _ in range(n))
    basis = FilteredBasis(source, _dummy_configs(n), planes)
    gt_clean = Image(rng.random((channels, height, width)))
    return basis, gt_clean


def _random_model(rng, configs):
    n = len(configs)
    return CompositionModel(
        tuple(configs),
        BranchWeights(rng.normal(0, 0.6, n), float(rng.normal(0, 0.2))),
        BranchWeights(rng.normal(0, 0.6, n), float(rng.normal(0, 0.2))),
        MergeWeights(float(rng.normal(0.5, 0.3)), float(rng.normal(0.5, 0.3)), float(rng.normal(0, 0.2))),
    )


def fd_gradients(model, basis, gt_clean, lw, kind, tv_weight, h=1e-4):
    """Central-difference oracle over the flat parameter vector."""
    vec = model_to_vector(model)
    out = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        loss_up, _ = total_loss(
            forward(vector_to_model(up, model.basis_configs), basis),
            gt_clean, lw, kind, tv_weight,
        )
        loss_down, _ = total_loss(
            forward(vector_to_model(down, model.basis_configs), basis),
            gt_clean, lw, kind, tv_weight,
        )
        out[i] = (loss_up - loss_down) / (2.0 * h)
    return out


def _relative_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / scale)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_uniform_weights():
    model = init_model(_dummy_configs(4))
    assert np.all(model.content.weights == 0.25)
    assert np.all(model.residual.weights == 0.25)
    assert model.content.bias == 0.0 and model.residual.bias == 0.0
    assert (model.merge.w_content, model.merge.w_residual_path, model.merge.bias) == (0.5, 0.5, 0.0)


def test_initial_content_is_plain_mean_of_planes():
    rng = np.random.default_rng(80)
    basis, _ = _synthetic_problem(rng, 3, 6, 6)
    model = init_model(basis.configs)
    out = forward(model, basis)
    assert np.allclose(out.content, basis.tensor().mean(axis=0), atol=1e-12)


def test_init_randomized_mode_is_seed_deterministic_and_bounded():
    configs = _dummy_configs(5)
    a = init_model(configs, seed=7, randomized=True)
    b = init_model(configs, seed=7, randomized=True)
    c = init_model(configs, seed=8, randomized=True)
    assert np.array_equal(a.content.weights, b.content.weights)
    assert not np.array_equal(a.content.weights, c.content.weights)
    assert np.all(np.abs(a.content.weights) <= 1.0 / 5)
    assert np.all(np.abs(a.residual.weights) <= 1.0 / 5)


def test_model_validates_weight_lengths():
    with pytest.raises(ValueError):
        CompositionModel(
            _dummy_configs(3),
            BranchWeights(np.ones(2), 0.0),
            BranchWeights(np.ones(3), 0.0),
            MergeWeights(0.5, 0.5, 0.0),
        )


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_forward_one_hot_selects_plane_bitwise():
    rng = np.random.default_rng(81)
    basis, _ = _synthetic_problem(rng, 4, 5, 7)
    for hot in range(4):
        weights = np.zeros(4)
        weights[hot] = 1.0
        model = CompositionModel(
            basis.configs,
            BranchWeights(weights, 0.0),
            BranchWeights(np.zeros(4), 0.0),
            MergeWeights(1.0, 0.0, 0.0),
        )
        out = forward(model, basis)
        assert np.array_equal(out.content, basis.planes[hot].data)
        assert np.array_equal(out.merged, basis.planes[hot].data)


def test_forward_all_zero_weights_gives_zero_merged():
    rng = np.random.default_rng(82)
    basis, _ = _synthetic_problem(rng, 2, 4, 4)
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.zeros(2), 0.0),
        BranchWeights(np.zeros(2), 0.0),
        MergeWeights(0.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.all(out.merged == 0.0)


def test_forward_constant_planes_scalar_arithmetic():
    source = Image.constant(4, 4, 0.5)
    planes = (Image.constant(4, 4, 0.2), Image.constant(4, 4, 0.6))
    basis = FilteredBasis(source, _dummy_configs(2), planes)
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([0.5, 0.5]), 0.1),
        BranchWeights(np.zeros(2), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.allclose(out.content, 0.5, atol=1e-12)


def test_forward_magnitude_mismatch():
    rng = np.random.default_rng(83)
    basis, _ = _synthetic_problem(rng, 2, 4, 4)
    model = init_model(_dummy_configs(3))
    with pytest.raises(ValueError):
        forward(model, basis)


def test_forward_is_linear_in_planes_with_zero_biases():
    rng = np.random.default_rng(84)
    configs = _dummy_configs(3)
    source = Image(rng.random((1, 6, 6)))
    planes_a = tuple(Image(rng.random((1, 6, 6))) for _ in range(3))
    planes_b = tuple(Image(rng.random((1, 6, 6))) for _ in range(3))
    alpha, beta = 0.3, 0.5
    mixed = tuple(
        Image(alpha * a.data + beta * b.data) for a, b in zip(planes_a, planes_b)
    )
    model = CompositionModel(
        configs,
        BranchWeights(rng.normal(0, 1, 3), 0.0),
        BranchWeights(np.zeros(3), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )

    def content_of(planes):
        basis = FilteredBasis(source, configs, planes)
        return forward(model, basis).content

    lhs = content_of(mixed)
    rhs = alpha * content_of(planes_a) + beta * content_of(planes_b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reconstruction_consistency_through_merge():
    # Perfect residual branch plus merge (0, 1, 0) reproduces the target.
    img = synthetic_clean(85, width=12, height=12)
    noisy = Image(np.clip(img.data + 0.05, 0, 1))
    basis = FilteredBasis(noisy, _dummy_configs(1), (img,))  # plane == target
    # With wr = 1 and br = 0 the residual branch is noisy - target.
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.zeros(1), 0.0),
        BranchWeights(np.ones(1), 0.0),
        MergeWeights(0.0, 1.0, 0.0),
    )
    out = forward(model, basis)
    assert np.array_equal(out.merged, img.data)


def _residual_stack_reference(model, basis):
    """The forward pass written over an explicit residual stack."""
    source = basis.source.data
    content = np.tensordot(model.content.weights, basis.tensor(), axes=1) + model.content.bias
    residual = (
        np.tensordot(model.residual.weights, build_residuals(basis).tensor(), axes=1)
        + model.residual.bias
    )
    merged = (
        model.merge.w_content * content
        + model.merge.w_residual_path * (source - residual)
        + model.merge.bias
    )
    return content, residual, merged


def test_forward_matches_residual_stack_reference():
    rng = np.random.default_rng(96)
    for trial in range(100):
        n = int(rng.integers(1, 10))
        height, width = (int(v) for v in rng.integers(2, 9, 2))
        basis, _ = _synthetic_problem(rng, n, height, width, channels=3 if trial % 2 else 1)
        model = _random_model(rng, basis.configs)
        out = forward(model, basis)
        for got, want in zip((out.content, out.residual, out.merged),
                             _residual_stack_reference(model, basis)):
            assert np.max(np.abs(got - want)) <= 1e-12
        legacy = forward(model, basis, build_residuals(basis))
        for name in ("content", "residual", "merged", "source"):
            assert np.array_equal(getattr(legacy, name), getattr(out, name))


def test_outputs_clamp_only_on_export():
    source = Image.constant(4, 4, 0.9)
    basis = FilteredBasis(source, _dummy_configs(1), (Image.constant(4, 4, 0.9),))
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([2.0]), 0.0),  # content = 1.8, out of range
        BranchWeights(np.zeros(1), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.allclose(out.content, 1.8, atol=1e-12)
    assert np.all(out.content_image().data == 1.0)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def test_total_loss_zero_at_perfect_fit():
    rng = np.random.default_rng(86)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    gt_clean = basis.planes[0]
    total, components = total_loss(out, gt_clean)
    assert total == 0.0
    assert components == (0.0, 0.0, 0.0)


def test_total_loss_components_weighted_sum():
    # Components engineered to be exactly (1, 2, 3): diffs of 1 everywhere,
    # (2,2,0,0) and (2,2,2,0) on four samples.
    source = np.zeros((1, 2, 2))
    outputs = ForwardOutputs(
        content=np.full((1, 2, 2), 1.0),
        residual=np.array([[[2.0, 2.0], [0.0, 0.0]]]),
        merged=np.array([[[2.0, 2.0], [2.0, 0.0]]]),
        source=source,
    )
    gt_clean = Image(np.zeros((1, 2, 2)))
    total, components = total_loss(outputs, gt_clean)
    assert components == (1.0, 2.0, 3.0)
    assert total == 0.1 * 1.0 + 0.1 * 2.0 + 1.0 * 3.0
    assert abs(total - 3.3) < 1e-12


def test_total_loss_gamma_zero_reduces_to_content_only():
    rng = np.random.default_rng(87)
    basis, gt_clean = _synthetic_problem(rng, 2, 5, 5)
    model = _random_model(rng, basis.configs)
    out = forward(model, basis)
    lw = LossWeights(alpha=1.0, lam=0.0, gamma=0.0)
    total, components = total_loss(out, gt_clean, lw=lw)
    assert total == pytest.approx(components[0], abs=1e-15)


def test_total_loss_l1_tv_adds_tv_once():
    rng = np.random.default_rng(88)
    basis, gt_clean = _synthetic_problem(rng, 2, 5, 5)
    model = _random_model(rng, basis.configs)
    out = forward(model, basis)
    lw = LossWeights()
    base, components = total_loss(out, gt_clean, lw=lw, kind="l1_tv", tv_weight=0.0)
    with_tv, _ = total_loss(out, gt_clean, lw=lw, kind="l1_tv", tv_weight=0.25)
    assert with_tv == pytest.approx(base + 0.25 * tv_of_array(out.merged), abs=1e-12)
    # l1 components are mean absolute errors
    diff = np.mean(np.abs(out.content - gt_clean.data))
    assert components[0] == pytest.approx(diff, abs=1e-12)


def test_total_loss_shape_mismatch():
    rng = np.random.default_rng(89)
    basis, _ = _synthetic_problem(rng, 1, 4, 4)
    out = forward(init_model(basis.configs), basis)
    with pytest.raises(ValueError):
        total_loss(out, Image.constant(5, 4, 0.5))


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-0.1)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_gradients_zero_at_perfect_fit():
    rng = np.random.default_rng(90)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )
    gt_clean = basis.planes[0]
    loss, grads = gradients(model, basis, gt_clean)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_gradient_single_pixel_hand_value():
    # Single pixel, n=1, content-only: dL/dw = 2*(w*J + b - G)*J.
    source = Image.constant(1, 1, 0.5)
    basis = FilteredBasis(source, _dummy_configs(1), (Image.constant(1, 1, 0.5),))
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([1.0]), 0.0),
        BranchWeights(np.zeros(1), 0.0),
        MergeWeights(0.0, 0.0, 0.0),
    )
    gt = Image.constant(1, 1, 0.25)
    lw = LossWeights(alpha=1.0, lam=0.0, gamma=0.0)
    _, grads = gradients(model, basis, gt, lw=lw)
    # model_to_vector layout with n=1: [content_w, content_b, ...].
    assert grads[0] == pytest.approx(2 * (0.5 - 0.25) * 0.5, abs=1e-12)  # 0.25
    assert grads[1] == pytest.approx(2 * (0.5 - 0.25), abs=1e-12)


def test_gradients_match_finite_differences_mse():
    rng = np.random.default_rng(91)
    for n, channels in ((1, 1), (2, 1), (3, 1), (9, 1), (4, 3), (9, 3)):
        basis, gt_clean = _synthetic_problem(rng, n, 4, 4, channels)
        model = _random_model(rng, basis.configs)
        lw = LossWeights()
        loss, grads = gradients(model, basis, gt_clean, lw=lw)
        fd = fd_gradients(model, basis, gt_clean, lw, "mse", 0.0)
        assert _relative_error(grads, fd) < 1e-5
        assert loss > 0


def test_gradients_match_finite_differences_l1_tv():
    rng = np.random.default_rng(92)
    for n, channels in ((2, 1), (9, 1), (4, 3), (9, 3)):
        basis, gt_clean = _synthetic_problem(rng, n, 5, 5, channels)
        model = _random_model(rng, basis.configs)
        lw = LossWeights()
        _, grads = gradients(model, basis, gt_clean, lw=lw, kind="l1_tv", tv_weight=0.1)
        fd = fd_gradients(model, basis, gt_clean, lw, "l1_tv", 0.1)
        # Looser bound: |.| kinks limit finite-difference accuracy.
        assert _relative_error(grads, fd) < 1e-3


def test_gradients_decouple_with_gamma_zero():
    rng = np.random.default_rng(93)
    basis, gt_clean = _synthetic_problem(rng, 3, 5, 5)
    model = _random_model(rng, basis.configs)
    lw = LossWeights(alpha=0.7, lam=0.4, gamma=0.0)
    _, grads = gradients(model, basis, gt_clean, lw=lw)
    n = basis.magnitude
    # model_to_vector layout: the three merge partials sit at 2n+2 .. 2n+4.
    assert grads[2 * n + 2] == 0.0
    assert grads[2 * n + 3] == 0.0
    assert grads[2 * n + 4] == 0.0
    # Residual-branch gradients scale linearly with lam when gamma is 0.
    _, grads_double = gradients(
        model, basis, gt_clean, lw=LossWeights(alpha=0.7, lam=0.8, gamma=0.0)
    )
    residual_w = slice(n + 1, 2 * n + 1)
    assert np.allclose(grads_double[residual_w], 2.0 * grads[residual_w], rtol=1e-12)


# ---------------------------------------------------------------------------
# Gram-matrix objective
# ---------------------------------------------------------------------------

_loss_term = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    channels=st.sampled_from([1, 3]),
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    lw=st.builds(LossWeights, _loss_term, _loss_term, _loss_term),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_gradients_match_pixel_gradients(n, channels, height, width, lw, seed):
    rng = np.random.default_rng(seed)
    basis, gt_clean = _synthetic_problem(rng, n, height, width, channels)
    model = _random_model(rng, basis.configs)
    loss, grads = gradients(model, basis, gt_clean, lw, "mse")
    gram_loss, gram_grads = gram_gradients(model, gram_matrix(basis, gt_clean), lw)
    assert abs(gram_loss - loss) <= 1e-9 * loss
    assert np.max(np.abs(gram_grads - grads)) <= 1e-9 * np.max(np.abs(grads))


def test_gram_gradients_zero_at_perfect_fit():
    rng = np.random.default_rng(94)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        BranchWeights(np.array([1.0, 0.0]), 0.0),
        MergeWeights(1.0, 0.0, 0.0),
    )
    loss, grads = gram_gradients(model, gram_matrix(basis, basis.planes[0]))
    assert loss == 0.0
    assert np.max(np.abs(grads)) < 1e-14


def test_gram_shape_mismatches():
    rng = np.random.default_rng(95)
    basis, gt_clean = _synthetic_problem(rng, 2, 4, 4)
    with pytest.raises(ValueError):
        gram_matrix(basis, Image(rng.random((1, 4, 5))))
    model = init_model(_dummy_configs(3))
    with pytest.raises(ValueError):
        gram_gradients(model, gram_matrix(basis, gt_clean))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(94)
    configs = (Median(3, 5), Gaussian(0.30000000000000004), Median(1, 1))
    model = _random_model(rng, configs)
    path = tmp_path / "model.cfmodel"
    save_model(model, path, training={"loss_kind": "mse", "alpha": 0.1})
    loaded = load_model(path)
    assert loaded.basis_configs == configs
    assert np.array_equal(loaded.content.weights, model.content.weights)
    assert loaded.content.bias == model.content.bias
    assert np.array_equal(loaded.residual.weights, model.residual.weights)
    assert loaded.residual.bias == model.residual.bias
    assert loaded.merge == model.merge


def test_load_rejects_weight_count_mismatch(tmp_path):
    import json

    model = init_model(_dummy_configs(3))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["content"]["weights"] = doc["content"]["weights"][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelCountError) as err:
        load_model(path)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_load_rejects_missing_version(tmp_path):
    import json

    model = init_model(_dummy_configs(2))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["format"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelDocumentError):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    import json

    model = init_model(_dummy_configs(2))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format"] = "cfmodel/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError):
        load_model(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.cfmodel"
    path.write_text("{not json")
    with pytest.raises(ModelDocumentError):
        load_model(path)


def test_model_errors_are_distinct(tmp_path):
    assert not issubclass(ModelVersionError, ModelDocumentError)
    assert not issubclass(ModelDocumentError, ModelCountError)


def test_vector_round_trip():
    rng = np.random.default_rng(95)
    configs = _dummy_configs(4)
    model = _random_model(rng, configs)
    vec = model_to_vector(model)
    assert vec.size == 2 * 4 + 5
    back = vector_to_model(vec, configs)
    assert np.array_equal(model_to_vector(back), vec)
