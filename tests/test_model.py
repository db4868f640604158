import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcompose import (
    BUILTIN_PRESETS,
    CompositionModel,
    Gaussian,
    Image,
    Loss,
    Median,
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
    basis = FilteredBasis(source, _dummy_configs(n), np.stack([p.data for p in planes]))
    gt_clean = Image(rng.random((channels, height, width)))
    return basis, gt_clean


def _params(wc, bc, wr, br, w1, w2, bm):
    """The documented 2n + 5 layout, packed independently of the model code."""
    return np.concatenate([wc, [bc], wr, [br, w1, w2, bm]])


def _random_model(rng, configs):
    n = len(configs)
    return CompositionModel(
        tuple(configs),
        _params(
            rng.normal(0, 0.6, n), rng.normal(0, 0.2),
            rng.normal(0, 0.6, n), rng.normal(0, 0.2),
            rng.normal(0.5, 0.3), rng.normal(0.5, 0.3), rng.normal(0, 0.2),
        ),
    )


def fd_gradients(model, basis, gt_clean, loss, h=1e-4):
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
            gt_clean, loss,
        )
        loss_down, _ = total_loss(
            forward(vector_to_model(down, model.basis_configs), basis),
            gt_clean, loss,
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
    uniform = np.full(4, 0.25)
    assert np.array_equal(model.params, _params(uniform, 0.0, uniform, 0.0, 0.5, 0.5, 0.0))


def test_initial_content_is_plain_mean_of_planes():
    rng = np.random.default_rng(80)
    basis, _ = _synthetic_problem(rng, 3, 6, 6)
    model = init_model(basis.configs)
    out = forward(model, basis)
    assert np.allclose(out.content, basis.tensor().mean(axis=0), atol=1e-12)


def test_model_validates_weight_lengths():
    with pytest.raises(ValueError):
        CompositionModel(
            _dummy_configs(3),
            _params(np.ones(2), 0.0, np.ones(3), 0.0, 0.5, 0.5, 0.0),
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
            _params(weights, 0.0, np.zeros(4), 0.0, 1.0, 0.0, 0.0),
        )
        out = forward(model, basis)
        assert np.array_equal(out.content, basis.planes[hot].data)
        assert np.array_equal(out.merged, basis.planes[hot].data)


def test_forward_all_zero_weights_gives_zero_merged():
    rng = np.random.default_rng(82)
    basis, _ = _synthetic_problem(rng, 2, 4, 4)
    model = CompositionModel(
        basis.configs,
        _params(np.zeros(2), 0.0, np.zeros(2), 0.0, 0.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.all(out.merged == 0.0)


def test_forward_constant_planes_scalar_arithmetic():
    source = Image.constant(4, 4, 0.5)
    planes = (Image.constant(4, 4, 0.2), Image.constant(4, 4, 0.6))
    basis = FilteredBasis(source, _dummy_configs(2), np.stack([p.data for p in planes]))
    model = CompositionModel(
        basis.configs,
        _params(np.array([0.5, 0.5]), 0.1, np.zeros(2), 0.0, 1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.allclose(out.content, 0.5, atol=1e-12)


def test_forward_magnitude_mismatch():
    rng = np.random.default_rng(83)
    basis, _ = _synthetic_problem(rng, 2, 4, 4)
    model = init_model(_dummy_configs(3))
    with pytest.raises(ValueError):
        forward(model, basis)


def test_forward_rejects_a_basis_of_other_configs_of_the_same_count():
    # Equal config counts are not enough: the configs themselves must match.
    source = Image(np.random.default_rng(85).random((1, 6, 6)))
    basis = build_basis(source, BUILTIN_PRESETS["median8"]())
    model = init_model(BUILTIN_PRESETS["rgf8"]())
    with pytest.raises(ValueError, match="do not match") as info:
        forward(model, basis)
    for cfg in basis.configs + model.basis_configs:
        assert cfg.canonical() in str(info.value)


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
        _params(rng.normal(0, 1, 3), 0.0, np.zeros(3), 0.0, 1.0, 0.0, 0.0),
    )

    def content_of(planes):
        basis = FilteredBasis(source, configs, np.stack([p.data for p in planes]))
        return forward(model, basis).content

    lhs = content_of(mixed)
    rhs = alpha * content_of(planes_a) + beta * content_of(planes_b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reconstruction_consistency_through_merge():
    # Perfect residual branch plus merge (0, 1, 0) reproduces the target.
    img = synthetic_clean(85, width=12, height=12)
    noisy = Image(np.clip(img.data + 0.05, 0, 1))
    basis = FilteredBasis(noisy, _dummy_configs(1), np.stack([img.data]))  # plane == target
    # With wr = 1 and br = 0 the residual branch is noisy - target.
    model = CompositionModel(
        basis.configs,
        _params(np.zeros(1), 0.0, np.ones(1), 0.0, 0.0, 1.0, 0.0),
    )
    out = forward(model, basis)
    assert np.array_equal(out.merged, img.data)


def _residual_stack_reference(model, basis):
    """The forward pass written over an explicit residual stack: content,
    residual and merged."""
    source = basis.source.data
    n, params = model.magnitude, model.params
    wc, bc = params[:n], params[n]
    wr, br = params[n + 1 : 2 * n + 1], params[2 * n + 1]
    w1, w2, bm = params[2 * n + 2 :]
    content = np.tensordot(wc, basis.tensor(), axes=1) + bc
    residual = np.tensordot(wr, build_residuals(basis).tensor(), axes=1) + br
    merged = w1 * content + w2 * (source - residual) + bm
    return content, residual, merged


def test_forward_matches_residual_stack_reference():
    rng = np.random.default_rng(96)
    for trial in range(100):
        n = int(rng.integers(1, 10))
        height, width = (int(v) for v in rng.integers(2, 9, 2))
        basis, _ = _synthetic_problem(rng, n, height, width, channels=3 if trial % 2 else 1)
        model = _random_model(rng, basis.configs)
        out = forward(model, basis)
        content, residual, merged = _residual_stack_reference(model, basis)
        restored = basis.source.data - residual
        for got, want in zip((out.content, out.restored, out.merged), (content, restored, merged)):
            assert np.max(np.abs(got - want)) <= 1e-12
        legacy = forward(model, basis, build_residuals(basis))
        for name in ("content", "restored", "merged"):
            assert np.array_equal(getattr(legacy, name), getattr(out, name))


def test_forward_outputs_are_the_three_rows():
    assert [f.name for f in fields(ForwardOutputs)] == ["rows"]
    rng = np.random.default_rng(95)
    basis, _ = _synthetic_problem(rng, 3, 5, 6, channels=3)
    out = forward(_random_model(rng, basis.configs), basis)
    assert out.rows.shape == (3,) + basis.source.shape
    for index, name in enumerate(("content", "restored", "merged")):
        row = getattr(out, name)
        assert np.shares_memory(row, out.rows)
        assert np.array_equal(row, out.rows[index])


@pytest.mark.parametrize("kind", ["mse", "l1_tv"])
@pytest.mark.parametrize("channels", [1, 3])
def test_residual_term_scores_the_residual_against_the_artifact(kind, channels):
    # L_r scores restored - clean; it must equal the residual branch's error
    # against the signed artifact source - clean, over an explicit stack.
    rng = np.random.default_rng(97 + channels)
    f = np.square if kind == "mse" else np.abs
    for _ in range(20):
        n = int(rng.integers(1, 6))
        basis, gt_clean = _synthetic_problem(rng, n, 6, 7, channels)
        model = _random_model(rng, basis.configs)
        _, residual, _ = _residual_stack_reference(model, basis)
        want = np.mean(f(residual - (basis.source.data - gt_clean.data)))
        _, (_, l_r, _) = total_loss(forward(model, basis), gt_clean, Loss(kind=kind))
        assert abs(l_r - want) <= 1e-12


def test_outputs_clamp_only_on_export():
    source = Image.constant(4, 4, 0.9)
    basis = FilteredBasis(source, _dummy_configs(1), np.stack([Image.constant(4, 4, 0.9).data]))
    model = CompositionModel(
        basis.configs,
        # content = 1.8, out of range
        _params(np.array([2.0]), 0.0, np.zeros(1), 0.0, 1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    assert np.allclose(out.content, 1.8, atol=1e-12)
    assert np.all(Image(out.content).data == 1.0)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def test_total_loss_zero_at_perfect_fit():
    rng = np.random.default_rng(86)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        _params(np.array([1.0, 0.0]), 0.0, np.array([1.0, 0.0]), 0.0, 1.0, 0.0, 0.0),
    )
    out = forward(model, basis)
    gt_clean = basis.planes[0]
    total, components = total_loss(out, gt_clean)
    assert total == 0.0
    assert components == (0.0, 0.0, 0.0)


def test_total_loss_components_weighted_sum():
    # Components engineered to be exactly (1, 2, 3): diffs of 1 everywhere,
    # (2,2,0,0) and (2,2,2,0) on four samples.  The source is 0, so restored
    # = source - residual for a residual of (2,2,0,0).
    source = np.zeros((1, 2, 2))
    content = np.full((1, 2, 2), 1.0)
    restored = source - np.array([[[2.0, 2.0], [0.0, 0.0]]])
    merged = np.array([[[2.0, 2.0], [2.0, 0.0]]])
    outputs = ForwardOutputs(np.stack([content, restored, merged]))
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
    total, components = total_loss(out, gt_clean, Loss(alpha=1.0, lam=0.0, gamma=0.0))
    assert total == pytest.approx(components[0], abs=1e-15)


def test_total_loss_l1_tv_adds_tv_once():
    rng = np.random.default_rng(88)
    basis, gt_clean = _synthetic_problem(rng, 2, 5, 5)
    model = _random_model(rng, basis.configs)
    out = forward(model, basis)
    base, components = total_loss(out, gt_clean, Loss(kind="l1_tv"))
    with_tv, _ = total_loss(out, gt_clean, Loss(kind="l1_tv", tv_weight=0.25))
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
    for kwargs, field in (
        ({"alpha": -0.1}, "alpha"),
        ({"lam": float("nan")}, "lam"),
        ({"gamma": float("inf")}, "gamma"),
        ({"kind": "huber"}, "kind"),
        ({"kind": "l1_tv", "tv_weight": -0.1}, "tv_weight"),
        ({"tv_weight": 0.5}, "tv_weight"),  # only l1_tv reads it
    ):
        with pytest.raises(ValueError, match=field):
            Loss(**kwargs)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_gradients_zero_at_perfect_fit():
    rng = np.random.default_rng(90)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        _params(np.array([1.0, 0.0]), 0.0, np.array([1.0, 0.0]), 0.0, 1.0, 0.0, 0.0),
    )
    gt_clean = basis.planes[0]
    loss, grads = gradients(model, basis, gt_clean)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_gradient_single_pixel_hand_value():
    # Single pixel, n=1, content-only: dL/dw = 2*(w*J + b - G)*J.
    source = Image.constant(1, 1, 0.5)
    basis = FilteredBasis(source, _dummy_configs(1), np.stack([Image.constant(1, 1, 0.5).data]))
    model = CompositionModel(
        basis.configs,
        _params(np.array([1.0]), 0.0, np.zeros(1), 0.0, 0.0, 0.0, 0.0),
    )
    gt = Image.constant(1, 1, 0.25)
    _, grads = gradients(model, basis, gt, Loss(alpha=1.0, lam=0.0, gamma=0.0))
    # model_to_vector layout with n=1: [content_w, content_b, ...].
    assert grads[0] == pytest.approx(2 * (0.5 - 0.25) * 0.5, abs=1e-12)  # 0.25
    assert grads[1] == pytest.approx(2 * (0.5 - 0.25), abs=1e-12)


def test_gradients_match_finite_differences_mse():
    rng = np.random.default_rng(91)
    for n, channels in ((1, 1), (2, 1), (3, 1), (9, 1), (4, 3), (9, 3)):
        basis, gt_clean = _synthetic_problem(rng, n, 4, 4, channels)
        model = _random_model(rng, basis.configs)
        loss, grads = gradients(model, basis, gt_clean, Loss())
        fd = fd_gradients(model, basis, gt_clean, Loss())
        assert _relative_error(grads, fd) < 1e-5
        assert loss > 0


def test_gradients_match_finite_differences_l1_tv():
    rng = np.random.default_rng(92)
    for n, channels in ((2, 1), (9, 1), (4, 3), (9, 3)):
        basis, gt_clean = _synthetic_problem(rng, n, 5, 5, channels)
        model = _random_model(rng, basis.configs)
        objective = Loss(kind="l1_tv", tv_weight=0.1)
        _, grads = gradients(model, basis, gt_clean, objective)
        fd = fd_gradients(model, basis, gt_clean, objective)
        # Looser bound: |.| kinks limit finite-difference accuracy.
        assert _relative_error(grads, fd) < 1e-3


def test_gradients_decouple_with_gamma_zero():
    rng = np.random.default_rng(93)
    basis, gt_clean = _synthetic_problem(rng, 3, 5, 5)
    model = _random_model(rng, basis.configs)
    _, grads = gradients(model, basis, gt_clean, Loss(alpha=0.7, lam=0.4, gamma=0.0))
    n = basis.magnitude
    # model_to_vector layout: the three merge partials sit at 2n+2 .. 2n+4.
    assert grads[2 * n + 2] == 0.0
    assert grads[2 * n + 3] == 0.0
    assert grads[2 * n + 4] == 0.0
    # Residual-branch gradients scale linearly with lam when gamma is 0.
    _, grads_double = gradients(
        model, basis, gt_clean, Loss(alpha=0.7, lam=0.8, gamma=0.0)
    )
    residual_w = slice(n + 1, 2 * n + 1)
    assert np.allclose(grads_double[residual_w], 2.0 * grads[residual_w], rtol=1e-12)


# ---------------------------------------------------------------------------
# Gram-matrix objective
# ---------------------------------------------------------------------------

# A subnormal term weight makes subnormal gradients, which hold too few
# significant bits for any relative bound; such weights are left out.
_loss_term = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    channels=st.sampled_from([1, 3]),
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    objective=st.builds(Loss, _loss_term, _loss_term, _loss_term),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_gradients_match_pixel_gradients(n, channels, height, width, objective, seed):
    rng = np.random.default_rng(seed)
    basis, gt_clean = _synthetic_problem(rng, n, height, width, channels)
    model = _random_model(rng, basis.configs)
    loss, grads = gradients(model, basis, gt_clean, objective)
    gram_loss, gram_grads = gram_gradients(model, gram_matrix(basis, gt_clean), objective)
    assert abs(gram_loss - loss) <= 1e-9 * loss
    assert np.max(np.abs(gram_grads - grads)) <= 1e-9 * np.max(np.abs(grads))


def test_gram_gradients_zero_at_perfect_fit():
    rng = np.random.default_rng(94)
    basis, _ = _synthetic_problem(rng, 2, 5, 5)
    model = CompositionModel(
        basis.configs,
        _params(np.array([1.0, 0.0]), 0.0, np.array([1.0, 0.0]), 0.0, 1.0, 0.0, 0.0),
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


def test_gram_gradients_reject_a_non_mse_loss():
    # The Gram form is exact only for squared errors.
    rng = np.random.default_rng(96)
    basis, gt_clean = _synthetic_problem(rng, 2, 4, 4)
    with pytest.raises(ValueError, match="'mse'"):
        gram_gradients(init_model(basis.configs), gram_matrix(basis, gt_clean), Loss(kind="l1_tv"))


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
    assert np.array_equal(loaded.params, model.params)


def test_load_rejects_weight_count_mismatch(tmp_path):
    import json

    model = init_model(_dummy_configs(3))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["content"]["weights"] = doc["content"]["weights"][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="content branch has 2 weights for 3 configs") as err:
        load_model(path)
    assert "2" in str(err.value) and "3" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_load_rejects_missing_version(tmp_path):
    import json

    model = init_model(_dummy_configs(2))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["format"]
    path.write_text(json.dumps(doc))
    message = f"{path}: model document is missing the format field"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    import json

    model = init_model(_dummy_configs(2))
    path = tmp_path / "model.cfmodel"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format"] = "cfmodel/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported model format 'cfmodel/99'")):
        load_model(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.cfmodel"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid model document")):
        load_model(path)
    path.write_text("[]")
    with pytest.raises(ValueError, match=re.escape(f"{path}: model document must be")):
        load_model(path)


def test_load_rejects_a_config_naming_a_parameter_twice(tmp_path):
    import json

    path = tmp_path / "model.cfmodel"
    save_model(init_model(_dummy_configs(2)), path)
    doc = json.loads(path.read_text())
    doc["configs"][1] = "bilateral:ss=0.5,ss=0.9,sr=1.5,k=15"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameter 'ss' appears twice") as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: malformed model document: bad filter config")
    assert "parameter 'ss' appears twice" in str(err.value)


@pytest.mark.parametrize(
    "branch, field, value, shown",
    [
        ("content", "weights", [True, 0.5], "true"),
        ("residual", "weights", [0.5, False], "false"),
        ("content", "bias", False, "false"),
        ("merge", "w_content", True, "true"),
        ("merge", "bias", "0.5", '"0.5"'),
        ("residual", "bias", 10**400, None),  # float() overflows
    ],
    ids=["weight-true", "weight-false", "bias-false", "merge-true", "bias-string", "bias-huge-int"],
)
def test_load_rejects_a_non_number_weight(tmp_path, branch, field, value, shown):
    # float() reads true as 1.0, false as 0.0 and "0.5" as 0.5.
    import json

    path = tmp_path / "model.cfmodel"
    save_model(init_model(_dummy_configs(2)), path)
    doc = json.loads(path.read_text())
    doc[branch][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: malformed model document: ")
    if shown is not None:
        assert str(err.value).endswith(f"expected a number, got {shown}")


def test_vector_round_trip():
    rng = np.random.default_rng(95)
    configs = _dummy_configs(4)
    model = _random_model(rng, configs)
    vec = model_to_vector(model)
    assert vec.size == 2 * 4 + 5
    back = vector_to_model(vec, configs)
    assert np.array_equal(model_to_vector(back), vec)


_GOLDEN_MODEL_TEXT = """\
{
  "format": "cfmodel/1",
  "configs": [
    "median:3x5",
    "gauss:ss=0.30000000000000004"
  ],
  "content": {
    "weights": [
      0.30000000000000004,
      0.3333333333333333
    ],
    "bias": -2.5e-07
  },
  "residual": {
    "weights": [
      -0.0,
      1e-300
    ],
    "bias": 0.7071067811865476
  },
  "merge": {
    "w_content": 1e+20,
    "w_residual_path": -0.14285714285714285,
    "bias": 12345.678901234567
  },
  "training": {
    "loss_kind": "mse",
    "alpha": 0.1,
    "seed": 7
  }
}
"""


def test_save_model_writes_golden_bytes(tmp_path):
    params = np.array(
        [0.1 + 0.2, 1 / 3, -2.5e-07, -0.0, 1e-300, 0.7071067811865476, 1e20, -1 / 7,
         12345.678901234567]
    )
    model = vector_to_model(params, (Median(3, 5), Gaussian(0.30000000000000004)))
    path = tmp_path / "model.cfmodel"
    save_model(model, path, training={"loss_kind": "mse", "alpha": 0.1, "seed": 7})
    assert path.read_text() == _GOLDEN_MODEL_TEXT


def test_model_copies_params_and_vector_is_a_writable_copy():
    configs = _dummy_configs(2)
    params = np.arange(9.0)
    model = CompositionModel(configs, params)
    via_vector = vector_to_model(params, configs)
    params[:] = -1.0
    assert np.array_equal(model.params, np.arange(9.0))
    assert np.array_equal(via_vector.params, np.arange(9.0))
    assert not model.params.flags.writeable
    vec = model_to_vector(model)
    vec[0] = 42.0
    assert model.params[0] == 0.0


# n = 3: wc is 0..2, bc 3, wr 4..6, br 7, then w1, w2, bm.
@pytest.mark.parametrize(
    "index, name",
    [(0, "wc[0]"), (3, "bc"), (6, "wr[2]"), (7, "br"), (8, "w1"), (9, "w2"), (10, "bm")],
)
def test_model_names_the_nonfinite_parameter(index, name):
    params = np.zeros(11)
    params[-1] = np.nan  # a later non-finite value is not the one named
    params[index] = np.nan if index % 2 else np.inf
    with pytest.raises(ValueError, match=rf"parameter {re.escape(name)} must be finite"):
        CompositionModel(_dummy_configs(3), params)


def test_model_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="length 10 does not match 2\\*3\\+5"):
        CompositionModel(_dummy_configs(3), np.zeros(10))


def test_load_rejects_nan_weight_naming_the_parameter(tmp_path):
    import json

    path = tmp_path / "model.cfmodel"
    save_model(init_model(_dummy_configs(3)), path)
    doc = json.loads(path.read_text())
    doc["residual"]["weights"][1] = float("nan")
    path.write_text(json.dumps(doc))  # JSON NaN, which json.loads accepts
    assert "NaN" in path.read_text()
    message = r"malformed model document: parameter wr\[1\] must be finite"
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")
