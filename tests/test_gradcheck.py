import numpy as np
import numpy.testing as npt
import pytest

from marginnet.cli import main
from marginnet.config import parse_config_text
from marginnet.gradcheck import (
    EPS,
    TOL,
    check_gradient,
    check_layer,
    compare_gradients,
    fd_gradient,
    gradcheck_suite,
    rel_errors,
    run_gradcheck,
)
from marginnet.layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    MaxPool2x2Layer,
    ReluLayer,
    init_gaussian,
    zero_params,
)


def drawn(layer, rng, std=0.01):
    """``(layer, params)``: standalone parameters for ``layer``, its
    weight tensor drawn from ``rng`` as a network's builder draws it."""
    params = zero_params(layer)
    init_gaussian(params[0], rng, std)
    return layer, params


class TestFdGradient:
    def test_quadratic_matches_analytic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        a = rng.normal(size=(4, 3))

        def f():
            return float(np.sum(a * x * x))

        numeric = fd_gradient(f, x)
        npt.assert_allclose(numeric, 2 * a * x, rtol=1e-7, atol=1e-9)

    def test_restores_input_exactly(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        fd_gradient(lambda: float(np.sum(x**3)), x)
        npt.assert_array_equal(x, before)


class TestRelErrors:
    def test_unit_floor_keeps_tiny_values_comparable(self):
        # denominator max(|a|, |n|, 1): near-zero pairs do not explode
        a = np.array([1e-12, 2.0])
        n = np.array([0.0, 2.0 + 2e-7])
        errs = rel_errors(a, n)
        assert errs[0] < 1e-11
        npt.assert_allclose(errs[1], 1e-7, rtol=1e-3)


class TestCompareGradients:
    def test_matching_gradients_pass(self):
        g = np.array([[1.0, -2.0], [0.5, 3.0]])
        result = compare_gradients("w", g, g + 1e-9)
        assert result.passed
        assert result.max_rel_error < TOL

    def test_corrupted_gradient_detected_and_reported(self):
        g = np.array([[1.0, -2.0], [0.5, 3.0]])
        bad = g.copy()
        bad[1, 0] += 0.25
        result = compare_gradients("w", bad, g)
        assert not result.passed
        assert result.worst_index == (1, 0)
        text = result.summary()
        assert "w" in text
        assert "(1, 0)" in text
        # both values appear so the report is actionable on its own
        assert "0.75" in text
        assert "0.5" in text

    def test_check_gradient_end_to_end(self):
        x = np.array([0.3, -1.2, 2.0])

        def f():
            return float(np.sum(np.sin(x)))

        good = check_gradient("sin", f, x, np.cos(x))
        assert good.passed
        bad = check_gradient("sin", f, x, np.cos(x) * 1.01)
        assert not bad.passed


def _scaled_backward(layer_type):
    """``layer_type.backward`` with its returned gradient scaled by 1.5:
    wrong wherever the true gradient is nonzero."""
    backward = layer_type.backward

    def wrong(self, *args, **kwargs):
        return 1.5 * backward(self, *args, **kwargs)

    return wrong


class TestCheckLayer:
    def test_names_input_then_each_parameter(self):
        rng = np.random.default_rng(3)
        dense, params = drawn(DenseLayer(3, 2), rng, 0.5)
        results = check_layer("fc", dense, rng.normal(size=(4, 3)),
                              rng.normal(size=(4, 2)), params)
        assert [r.name for r in results] == ["fc.d_input", "fc.d_weights", "fc.d_bias"]
        assert all(r.passed for r in results)
        conv, params = drawn(Conv2dLayer(2, 2, 3), rng, 0.5)
        results = check_layer("conv", conv, rng.normal(size=(2, 2, 5, 6)),
                              rng.normal(size=(2, 2, 5, 6)), params)
        assert [r.name for r in results] == ["conv.d_input", "conv.d_filters", "conv.d_bias"]
        assert all(r.passed for r in results)

    def test_seed_fixes_the_dropout_mask(self, monkeypatch):
        rng = np.random.default_rng(4)
        x, r = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        (result,) = check_layer("drop", DropoutLayer(0.5), x, r, seed=9)
        assert result.passed
        (result,) = check_layer("drop", DropoutLayer(0.5), x, r)
        assert result.passed
        # A backward that ignores the mask would pass an identity forward,
        # so every forward trains, with the default seed too.
        monkeypatch.setattr(DropoutLayer, "backward", lambda self, d_out, *_: d_out)
        (result,) = check_layer("drop", DropoutLayer(0.5), x, r, seed=9)
        assert not result.passed
        (result,) = check_layer("drop", DropoutLayer(0.5), x, r)
        assert not result.passed

    @pytest.mark.parametrize("make, x_shape, r_shape", [
        (lambda rng: drawn(DenseLayer(3, 2), rng, 0.5), (4, 3), (4, 2)),
        (lambda rng: drawn(Conv2dLayer(1, 2, 3), rng, 0.5), (2, 1, 4, 4),
         (2, 2, 4, 4)),
    ], ids=["dense", "conv"])
    def test_wrong_input_gradient_fails(self, monkeypatch, make, x_shape, r_shape):
        rng = np.random.default_rng(5)
        layer, params = make(rng)
        monkeypatch.setattr(type(layer), "backward", _scaled_backward(type(layer)))
        results = check_layer("l", layer, rng.normal(size=x_shape),
                              rng.normal(size=r_shape), params)
        # parameter gradients are untouched; only d_input is scaled
        assert [res.passed for res in results] == [False, True, True]


class TestGradcheckSuite:
    def test_every_gradient_matches(self):
        results = gradcheck_suite()
        assert len(results) == 30
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert max(r.max_rel_error for r in results) < 1e-6

    def test_run_gradcheck_reports_pass(self):
        cfg = parse_config_text("hidden_dims = 8, 8\nseed = 0\n")
        results, ok = run_gradcheck(cfg)
        assert ok
        assert len(results) == 30

    # Seeds whose composed-mlp check points once sat on a ReLU or hinge
    # kink, plus a plain run of seeds.
    KINK_SEEDS = (6, 25, 42, 45, 60, 66, 76, 102, 123, 128, 141, 147, 184,
                  204, 209, 246, 287)

    @pytest.mark.parametrize("seed", sorted(set(KINK_SEEDS) | set(range(30))))
    def test_passes_at_seed(self, seed):
        failed = [r.summary() for r in gradcheck_suite(seed=seed) if not r.passed]
        assert failed == []

    # The suite checks the layer classes training runs, so a wrong
    # backward in any of them fails that layer's own check and the CLI.
    @pytest.mark.parametrize("layer_type, check", [
        (ReluLayer, "relu.d_input"),
        (DropoutLayer, "dropout.d_input"),
        (MaxPool2x2Layer, "maxpool.d_input"),
    ])
    def test_wrong_layer_backward_fails_its_check(self, monkeypatch, tmp_path,
                                                  capsys, layer_type, check):
        monkeypatch.setattr(layer_type, "backward", _scaled_backward(layer_type))
        failed = [r.name for r in gradcheck_suite() if not r.passed]
        assert check in failed
        cfg = tmp_path / "gc.cfg"
        cfg.write_text("hidden_dims = 8, 8\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert f"FAIL  {check}:" in capsys.readouterr().out


def test_default_constants():
    assert EPS == pytest.approx(1e-5)
    assert TOL == pytest.approx(1e-6)
