import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from marginnet.heads import HeadSpec
from marginnet.network import build_mlp
from marginnet.optim import STEP_BLOCK, LinearSchedule, SgdMomentum
from marginnet.tensor import DomainError, ShapeError


class TestSgdMomentum:
    def test_zero_momentum_is_plain_gradient_descent(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(3, 2))
        expected = theta.copy()
        opt = SgdMomentum([theta], momentum=0.0)
        for _ in range(4):
            g = rng.normal(size=(3, 2))
            opt.step([g], lr=0.05)
            expected -= 0.05 * g
            npt.assert_allclose(theta, expected, rtol=0, atol=1e-15)

    def test_velocity_sequence_under_constant_gradient(self):
        # momentum 0.9, lr 0.1, grad 1: v walks -0.1, -0.19, -0.271, ...
        theta = np.array([0.0])
        g = np.array([1.0])
        opt = SgdMomentum([theta], momentum=0.9)
        npt.assert_array_equal(opt.velocities[0], [0.0])
        opt.step([g], lr=0.1)
        npt.assert_allclose(opt.velocities[0], [-0.1])
        opt.step([g], lr=0.1)
        npt.assert_allclose(opt.velocities[0], [-0.19])
        npt.assert_allclose(theta, [-0.29])

    def test_zero_lr_decays_velocity_geometrically(self):
        theta = np.array([0.0])
        opt = SgdMomentum([theta], momentum=0.5)
        opt.step([np.array([1.0])], lr=1.0)  # v = -1
        for k in range(1, 5):
            opt.step([np.array([1.0])], lr=0.0)
            npt.assert_allclose(opt.velocities[0], [-(0.5**k)])

    @pytest.mark.parametrize("momentum", [0.0, 0.3, 0.6, 0.9, 0.95])
    def test_quadratic_bowl_converges(self, momentum):
        # minimize 0.5 * theta^2 from theta = 1; gradient is theta itself
        theta = np.array([1.0])
        opt = SgdMomentum([theta], momentum=momentum)
        for _ in range(2000):
            opt.step([theta.copy()], lr=0.1)
            if abs(theta[0]) < 1e-6:
                break
        assert abs(theta[0]) < 1e-6

    def test_partition_independence(self):
        # one optimizer over [a, b] walks exactly like two optimizers
        # over a and b separately
        rng = np.random.default_rng(1)
        a1, b1 = rng.normal(size=4), rng.normal(size=(2, 3))
        a2, b2 = a1.copy(), b1.copy()
        joint = SgdMomentum([a1, b1], momentum=0.9)
        sep_a, sep_b = SgdMomentum([a2], momentum=0.9), SgdMomentum([b2], momentum=0.9)
        for _ in range(5):
            ga, gb = rng.normal(size=4), rng.normal(size=(2, 3))
            joint.step([ga, gb], lr=0.07)
            sep_a.step([ga], lr=0.07)
            sep_b.step([gb], lr=0.07)
        npt.assert_array_equal(a1, a2)
        npt.assert_array_equal(b1, b2)

    def test_updates_happen_in_place(self):
        theta = np.zeros(2)
        alias = theta
        SgdMomentum([theta], 0.0).step([np.ones(2)], lr=1.0)
        npt.assert_array_equal(alias, [-1.0, -1.0])

    def test_steps_move_the_network_parameters_it_was_built_on(self):
        spec = HeadSpec("l2svm", 3, c=0.1, weight_decay=0.001)
        net = build_mlp(4, [5], spec, rng=np.random.default_rng(2), init_std=0.1)
        before = {name: p.copy() for name, p in net.named_tensors().items()}
        opt = SgdMomentum([net.param], 0.9)
        net.backprop(np.random.default_rng(3).normal(size=(6, 4)),
                     np.arange(6) % 3)
        opt.step([net.grad], lr=0.5)
        for slot in net.table:
            p = slot.of(net.param)  # what the layer is passed
            assert p.base is opt.params[0]
            assert not np.array_equal(p, before[slot.name])

    def test_one_flat_step_matches_per_tensor_steps_bitwise(self):
        # A network's flat store stepped as one array, against its twin
        # stepped per tensor (the reference), first step included.  The
        # 300 x 256 dense weights cross a STEP_BLOCK edge.
        spec = HeadSpec("l2svm", 3, c=0.1, weight_decay=0.001)
        flat, twin = (build_mlp(300, [256], spec, rng=np.random.default_rng(6),
                                init_std=0.1) for _ in range(2))
        assert STEP_BLOCK < 300 * 256 == flat.table[0].of(flat.param).size
        flat_opt = SgdMomentum([flat.param], 0.9)
        twin_opt = SgdMomentum([slot.of(twin.param) for slot in twin.table], 0.9)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(20, 300)), rng.integers(0, 3, size=20)
        for lr in (0.1, 0.05):
            flat.backprop(x, y)
            twin.backprop(x, y)
            flat_opt.step([flat.grad], lr)
            twin_opt.step([slot.of(twin.grad) for slot in twin.table], lr)
            flat.grad = twin.grad = None
            assert flat.param.tobytes() == twin.param.tobytes()
            assert flat_opt.velocities[0].tobytes() == b"".join(
                v.tobytes() for v in twin_opt.velocities)

    def test_validation(self):
        with pytest.raises(DomainError):
            SgdMomentum([], momentum=1.0)
        with pytest.raises(DomainError):
            SgdMomentum([], momentum=-0.1)
        opt = SgdMomentum([np.zeros(2)], 0.9)
        with pytest.raises(DomainError):
            opt.step([np.zeros(2)], lr=-0.1)
        with pytest.raises(ShapeError):
            opt.step([np.zeros(3)], lr=0.1)
        with pytest.raises(ShapeError):
            opt.step([np.zeros(2), np.zeros(2)], lr=0.1)

    def test_param_count_must_stay_stable(self):
        opt = SgdMomentum([np.zeros(2), np.zeros(3)], 0.9)
        opt.step([np.ones(2), np.ones(3)], lr=0.1)
        with pytest.raises(ShapeError):
            opt.step([np.ones(2)], lr=0.1)

    @pytest.mark.parametrize("shape", [(7, 3), (STEP_BLOCK,),
                                       (3 * STEP_BLOCK + 123,),
                                       (4, STEP_BLOCK // 2 + 9)])
    def test_blocked_step_matches_whole_array_update_bitwise(self, shape):
        # smaller than a block, one block, several blocks plus a ragged
        # tail, and a 2-D array whose rows straddle block edges
        rng = np.random.default_rng(4)
        theta = rng.normal(size=shape)
        expected, velocity = theta.copy(), np.zeros(shape)
        opt = SgdMomentum([theta], momentum=0.9)
        for lr in (0.1, 0.03, 0.0, 0.7):
            g = rng.normal(size=shape)
            opt.step([g], lr=lr)
            velocity = 0.9 * velocity - lr * g
            expected += velocity
            assert opt.velocities[0].tobytes() == velocity.tobytes()
            assert theta.tobytes() == expected.tobytes()

    def test_first_step_writes_the_two_pass_bytes(self):
        # The first step updates each zero velocity like every later one;
        # its bytes must be those of 0.0 - lr * g, -0.0 gradients and
        # lr = 0 included.
        rng = np.random.default_rng(5)
        shapes = [(3, 7), (2 * STEP_BLOCK + 5,)]
        for lrs in ((0.0, 0.1, 0.0), (0.05, 0.0, 0.3)):
            thetas = [rng.normal(size=shape) for shape in shapes]
            expected = [t.copy() for t in thetas]
            velocities = [np.zeros(shape) for shape in shapes]
            opt = SgdMomentum(thetas, momentum=0.9)
            for lr in lrs:
                grads = [rng.normal(size=shape) for shape in shapes]
                for g in grads:
                    g[rng.random(g.shape) < 0.2] = -0.0
                opt.step(grads, lr=lr)
                for v, e, g in zip(velocities, expected, grads):
                    v *= 0.9
                    v -= lr * g
                    e += v
                for got, want in zip(opt.velocities + thetas, velocities + expected):
                    assert got.tobytes() == want.tobytes()

    def test_a_rejected_step_updates_nothing(self):
        theta = np.zeros(2)
        opt = SgdMomentum([theta, np.zeros(3)], 0.9)
        with pytest.raises(ShapeError):
            opt.step([np.ones(2), np.ones(4)], lr=0.1)
        assert theta.tobytes() == np.zeros(2).tobytes()
        opt.step([np.ones(2), np.ones(3)], lr=0.1)
        npt.assert_array_equal(opt.velocities[0], [-0.1, -0.1])

    def test_step_builds_no_parameter_sized_temporary(self):
        theta = np.zeros((2048, 2048))  # 4M elements, 33.6 MB
        g = np.ones_like(theta)
        opt = SgdMomentum([theta], momentum=0.9)
        tracemalloc.start()
        try:
            opt.step([g], lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * theta.nbytes
        assert theta[0, 0] == -0.1

    def test_non_contiguous_parameters_rejected(self):
        # a step updates flat views, which a strided array cannot give
        with pytest.raises(ShapeError):
            SgdMomentum([np.zeros((3, 4)).T])


class TestLinearSchedule:
    def test_endpoints_and_midpoint(self):
        sched = LinearSchedule(0.1, 0.0, 100)
        assert sched.value(0) == pytest.approx(0.1)
        assert sched.value(50) == pytest.approx(0.05)
        assert sched.value(100) == pytest.approx(0.0)

    def test_clamped_past_the_end(self):
        sched = LinearSchedule(1.0, 0.2, 10)
        assert sched.value(10) == pytest.approx(0.2)
        assert sched.value(10_000) == pytest.approx(0.2)

    def test_constant_when_start_equals_end(self):
        sched = LinearSchedule(0.3, 0.3, 5)
        for step in (0, 3, 99):
            assert sched.value(step) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(DomainError):
            LinearSchedule(0.1, 0.0, 0)
        with pytest.raises(DomainError):
            LinearSchedule(0.1, 0.0, 10).value(-1)
