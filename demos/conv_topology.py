"""The convolutional stack, walked through shape by shape.

Builds the published image topology (two conv-pool blocks of 5x5
filters, a 3072-unit penultimate dense layer, dropout) and pushes a
batch of 32x32x3 images through it layer by layer, printing what each
stage does to the tensor.  Then the input-side regularizers: random
translations, horizontal mirroring, and additive Gaussian noise.

Run: python3 demos/conv_topology.py
"""

import numpy as np

from marginnet.heads import HeadSpec
from marginnet.layers import gaussian_noise
from marginnet.network import build_convnet
from marginnet.preprocess import augment

rng = np.random.default_rng(0)

print("=== the image topology ===")
spec = HeadSpec("l2svm", 10, c=0.01, weight_decay=0.001)
net = build_convnet(
    input_shape=(3, 32, 32),
    conv_channels=[32, 64],
    kernel_size=5,
    dense_dim=3072,
    dropout_rate=0.2,
    head_spec=spec,
    rng=np.random.default_rng(1),
    init_std=0.01,
)

x = rng.uniform(size=(8, 3, 32, 32))
print(f"{'input':>14}: {x.shape}")
for layer, slots in zip(net.layers, net.layer_slots):
    x = layer.forward(x, [slot.of(net.param) for slot in slots])
    print(f"{layer.__class__.__name__:>14}: {x.shape}")
scores = net.scores(rng.uniform(size=(8, 3, 32, 32)))
print(f"{'head':>14}: {scores.shape}  (one score per class)")

n_params = net.param.size
print(f"\n{n_params:,} parameters; loss under the margin head:",
      round(net.head_output(rng.uniform(size=(8, 3, 32, 32)),
                            rng.integers(0, 10, size=8)).loss, 4))

print("""
=== input-side regularizers ===
Augmentation happens on raw minibatches during training only; the
evaluation path never sees it.""")

img = np.zeros((1, 1, 5, 5))
img[0, 0, 1:4, 1] = np.array([1.0, 2.0, 3.0])  # an off-center stroke


def show(tag, im):
    print(f"\n{tag}:")
    for row in im[0, 0]:
        print("  " + " ".join(f"{v:3.0f}" for v in row))


show("original 5x5 image", img)
jit = augment(img, np.random.default_rng(4), max_jitter=2, mirror=False)
show("after a random shift of up to 2 pixels (zero padded)", jit)
mir = augment(img, np.random.default_rng(2), max_jitter=0, mirror=True)
show("after coin-flip horizontal mirroring (this coin landed heads)", mir)

noisy = gaussian_noise(np.zeros((2000, 100)), 0.5, np.random.default_rng(7))
print(f"\ngaussian_noise(std=0.5) on zeros: measured mean "
      f"{noisy.mean():+.4f}, std {noisy.std():.4f}")
print("""
During training the noise standard deviation anneals linearly (the
noise_start / noise_end config keys), so early epochs see a heavily
jittered task and late epochs fine-tune on the clean one.""")
