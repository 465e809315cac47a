"""The input pipeline: per-column standardization, then PCA.

Both transforms are fitted on training data only and stored with the
model, so evaluation-time inputs always pass through exactly the
transform training saw.

Run: python3 demos/preprocessing.py
"""

import numpy as np

from marginnet.preprocess import PixelStandardizer, pca_fit, pca_transform

rng = np.random.default_rng(0)

print("=== per-column standardization ===")
x = rng.normal(loc=[10.0, -3.0, 0.5], scale=[5.0, 0.1, 1.0], size=(1000, 3))
std = PixelStandardizer().fit(x)
z = std.apply(x)
print("raw column means:", x.mean(axis=0).round(3))
print("raw column stds: ", x.std(axis=0).round(3))
print("standardized:    ", z.mean(axis=0).round(8), z.std(axis=0).round(8))
print("(fitted moments are frozen: test data reuses the training fit)")

print("\n=== PCA: concentrate correlated pixels into few dimensions ===")
# 50-dim data that secretly lives on a 3-dim subspace plus small noise
basis = rng.normal(size=(3, 50))
latent = rng.normal(size=(2000, 3)) * np.array([10.0, 5.0, 2.0])
data = latent @ basis + 0.1 * rng.normal(size=(2000, 50))
model = pca_fit(data, 6)
print("explained variance by component:",
      [f"{v:.1f}" for v in model.explained_variances])
proj = pca_transform(model, data)
back = proj @ model.components.T + model.mean  # back to the 50 raw dims
rel = np.linalg.norm(back - data) / np.linalg.norm(data)
print(f"6 of 50 dims keep the data to {100 * (1 - rel):.2f}% "
      f"(relative reconstruction error {rel:.1e})")
print("""(training on PCA projections is what makes 784-pixel images cheap:
the published recipes keep 70 components)""")
