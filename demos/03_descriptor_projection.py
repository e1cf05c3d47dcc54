"""Project descriptor maps to 2-D and print a coarse scatter.

Descriptors from two differently styled worlds occupy different regions
of feature space under a baseline model. `project_2d` reduces them to
two coordinates along the top two eigenvectors of their covariance
(`np.linalg.eigh`); an ASCII scatter is enough to see the separation.
"""

import numpy as np

import vprkit as vk
from vprkit.presets import domain_gap_pair

world_a, world_b = domain_gap_pair()
train_a, val_a = vk.split_validation(world_a, 0.3, seed=5)
model, _ = vk.train(
    vk.init_model(seed=7),
    train_a,
    vk.TrainConfig(epochs=4, learning_rate=1e-3, batch_size=16, seed=100),
    validation=val_a,
)

map_a = vk.build_map(world_a, model)
map_b = vk.build_map(world_b, model)

stacked = np.vstack([map_a.descriptors, map_b.descriptors]).astype(np.float64)
coords = vk.project_2d(stacked)
labels = ["a"] * map_a.size + ["b"] * map_b.size

# Render a 48x18 character grid.
w, h = 48, 18
lo = coords.min(axis=0)
span = np.maximum(coords.max(axis=0) - lo, 1e-12)
grid = [[" "] * w for _ in range(h)]
for (x, y), label in zip(coords, labels):
    col = int((x - lo[0]) / span[0] * (w - 1))
    row = int((y - lo[1]) / span[1] * (h - 1))
    grid[h - 1 - row][col] = label
print("2-D projection of reference descriptors (a = world A, b = world B):\n")
for row in grid:
    print("".join(row))
