"""Flattening the four background tensors with quasi-conformal maps.

For each catalog tensor: its complex dilatation, the series solve of
the Beltrami equation, the residual, the image of the unit circle and
its deviation from the exact map, and a check that the pushforward
really is a scalar times the identity.
"""

import csv

import numpy as np

from anisoeit import (beltrami_coefficient, extend_mu, solve_beltrami,
                      pushforward_tensor)
from anisoeit.phantoms import STOCK

for name, (_, A0) in STOCK.items():
    mu0 = beltrami_coefficient(A0)
    print(f"\n=== {name}: diag({A0[0, 0]:g}, {A0[1, 1]:g}), "
          f"dilatation mu = {mu0.real:+.4f}")

    mu = extend_mu(A0)                 # n=512 grid on [-4, 4)^2, support r=2
    qc = solve_beltrami(mu)
    print(f"solved in {qc.iterations} series terms, "
          f"residual |dbar(Phi) - mu d(Phi)| = {qc.residual:.2e}")

    # image of the boundary circle: an ellipse-like closed curve
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    image = qc(circle)
    area = 0.5 * abs(np.sum(image[:, 0] * np.roll(image[:, 1], -1)
                            - np.roll(image[:, 0], -1) * image[:, 1]))
    print(f"boundary image: x in [{image[:, 0].min():+.3f}, "
          f"{image[:, 0].max():+.3f}], y in [{image[:, 1].min():+.3f}, "
          f"{image[:, 1].max():+.3f}], enclosed area {area / np.pi:.4f} pi")
    with open(f"boundary_{name}.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"])
        w.writerows(image)

    # on the disk the mu ramp is still flat, so Phi is exactly the
    # real-linear map z + mu0 conj(z): the series meets it to rounding
    z = circle[:, 0] + 1j * circle[:, 1]
    exact = z + mu0 * np.conj(z)
    dev = np.abs(image[:, 0] + 1j * image[:, 1] - exact).max()
    print(f"boundary image vs exact z + mu conj(z): max deviation {dev:.2e}")

    # the whole point: the flattened tensor is sqrt(det A0) * identity
    rng = np.random.default_rng(0)
    pts = 0.9 * np.sqrt(rng.random(200))[:, None] \
        * np.stack([np.cos(th := 2 * np.pi * rng.random(200)),
                    np.sin(th)], axis=1)
    pushed = pushforward_tensor(A0, qc, pts)
    sq = np.sqrt(np.linalg.det(A0))
    print(f"pushforward vs {sq:.4f} * I: off-diagonal <= "
          f"{np.abs(pushed[:, 0, 1]).max():.2e}, trace error <= "
          f"{np.abs(0.5 * (pushed[:, 0, 0] + pushed[:, 1, 1]) - sq).max():.2e}")
