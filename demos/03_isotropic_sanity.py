"""Isotropic sanity check of the linearized reconstruction.

With unit conductivity the assembled spectrum must match the Fourier
transform of the unit-disk indicator, J1(2 pi |z|)/|z|, and the
truncated inverse transform must come back close to one inside the
disk.
"""

import numpy as np
from scipy.special import j1

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      simulate_voltages, dn_matrix, fhat_grid,
                      reconstruct_field, affine_map)

layout = place_electrodes(L=32, coverage=0.5, z=0.005)
mesh = build_disk_mesh(1.0, 0.03, layout)
dn = dn_matrix(simulate_voltages(mesh, constant_tensor(np.eye(2)), layout))
print(f"simulated unit-disk data: L=32, {mesh.n_nodes} nodes, "
      f"reciprocity {dn.asymmetry:.1e}")

# isotropic data need no flattening: the map of A0 = I is the identity
identity = affine_map(np.eye(2))

# spectrum vs the analytic disk transform
fh = fhat_grid(dn, identity, R=1.0, m=17)
rho = np.hypot(fh.zs[:, 0], fh.zs[:, 1])
target = j1(2 * np.pi * rho) / rho
sel = np.abs(target) >= 0.1 * np.abs(target).max()
rel = (np.abs(fh.values - target)[sel] / np.abs(target[sel])).max()
print(f"spectrum vs indicator transform (|z| <= 1): "
      f"max rel deviation {rel:.1%} away from the transform's zero ring")

# truncated inverse: flat reconstruction near level one
field = reconstruct_field(dn, identity, np.eye(2), R=1.8)
xs, cs = field.cross_section_x, field.cross_section
inner = np.abs(xs) <= 0.6
print(f"reconstruction at R=1.8: center {cs[len(xs) // 2]:.3f}, "
      f"inner band range [{cs[inner].min():.3f}, {cs[inner].max():.3f}]")
print(f"imaginary residual discarded: {field.imag_residual:.1e} "
      "(the spectrum is Hermitian, so the inverse transform is real)")
print("cross-section (x, a):")
for x, a in zip(xs[::10], cs[::10]):
    print(f"  {x:+.1f}  {a:.3f}")
