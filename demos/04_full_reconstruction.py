"""End-to-end anisotropic reconstruction of the A1 phantom.

Simulate electrode data for sigma_1.3 times diag(1, 1.3), flatten the
background anisotropy, reconstruct the scalar multiplier at the two
truncation radii used for the low-contrast case, and compare the
x-axis cross-sections against the truth.
"""

import numpy as np

from anisoeit import (build_disk_mesh, place_electrodes, simulate_voltages,
                      dn_matrix, extend_mu, solve_beltrami,
                      reconstruct_field, phantom_by_name)

phantom = phantom_by_name("A1")
print(f"phantom A1: a(x) = {phantom.M} inside |x| < 0.5, 1 outside; "
      f"tensor a(x) diag(1, 1.3)")

layout = place_electrodes(L=32, coverage=0.5, z=0.005)
mesh = build_disk_mesh(1.0, 0.03, layout)
dn = dn_matrix(simulate_voltages(mesh, phantom.tensor, layout))
print(f"data: L=32 electrodes, {mesh.n_nodes} nodes")

qc = solve_beltrami(extend_mu(phantom.A0))
print(f"flattening map: {qc.iterations} series terms, "
      f"residual {qc.residual:.1e}")

for R in (1.8, 2.0):
    field = reconstruct_field(dn, qc, phantom.A0, R=R)
    xs, cs = field.cross_section_x, field.cross_section
    truth = phantom.true_scalar(np.stack([xs, np.zeros_like(xs)], axis=1))
    bg = np.nanmean(cs[(np.abs(xs) >= 0.6) & (np.abs(xs) <= 0.9)])
    print(f"\ntruncation radius R={R}: center {cs[len(xs) // 2]:.3f} "
          f"(true 1.3), background {bg:.3f} (true 1)")
    print("   x     recon   true")
    for i in range(0, len(xs), 10):
        print(f"  {xs[i]:+.1f}   {cs[i]:.3f}   {truth[i]:.1f}")
