"""Forward simulation walkthrough: mesh, electrodes, voltages, DN matrix.

Builds a disk mesh with 16 electrodes, simulates voltage data for a
low-contrast anisotropic phantom, and inspects the physics of the
resulting discrete boundary map.
"""

import numpy as np

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      trig_current_patterns, simulate_voltages, dn_matrix,
                      phantom_by_name)

# --- geometry: 16 equispaced electrodes covering half the boundary
layout = place_electrodes(L=16, coverage=0.5, z=0.01)
mesh = build_disk_mesh(radius=1.0, target_h=0.05, layout=layout)
print(f"mesh: {mesh.n_nodes} nodes, {len(mesh.triangles)} triangles, "
      f"{len(mesh.boundary_nodes)} boundary nodes")
corners = mesh.nodes[mesh.triangles]
edges = np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=2)
print(f"max edge length: {edges.max():.4f} (target 0.05, bound 0.075)")

# --- phantom: contrast 1.3 inclusion times the diag(1, 1.3) background
phantom = phantom_by_name("A1")
print(f"\nphantom A1: contrast M={phantom.M}, background diag(1, 1.3)")

# --- trigonometric current patterns and the forward solve
patterns = trig_current_patterns(16)
print(f"patterns: {patterns.shape[1]} columns, "
      f"column sums <= {np.abs(patterns.sum(axis=0)).max():.1e}")

data = simulate_voltages(mesh, phantom.tensor, layout)   # each of these patterns
print(f"voltages: {data.U.shape}, ground condition "
      f"|sum U| <= {np.abs(data.U.sum(axis=0)).max():.1e}")

# --- the discrete boundary map and its physics
dn = dn_matrix(data)
print(f"\nDN matrix {dn.dn.shape}, reciprocity defect {dn.asymmetry:.2e}")
# the DN diagonal rescaled by L / (2 pi) estimates the harmonic
# eigenvalues; its first L/2 entries are the cos modes 1..L/2
scale = layout.L / (2.0 * np.pi)
est = np.diag(dn.dn) * scale
print("harmonic eigenvalue estimates vs the homogeneous-background values:")
bg = dn_matrix(simulate_voltages(mesh, constant_tensor(phantom.A0), layout))
est_bg = np.diag(bg.dn) * scale
for k in range(4):
    print(f"  cos mode {k + 1}: phantom {est[k]:.3f}, "
          f"background {est_bg[k]:.3f}")
print("the inclusion raises conductivity, so phantom eigenvalues sit above "
      "the background ones")
