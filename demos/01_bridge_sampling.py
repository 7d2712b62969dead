#!/usr/bin/env python3
# Pinned Brownian paths: the shape degrees of freedom of a quantum charge.
#
# A charge at inverse temperature beta is an extended object: a closed random
# wire whose spatial scale is the de Broglie length.  This demo samples an
# ensemble of such wires, checks the exact grid covariance of the sampler,
# and shows the two structural facts everything downstream leans on: the
# endpoints are pinned exactly, and closed-path line integrals of constants
# vanish identically.

import numpy as np

from thermocasimir import (bridge_covariance, line_integral, sample_bridge,
                           sample_bridge_ensemble)

print("=== sampling one pinned bridge (p = 2, 32 steps per unit time) ===")
path = sample_bridge(p=2, n_steps=32, seed=42)
print(f"nodes: {path.shape[0]}, endpoints: {path[0]} / {path[-1]}")
print(f"max |X| along the wire: {np.max(np.abs(path)):.3f}")

print("\n=== covariance of the ensemble against min(s,s') - s s'/p ===")
n = 50_000
paths = sample_bridge_ensemble(p=1, n_steps=16, seed=7, count=n)
for i, j in [(8, 8), (4, 12), (2, 14)]:
    s, sp = i / 16, j / 16
    emp = np.mean(paths[:, i, 0] * paths[:, j, 0])
    tgt = bridge_covariance(1, s, sp)
    se = np.std(paths[:, i, 0] * paths[:, j, 0], ddof=1) / np.sqrt(n)
    print(f"  (s, s') = ({s:.3f}, {sp:.3f}):  empirical {emp:+.5f}   "
          f"exact {tgt:+.5f}   ({abs(emp - tgt) / se:.2f} standard errors)")

print("\n=== closed-path line integrals ===")
const = line_integral(path, lambda s, x: np.array([1.0, 0.0, 0.0]))
print(f"constant integrand (telescoping closure): {const!r}  <- exactly zero")
area = line_integral(path, lambda s, x: np.column_stack(
    [x[:, 1], np.zeros_like(s), np.zeros_like(s)]))
print(f"area-type integrand on this sample:       {area:+.5f}  "
      "(current-loop moment; averages to zero over the ensemble)")
