"""Microscopic thermal Casimir force between conducting slabs.

Loop-gas representation of mobile quantum charges in equilibrium with the
photon field: pinned Brownian paths (thermocasimir.loops), their pair kernels
(potentials), Debye-Hueckel-type screening in slab geometry and the
perfect-screening sum rules (screening), the universal large-separation force
assembly (force), and the chain that runs them (config, pipeline, cli).

Each name is imported from the module that defines it, e.g.
``from thermocasimir.screening import build_loop_basis``; the package root
binds no second copy and importing it loads no submodule.

The package needs numpy and the standard library only.  The quadratures
(the Gauss-Legendre rule, the oracles' panel integrals, J0 and its zeros)
are numpy code in the private module _quadrature, and the screened solve is
a numpy block LU; scipy serves the tests as a reference.
"""
__version__ = "0.1.0"
