"""Numerical Poisson geometry on trivialized principal bundles.

Subpackages by theme:

- ``liealg``           matrix Lie groups/algebras, exp/log, adjoints, Casimirs
- ``bundle``           principal bundle actions, momentum map, dual Atiyah maps
- ``groupoid``         VB-groupoids over pair groupoids and their duals
- ``poisson``          Poisson brackets, coadjoint orbits, symplectic leaves
- ``poisson_groupoid`` the Poisson groupoid (T*P x T*P)/G acting on the leaves
- ``semidirect``       semidirect products K x| N and their reduced phase spaces
- ``codegen``          the generated RK4 step and affine gradients
- ``dynamics``         Hamiltonian vector fields, RK4 integration, drift monitors
- ``cli``              scenario runner (verify / leaves / simulate)
"""

__all__ = ["liealg", "bundle", "groupoid", "poisson", "poisson_groupoid", "semidirect", "codegen", "dynamics", "cli"]
__version__ = "0.1.0"
