"""Numerical toolkit for surfaces in R^4 with constant principal angles.

Modules:

- ``grassmann``: 2-planes, principal angles, bivectors, Hodge splitting, and
  the per-plane Gauss-map coordinates.
- ``surface_analysis``: surface jets, graph surfaces, fundamental forms,
  adapted frames, structure-equation residuals, sphere and
  parallel-mean-curvature tests, and the composition criterion.
- ``helix_construct``: graph-surface helix conditions, the quasilinear
  construction PDE with non-characteristic Cauchy data, and the deformation
  family.
- ``catalog``: closed-form example surfaces with exact jets.
- ``expressions``: small expression language with symbolic derivatives.
- ``cli``: command-line front end (``helix4``).
"""

from . import catalog, expressions, grassmann, helix_construct, surface_analysis

__all__ = ["catalog", "expressions", "grassmann", "helix_construct",
           "surface_analysis"]
__version__ = "0.1.0"
