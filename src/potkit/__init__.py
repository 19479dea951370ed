"""potkit: desk-scale numerics for classical potential theory.

Subpackages cover geometry (domains, inversion, hulls), radial kernels,
measures/charges, scalar fields with gluing constructions, potentials,
Green models and harmonic measures, balayage verdicts, the measure <->
potential duality with the generalized Poisson-Jensen identity, and
zero-distribution criteria for holomorphic functions, plus a scenario CLI.
"""

from . import (balayage, duality, fields, geometry, green, kernels, measures,
               potentials, presets, quadrature, verdict, zeros)

__all__ = ["balayage", "duality", "fields", "geometry", "green", "kernels",
           "measures", "potentials", "presets", "quadrature", "verdict", "zeros"]

__version__ = "0.1.0"
