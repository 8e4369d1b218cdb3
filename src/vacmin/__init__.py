"""Discrete minimizers of vector phase-transition energies on balls,
with sphere-slice coverings, growth and monotonicity diagnostics."""

from .field import (Grid, ScalarField, VectorField, energy_density,
                    integrate_ball, load_field, sample_sphere, save_field)
from .minimizer import (SolveReport, discrete_energy, discrete_energy_gradient,
                        el_residual, minimize, modica_check)
from .potentials import (Potential, anisotropic, power, product_perturbed,
                         quadratic, verify_assumptions)

__version__ = "0.1.0"

__all__ = [
    "Grid", "ScalarField", "VectorField", "Potential", "SolveReport",
    "anisotropic", "discrete_energy", "discrete_energy_gradient",
    "el_residual", "energy_density", "integrate_ball", "load_field",
    "minimize", "modica_check", "power", "product_perturbed", "quadratic",
    "sample_sphere", "save_field", "verify_assumptions",
]
