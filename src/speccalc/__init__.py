"""Numerical experiments for sectorial functional calculus on matrices.

Subpackage map:
    special    Gamma, finite-difference symbols, kernel integrals
    grids      uniform sample grids, Fourier transforms, quadrature grids
    spaces     partitions of unity and multiplier norms
    corpus     the built-in symbols of the norms suite
    operators  sectorial matrices, calculi, operator families
    rbound     Rademacher averages and R-bound estimation
    suite      equivalence-condition experiments
    cli        command line runner and report comparison
"""

__version__ = "0.1.0"

# The one kernel path; perfbench stamps it into every report it writes.
KERNEL_BACKEND = "numpy"
