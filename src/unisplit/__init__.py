"""Reversible (symmetric-conjugate) splitting integrators with complex coefficients.

Library layout:

- :mod:`unisplit.linalg`: dense complex linear algebra (expm, eigensolvers).
- :mod:`unisplit.schemes`: the scheme catalog and the expansion of coefficient
  sequences.
- :mod:`unisplit.propagator`: dense step matrices of a scheme on a concrete
  split H = A + B, plus reversibility/order diagnostics.
- :mod:`unisplit.experiments`: seeded random-matrix classes, unit-modulus sweeps
  and the long-time conservation run on the spectral backend.
- :mod:`unisplit.spectral`: pseudo-spectral 1-D Schroedinger backend with the
  modified Poeschl-Teller potential.
- :mod:`unisplit.cli`: the ``unisplit`` command-line front end.
"""

__version__ = "0.1.0"
