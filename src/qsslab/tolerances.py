"""The tolerance table: every fixed numerical bound qsslab applies.

Kept apart from the numeric modules so that pure-Python code (the
distance certificate, the command line) can read it without numpy.
Every module imports the bounds it applies from here.
"""

#: Unit-norm / unit-trace / Hermitian tolerance for exact inputs and priors.
NORM_ATOL = 1e-12
#: Allowed deviation of |psi|^2 from 1; the amplitudes are then rescaled.
STATE_NORM_ATOL = 1e-9
#: Positivity tolerance: an eigenvalue below -PSD_ATOL is an error.
PSD_ATOL = 1e-10
#: Hermiticity tolerance accepted by the eigensolver.
HERMITIAN_ATOL = 1e-10
#: Eigenvalues below this add nothing to entropy.
ENTROPY_EIGENVALUE_FLOOR = 1e-12
#: Deviation a verdict allows: subset classification and the distance certificate.
VERDICT_ATOL = 1e-9
