"""The tolerance table, every fixed numerical bound qsslab applies, and
the one check of integer arguments.

Kept apart from the numeric modules so that pure-Python code (the
distance certificate, the command line) can read it without numpy.
Every module imports the bounds it applies from here.
"""

import operator

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


def checked_int(value: object, name: str) -> int:
    """``value`` as a plain int: an int or numpy integer, not a bool, float or str.

    Raises ValueError otherwise. Bool is refused as the state-file reader
    refuses it for its integer fields.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
