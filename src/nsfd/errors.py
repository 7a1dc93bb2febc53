"""Exception and warning types shared across the package."""


class NsfdError(Exception):
    """Base class for all package errors."""


class DerivativeMismatch(NsfdError):
    """Supplied derivative disagrees with a finite-difference probe of f."""


class NegativeAtZero(NsfdError):
    """f(0) < 0, so the nonnegative orthant is not invariant."""


class AmbiguousTail(NsfdError):
    """Sampled signs of f beyond its last zero disagree."""


class GNotInClass(NsfdError):
    """Auxiliary shift function dips below the required lower bound M."""


class NonPositiveStep(NsfdError):
    """Step size h must be finite and strictly positive."""


class NegativeState(NsfdError):
    """A state that must be nonnegative was negative."""


class StepCountOverflow(NsfdError):
    """Integration would require an unreasonable number of steps."""


class BadHorizon(NsfdError):
    """Integration horizon t_end must be finite and >= 0."""


class ZeroStepCount(NsfdError):
    """A positive integration horizon rounds to no step at the given h."""


class SampleMismatch(NsfdError):
    """Paired samples need exactly one step size per start, and a step must
    return lanes of the shape it was given."""


class OracleSelfCheckFailed(NsfdError):
    """High-order reference integrator disagrees with a known exact solution."""


class GridMismatch(NsfdError):
    """Two trajectories do not share the same time grid."""


class JacobianMissing(NsfdError):
    """Operation requires a Jacobian the system does not provide."""


class NoSignStructure(UserWarning):
    """Root scan found no zeros; f keeps one sign on the scanned interval."""


class NonHyperbolicWarning(UserWarning):
    """An equilibrium has |f'(y*)| below the hyperbolicity tolerance."""
