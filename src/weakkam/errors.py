"""Exception types shared across the toolkit."""


class WeakKAMError(Exception):
    """Base class for toolkit errors."""


class NonCoercive(WeakKAMError):
    """Fenchel maximization diverged on the probe radius.

    The Hamiltonian is not superlinear in p; superlinearize the model first.
    """


class A3Violated(WeakKAMError):
    """The localization assumption fails: the relevant max sits on the outer shell."""


class NotNormalized(WeakKAMError):
    """Operation requires the working critical value to be 0 (b = max H(x,0) >= 0)."""


class DegenerateBox(WeakKAMError):
    """A grid axis has fewer than 4 nodes."""


class BracketInvalid(WeakKAMError):
    """Bisection endpoints are inconsistent; discretization too coarse."""


class NegativeCycle(WeakKAMError):
    """The cost graph has a negative cycle (certifies the level is subcritical)."""


class EmptySublevel(NegativeCycle):
    """Some node has an empty sublevel set, which also certifies that the
    level is subcritical; the message names the node."""


class EmptyAubrySet(WeakKAMError):
    """No node has a cycle cost within eps_aubry; the message gives the
    least cycle cost."""


class Unreachable(WeakKAMError):
    """A value the limit estimators compare is the INF sentinel of an
    unreachable node, or a node has no move toward a policy's closed class;
    the message names the node."""


class IncompatibleTrace(WeakKAMError):
    """Prescribed boundary values violate the intrinsic-distance compatibility."""


class MaxIterExceeded(WeakKAMError):
    """Iteration budget exhausted before reaching the tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularBasis(WeakKAMError):
    """A policy matrix (1 + lambda h) I - W, the transpose of the policy's LP
    basis, is numerically singular."""


class NoMeasures(WeakKAMError):
    """An operation quantified over measures received an empty collection."""


class NoSelfLoop(WeakKAMError):
    """A Mather face node has no self-loop face column; the message names the face."""


class ConfigError(WeakKAMError):
    """Run configuration failed validation; the message cites the offending key."""
