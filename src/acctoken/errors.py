"""Exception classes shared across the accumulator, storage and token layers."""


class AcctokenError(Exception):
    """Base class for all errors raised by this package."""


# -- accumulator ------------------------------------------------------------

class AccumulatorError(AcctokenError):
    pass


class UnsupportedParameter(AccumulatorError):
    """Security parameter outside the supported digest width."""


class StaleAccumulator(AccumulatorError):
    """Supplied accumulator value does not match the memory's root digest."""


class AlreadyPresent(AccumulatorError):
    """Add requested for an element that is already accumulated."""


class NotPresent(AccumulatorError):
    """Delete requested for an element that is not accumulated."""


# -- storage network --------------------------------------------------------

class StorageError(AcctokenError):
    pass


class Unavailable(StorageError):
    """The storage network refused or failed to serve the request."""


# -- tokens -----------------------------------------------------------------

class TokenError(AcctokenError):
    pass


class InvalidAddress(TokenError, ValueError):
    """An address argument is not a 20-byte string."""


class ZeroSupply(TokenError):
    """Deployment with a zero total supply."""


class Overflow(TokenError):
    """Amount arithmetic left the unsigned 256-bit range."""


class InsufficientBalance(TokenError):
    pass


class InsufficientAllowance(TokenError):
    pass


class NotApproved(TokenError):
    """transferFrom attempted for a (owner, spender) pair that was never approved."""


class BundleSchemaMismatch(TokenError):
    """A bundle or its announced words do not fit the operation's plan.

    Raised for a malformed frame, a wrong op tag, an entry whose claim is
    not the one of the plan step it meets, entries or announced words left
    over after the plan's last step or too few of them, and a transfer to
    oneself, which no plan takes.
    """


class InvalidProof(TokenError):
    """A witness in the bundle failed verification.

    ``step`` is the zero-based index of the offending bundle entry.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"invalid proof at bundle entry {step}")


class VerificationFailed(TokenError):
    """Client-side witness verification rejected data served by storage."""
