"""Exception hierarchy shared by all lpo modules.

The CLI maps these onto exit codes: validation problems exit 2,
an exhausted budget exits 3, backend failures exit 4.
"""


class LPOError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LPOError):
    """Bad input: malformed template, dataset, config, or argument."""


class BudgetExhaustedError(LPOError):
    """The call or token budget would be exceeded by the next request."""


class BackendError(LPOError):
    """A backend could not be reached, or returned a malformed reply."""


class CandidateInvalidError(LPOError):
    """A decoded candidate failed format refinement; not fatal to a run."""


class TransientBackendError(BackendError):
    """Retryable backend failure: timeout, connection error, HTTP 5xx or 429."""
