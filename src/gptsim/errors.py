"""Exception hierarchy shared by all gptsim modules."""

import json


class GptError(Exception):
    """Base class for all errors raised by gptsim.

    An error from a scenario batch names the first scenario of the batch
    that fails when run alone: ``index`` is its position in the batch and
    ``scenario`` the scenario, and the message starts with both.
    """

    index = None
    scenario = None

    def __str__(self):
        message = super().__str__()
        if self.scenario is None:
            return message
        named = json.dumps(self.scenario.to_dict(), sort_keys=True)
        return f"Scenario {self.index} of the batch {named}: {message}"


class ModelMismatchError(GptError):
    """Raised when states, effects or measurements belong to different models."""


class NotNormalizedError(GptError):
    """Raised when a candidate state does not have unit total probability."""


class OutsideConeError(GptError):
    """Raised when a vector lies outside the positive cone beyond tolerance."""


class NotPureError(GptError):
    """Raised when an operation requires a pure state but received a mixed one."""


class EmptyEnsembleError(GptError):
    """Raised when an ensemble with no members is supplied."""


class UnsupportedModelError(GptError):
    """Raised when an operation is not defined for the given model kind."""


class InfeasibleError(GptError):
    """Raised when a linear program has no feasible point."""


class UnboundedError(GptError):
    """Raised when a linear program is unbounded (malformed cone)."""


class MarginalMismatchError(GptError):
    """Raised when a target ensemble does not average to the required marginal."""


class RankDeficitError(GptError):
    """Raised when a steering target needs a larger purifying system.

    The ``required_dimension`` attribute states the minimal purifier
    dimension that would make the synthesis possible.
    """

    def __init__(self, message: str, required_dimension: int):
        super().__init__(message)
        self.required_dimension = required_dimension


class ContractError(GptError):
    """Raised when a steering run breaks one of its numerical contracts.

    The contracts are the purification round-trip, steered conditionals
    equal to their targets, a distant marginal shared by both protocols
    within 1e-10 and predictions within 1e-12 of the closed form.
    """


class RuleDomainError(GptError):
    """Raised when a probability rule is evaluated outside [0, 1]."""
