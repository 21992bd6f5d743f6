"""Exception types shared across the package."""


class RecoveryError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RecoveryError):
    """Scenario file is malformed; message names the offending field."""


class ValidationError(RecoveryError):
    """Input that parses but is broken: a scenario whose meaning is invalid,
    a broken model invariant, or a bad argument to a public function such
    as ``reward`` or ``exceedance_prob``; the message names the fault."""


class TerminalState(RecoveryError):
    """Operation requires a nonterminal state."""


class InadmissibleAction(RecoveryError):
    """Action violates the admissibility rules for the given state."""


class InstanceTooLarge(RecoveryError):
    """Instance exceeds one of the schedule oracle's guards: the number of
    states in its memo, the number of crew assignments at the start, or,
    when some network has more than one crew, the number of damaged
    components."""
