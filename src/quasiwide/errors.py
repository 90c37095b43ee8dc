"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: bad input is 1, the splitter's refusal
of a dense input (:class:`DensityError`, which carries its certificate) is 2,
and a decision-problem "no" is 3 (not an exception, solvers return None for
it).
"""

from __future__ import annotations

from typing import Sequence


class QuasiwideError(Exception):
    """Base class for every error raised by this package."""


class InputError(QuasiwideError, ValueError):
    """Malformed caller input: bad vertex ids, empty sources, duplicates."""


class ConfigError(QuasiwideError, ValueError):
    """A configuration value violates its documented bounds."""


class InternalError(QuasiwideError, RuntimeError):
    """A contract the pipeline itself must uphold was violated."""


class InfeasibleError(QuasiwideError):
    """The instance admits no solution at all (e.g. terminals split across
    components), as opposed to "no solution within the budget"."""


class DensityError(QuasiwideError):
    """The splitter found a dense obstruction instead of a sparse split.

    Carries the evidence: the indiscernible sequence whose neighborhood was
    saturated, and the oversized candidate deletion set. Callers can retry
    with a larger ``s_max`` or reject the graph as non-sparse.
    """

    def __init__(
        self,
        message: str,
        *,
        certificate: Sequence[int],
        candidates: Sequence[int],
        rounds: Sequence[object] = (),
    ) -> None:
        super().__init__(message)
        self.certificate = tuple(certificate)
        self.candidates = tuple(sorted(candidates))
        self.rounds = tuple(rounds)

