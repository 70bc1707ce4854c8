"""Exceptions and resource limits shared by every module.

All potentially unbounded computations (iteration, orbits, jets, power
searches, canonical heights, factor recombination, modular gcds, word
searches) consult the module-level LIMITS object and fail loudly with a
ResourceLimitError instead of thrashing.  The caps are plain attributes
that a library caller can adjust; the CLI runs with the defaults (only its
orbit command takes per-call step and size caps).
"""

from __future__ import annotations

from dataclasses import dataclass


class ItergcdError(Exception):
    """Base class for every error raised on purpose by this package."""


class ResourceLimitError(ItergcdError):
    """A configured degree / bit-size / step cap was exceeded."""


class DegenerateInputError(ItergcdError):
    """Inputs collapse the question being asked (e.g. q^n equals c exactly)."""


class HypothesisViolationError(ItergcdError):
    """The structural hypotheses behind a certificate do not hold."""


class UndecidedError(ItergcdError):
    """A cap was hit before the computation could resolve either way."""


class VerificationError(ItergcdError):
    """An internally recomputed check (divisibility, claimed identity) failed."""


class ParseError(ItergcdError):
    """Syntax error in a polynomial expression.

    Carries the byte offset of the offending token and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return "%s (byte %d; expected one of: %s)" % (
                base, self.offset, ", ".join(self.expected))
        return "%s (byte %d)" % (base, self.offset)


class EmbeddingError(ItergcdError):
    """Complex root finding failed to reach the requested residual."""


@dataclass
class Limits:
    """Mutable resource caps; the defaults are deliberately generous."""

    max_degree: int = 65536        # hard cap on any polynomial degree
    max_coeff_bits: int = 1 << 22  # cap on a single coefficient's bit size
    orbit_steps: int = 512         # steps before an orbit search gives up
    orbit_elem_bits: int = 1 << 16 # size cap on one exact orbit element
    jet_order: int = 4096          # adaptive jet refinement stops here
    power_search: int = 64         # exceptional-exponent search cap
    height_elem_bits: int = 1 << 22  # size cap on canonical-height iterates
    recombination_subsets: int = 1 << 16  # Zassenhaus subsets tried
    gcd_primes: int = 4096         # primes drawn by one modular gcd
    indep_words: int = 1 << 16     # words kept by one independence probe


LIMITS = Limits()


def check_degree(deg: int) -> None:
    if deg > LIMITS.max_degree:
        raise ResourceLimitError(
            "degree %d exceeds cap %d" % (deg, LIMITS.max_degree))


def check_bits(nbits: int) -> None:
    if nbits > LIMITS.max_coeff_bits:
        raise ResourceLimitError(
            "coefficient size %d bits exceeds cap %d" % (nbits, LIMITS.max_coeff_bits))
