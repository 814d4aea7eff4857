"""Exception types shared across the package.

Every error raised by library code derives from :class:`ConsensusToolError`,
so callers (and the CLI) can catch one base class.  Errors that point at a
specific edge or schedule entry carry the offending 0-based indices as
attributes.  :meth:`ConsensusToolError.describe` renders a message with its
edge in a chosen base; scenario files and the CLI show it 1-based.
"""

from __future__ import annotations


class ConsensusToolError(Exception):
    """Base class for all package-specific errors; ``input`` names the rejected input, if one is."""

    def __init__(self, *args, input: str | None = None):
        super().__init__(*args)
        self.input = input

    def describe(self, base: int = 0) -> str:
        """The message with any node ids counted from ``base`` (0 or 1)."""
        return str(self)


class EdgeError(ConsensusToolError):
    """An error about the edge ``{i, j}`` or the ``node`` (0-based), or about neither.

    ``problem`` completes the sentence "edge (i,j) ..." or "node k ...".
    ``index`` is the offending matrix's position when a stack was checked.
    """

    def __init__(self, problem: str, i: int | None = None, j: int | None = None,
                 index: int | None = None, node: int | None = None):
        self.problem = problem
        self.i = i
        self.j = j
        self.index = index
        self.node = node
        super().__init__(self.describe(0))

    def describe(self, base: int = 0) -> str:
        if self.node is not None:
            return f"node {self.node + base} {self.problem}"
        if self.i is None or self.j is None:
            return self.problem
        return f"edge ({self.i + base},{self.j + base}) {self.problem}"


class NonSymmetricError(EdgeError):
    """A matrix expected to be finite and symmetric is not, beyond tolerance.

    ``problem`` completes "matrix ..." or, for an edge weight, "edge (i,j)
    weight ...".
    """

    def describe(self, base: int = 0) -> str:
        if self.i is None or self.j is None:
            return f"matrix {self.problem}"
        return f"edge ({self.i + base},{self.j + base}) weight {self.problem}"


class IndefiniteWeightError(EdgeError):
    """An edge weight has both significantly positive and negative eigenvalues."""


class ZeroWeightError(EdgeError):
    """An edge carries a zero weight matrix."""


class SelfLoopError(EdgeError):
    """An edge connects a node to itself."""


class WeightOverflowError(EdgeError):
    """A weight, or the sum of a node's edge weights, exceeds the float range.

    The error names the edge ``{i, j}`` or, for a sum, the ``node``.
    """


class NotPSDError(ConsensusToolError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class DimensionMismatchError(ConsensusToolError):
    """Array or graph dimensions are inconsistent."""


class DwellTooShortError(ConsensusToolError):
    """A schedule segment dwells for less than the declared minimum alpha."""

    def __init__(self, message: str, segment: int | None = None, input: str = "dwell"):
        super().__init__(message, input=input)
        self.segment = segment


class EmptyScheduleError(ConsensusToolError):
    """A schedule contains no segments or an empty graph catalog."""


class ScheduleError(ConsensusToolError):
    """An unknown graph or generator, a non-positive scale, or totals or counts past range."""


class EmptyWindowError(ConsensusToolError):
    """A window selects no schedule segments."""


class SignInconsistentEdgeError(EdgeError):
    """An edge appears with opposite weight signs inside one averaging window."""


class WindowsNotContiguousError(ConsensusToolError):
    """Certification windows do not tile the schedule prefix back to back."""


class ScheduleExhaustedError(ConsensusToolError):
    """Simulation horizon extends beyond the final schedule segment."""


class HorizonError(ConsensusToolError):
    """Simulation horizon or step is not strictly positive, or does not fit the run.

    An RK4 ``step_h`` must divide every segment it integrates, and the samples
    of an exact run must fit in the host's physical memory, or its cgroup's limit.
    """


class OutputError(ConsensusToolError):
    """An output path names a directory or the scenario file, or lies in no existing directory."""


class ConfigError(ConsensusToolError):
    """Base class for scenario-file problems."""


class ConfigParseError(ConfigError):
    """Scenario file is not valid JSON."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ConfigValidationError(ConfigError):
    """Scenario file parsed but a field is missing, mistyped, or inconsistent."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
