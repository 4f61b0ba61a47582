"""Exception hierarchy.

Each class carries how the CLI reports it: ``kind`` names the error in
the report, ``exit_code`` is the process exit code, and
``witness_payload()`` gives the witness fields as JSON-compatible values.
Four broad families:

* ``ValidationError`` (kind ``validation``, exit 3) -- malformed inputs:
  bad files, bad partitions, set functions whose declared properties do
  not hold.
* ``MathConditionError`` (exit 2) -- the input is well formed but fails a
  mathematical precondition (not partition-connected, a sufficient
  condition is violated, ...).  Each subclass names its own kind and
  carries a machine-readable witness.
* ``LimitExceeded`` (kind ``limit-exceeded``, exit 4) -- an exhaustive
  search was refused because the instance is above the configured
  desk-scale limit.
* ``InternalError`` (kind ``internal``, exit 5) -- a result failed the
  re-verification of its defining properties before being returned.
  This signals a bug in the package, never a property of the input.
"""


class PartitionForgeError(Exception):
    """Base class for all errors raised by this package."""

    kind = "validation"
    exit_code = 3

    def witness_payload(self):
        """Witness data for reports, as JSON-compatible values."""
        return {}


class LimitExceeded(PartitionForgeError):
    """Instance exceeds a configured enumeration limit."""

    kind = "limit-exceeded"
    exit_code = 4


class InternalError(PartitionForgeError):
    """A constructed result failed its own postcondition check."""

    kind = "internal"
    exit_code = 5


class ValidationError(PartitionForgeError):
    """Malformed input: construction or parsing failed."""


class MalformedPartition(ValidationError):
    """Blocks are not disjoint nonempty sets covering the ground set."""


class FlagViolation(ValidationError):
    """A set function lacks, or fails validation of, a required property."""

    def __init__(self, message, prop=None, counterexample=None):
        super().__init__(message)
        self.prop = prop
        self.counterexample = counterexample


class MathConditionError(PartitionForgeError):
    """A mathematical precondition failed; carries a witness: a violating
    partition, a vertex set (mask), the clause that failed and a margin,
    each of them optional."""

    kind = "condition-failed"
    exit_code = 2

    def __init__(self, message, partition=None, *, vertex_set=None, margin=None,
                 clause=None):
        super().__init__(message)
        self.partition = partition
        self.vertex_set = vertex_set
        self.margin = margin
        self.clause = clause

    def witness_payload(self):
        from .bits import bit_list

        payload = {}
        if self.clause is not None:
            payload["clause"] = self.clause
        if self.vertex_set is not None:
            payload["vertex_set"] = bit_list(self.vertex_set)
        if self.partition is not None:
            payload["partition"] = self.partition.blocks_as_lists()
        if self.margin is not None:
            payload["margin"] = str(self.margin)
        return payload


class NotPartitionConnected(MathConditionError):
    kind = "not-partition-connected"


class NotArcConnected(MathConditionError):
    kind = "not-arc-connected"


class NotSparse(MathConditionError):
    kind = "not-sparse"


class Disconnected(MathConditionError):
    """No vertex set of the required kind exists (e.g. the two terminals
    lie in different partition-connected components)."""

    kind = "disconnected"


class NoWitness(MathConditionError):
    """No witness set satisfies the structure conditions; the supplied
    subgraph was probably not minimum-excess."""

    kind = "no-witness"


class ConditionViolated(MathConditionError):
    kind = "condition-violated"


class HypothesisViolated(MathConditionError):
    kind = "hypothesis-violated"


class Infeasible(MathConditionError):
    """No subgraph satisfies the degree caps at all."""

    kind = "infeasible"


class FamilyNotMaximal(MathConditionError):
    """Certificate verification showed the supplied family is not maximum."""

    kind = "family-not-maximal"
