"""Exception hierarchy.

Four broad families, matching the CLI exit codes:

* ``ValidationError`` (exit 3) -- malformed inputs: bad files, bad
  partitions, set functions whose declared properties do not hold.
* ``MathConditionError`` (exit 2) -- the input is well formed but fails a
  mathematical precondition (not partition-connected, a sufficient
  condition is violated, ...).  These carry a machine-readable witness.
* ``LimitExceeded`` (exit 4) -- an exhaustive search was refused because
  the instance is above the configured desk-scale limit.
* ``InternalError`` (exit 5) -- a result failed the re-verification of
  its defining properties before being returned.  This signals a bug in
  the package, never a property of the input.
"""


class PartitionForgeError(Exception):
    """Base class for all errors raised by this package."""


class LimitExceeded(PartitionForgeError):
    """Instance exceeds a configured enumeration limit."""


class InternalError(PartitionForgeError):
    """A constructed result failed its own postcondition check."""


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
    """A mathematical precondition failed; carries a witness."""

    kind = "condition-failed"

    def witness_payload(self):
        """Witness data for reports, as JSON-compatible values."""
        return {}


class NotPartitionConnected(MathConditionError):
    kind = "not-partition-connected"

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition

    def witness_payload(self):
        if self.partition is None:
            return {}
        return {"partition": self.partition.blocks_as_lists()}


class NotArcConnected(MathConditionError):
    kind = "not-arc-connected"

    def __init__(self, message, vertex_set=None):
        super().__init__(message)
        self.vertex_set = vertex_set

    def witness_payload(self):
        from .bits import bit_list

        if self.vertex_set is None:
            return {}
        return {"vertex_set": bit_list(self.vertex_set)}


class NotSparse(MathConditionError):
    kind = "not-sparse"

    def __init__(self, message, vertex_set=None):
        super().__init__(message)
        self.vertex_set = vertex_set

    def witness_payload(self):
        from .bits import bit_list

        if self.vertex_set is None:
            return {}
        return {"vertex_set": bit_list(self.vertex_set)}


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

    def __init__(self, message, vertex_set=None, margin=None):
        super().__init__(message)
        self.vertex_set = vertex_set
        self.margin = margin

    def witness_payload(self):
        from .bits import bit_list

        payload = {}
        if self.vertex_set is not None:
            payload["vertex_set"] = bit_list(self.vertex_set)
        if self.margin is not None:
            payload["margin"] = str(self.margin)
        return payload


class HypothesisViolated(MathConditionError):
    kind = "hypothesis-violated"

    def __init__(self, message, clause=None, vertex_set=None, partition=None):
        super().__init__(message)
        self.clause = clause
        self.vertex_set = vertex_set
        self.partition = partition

    def witness_payload(self):
        from .bits import bit_list

        payload = {}
        if self.clause is not None:
            payload["clause"] = self.clause
        if self.vertex_set is not None:
            payload["vertex_set"] = bit_list(self.vertex_set)
        if self.partition is not None:
            payload["partition"] = self.partition.blocks_as_lists()
        return payload


class Infeasible(MathConditionError):
    """No subgraph satisfies the degree caps at all."""

    kind = "infeasible"


class FamilyNotMaximal(MathConditionError):
    """Certificate verification showed the supplied family is not maximum."""

    kind = "family-not-maximal"
