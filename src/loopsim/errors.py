"""Exception types shared across the simulator."""


class LoopsimError(Exception):
    """Base class for all loopsim errors."""


class UnknownNode(LoopsimError):
    def __init__(self, node_id: str):
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class UnknownPod(LoopsimError):
    def __init__(self, pod_id: str):
        super().__init__(f"unknown pod: {pod_id!r}")
        self.pod_id = pod_id


class CapacityExceeded(LoopsimError):
    def __init__(self, node_id: str, detail: str = ""):
        msg = f"capacity exceeded on node {node_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.node_id = node_id


class IndexDrift(LoopsimError):
    """A node's carried usage index no longer matches its bindings."""

    def __init__(self, node_id: str, detail: str):
        super().__init__(f"usage index of node {node_id!r} drifted: {detail}")
        self.node_id = node_id


class TaintViolation(LoopsimError):
    def __init__(self, pod_id: str, node_id: str):
        super().__init__(f"pod {pod_id!r} does not tolerate taints on node {node_id!r}")
        self.pod_id = pod_id
        self.node_id = node_id


class InvalidPhase(LoopsimError):
    def __init__(self, pod_id: str, detail: str):
        super().__init__(f"pod {pod_id!r} {detail}")
        self.pod_id = pod_id


class EmptyScope(LoopsimError):
    """An agent scope must name at least one container, node, or region."""


class SuspendedAgent(LoopsimError):
    def __init__(self, agent_id: str):
        super().__init__(f"agent {agent_id!r} is suspended")
        self.agent_id = agent_id


class ParseError(LoopsimError):
    """Scenario text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class ValidationError(LoopsimError):
    """Scenario parsed but refers to undefined entities or breaks a structural rule."""


class HashMismatch(LoopsimError):
    def __init__(self, expected: str, actual: str):
        super().__init__(
            f"trace was recorded from a different scenario (hash {actual[:12]}… != {expected[:12]}…)"
        )
        self.expected = expected
        self.actual = actual
