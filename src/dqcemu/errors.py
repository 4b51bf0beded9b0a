"""Exception types shared across the emulator.

Every error carries a plain message; wrappers that add context (e.g. the
failing shot index) re-raise the same type with an extended message.
"""

from __future__ import annotations


class EmulatorError(Exception):
    """Base class for all emulator errors."""


# --- simulation engine ---

class UnknownGate(EmulatorError):
    pass


class ArityMismatch(EmulatorError):
    pass


class QubitOutOfRange(EmulatorError):
    pass


class ZeroNorm(EmulatorError):
    """Numerical collapse failure: the projected branch has no weight."""


class UnsupportedInstruction(EmulatorError):
    pass


class WidthExceeded(EmulatorError):
    pass


# --- circuit representation ---

class WidthMismatch(EmulatorError):
    pass


class StraddlingGate(EmulatorError):
    pass


class IndexOutOfRange(EmulatorError):
    pass


class SelfLink(EmulatorError):
    pass


class EmptyBody(EmulatorError):
    pass


class NotSupported(EmulatorError):
    pass


class SchemaViolation(EmulatorError):
    """Wire-format violation; the message starts with the offending field path."""

    def __init__(self, path: str, detail: str = ""):
        self.path = path
        super().__init__(f"{path}: {detail}" if detail else path)


# --- classical channel ---

class PeerUnreachable(EmulatorError):
    pass


class ChannelTimeout(EmulatorError):
    pass


class EpochMismatch(EmulatorError):
    """Shot-loop desynchronization: a bit arrived tagged with the wrong epoch."""


# --- vQPU server ---

class BindFailure(EmulatorError):
    pass


class QueueFull(EmulatorError):
    pass


class ValidationFailed(EmulatorError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "validation failed")


class UnknownJob(EmulatorError):
    pass


class NoParamSlots(EmulatorError):
    pass


class Evicted(EmulatorError):
    """The job finished and its result was dropped to bound the vQPU's memory."""


class ReplyTooLarge(EmulatorError):
    """The job's result reply is larger than a frame, so no client could read it."""


# --- quantum executor ---

class DanglingProtocol(EmulatorError):
    pass


class MergeDeadlock(EmulatorError):
    pass


class DuplicateId(EmulatorError):
    pass


class CommQubitCollision(EmulatorError):
    pass


# --- orchestrator ---

class PortExhausted(EmulatorError):
    pass


class BackendFileInvalid(EmulatorError):
    pass


class ConflictingFlags(EmulatorError):
    pass


class DuplicateFamilyName(EmulatorError):
    pass


# --- client SDK ---

class NoQpusAvailable(EmulatorError):
    pass


class DistributedInstructionPresent(EmulatorError):
    pass


class NotEnoughQpus(EmulatorError):
    pass


class CommModeMismatch(EmulatorError):
    pass


class FamilyMismatch(EmulatorError):
    """The parts of one quantum-communication program name different executors."""


class UnknownPeerId(EmulatorError):
    pass


class InvalidState(EmulatorError):
    pass


class UnreadableReply(EmulatorError):
    """A server's reply frame was refused: its header is over the frame cap
    or its payload is not JSON."""


class JobFailed(EmulatorError):
    def __init__(self, job_id: str, cause: str):
        self.job_id = job_id
        self.cause = cause
        super().__init__(f"job {job_id} failed: {cause}")


# --- algorithms ---

class EmptyCounts(EmulatorError):
    pass


class LengthMismatch(EmulatorError):
    pass


#: wire error code -> exception class, used when decoding error frames
ERROR_CODES = {
    cls.__name__: cls
    for cls in [
        UnknownGate, ArityMismatch, QubitOutOfRange, ZeroNorm,
        UnsupportedInstruction, WidthExceeded, WidthMismatch, StraddlingGate,
        IndexOutOfRange, SelfLink, EmptyBody, NotSupported,
        PeerUnreachable, ChannelTimeout, EpochMismatch,
        BindFailure, QueueFull, UnknownJob, NoParamSlots, Evicted, ReplyTooLarge,
        DanglingProtocol, MergeDeadlock, DuplicateId, CommQubitCollision,
        CommModeMismatch, InvalidState, NotEnoughQpus, UnknownPeerId,
    ]
}
