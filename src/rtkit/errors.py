"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all rtkit errors."""


# --- pose ingestion ---

class ParseError(ToolkitError):
    """Malformed row/line in an input file; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(ToolkitError):
    """Structurally valid file with wrong content shape (e.g. landmark count)."""


class EmptyStream(ToolkitError):
    """Input contained no frames or records."""


# --- kinematics ---

class GapError(ToolkitError):
    """Frame gaps found where a contiguous stream is required."""

    def __init__(self, message: str, frame_indices: list[int] | None = None):
        super().__init__(message)
        self.frame_indices = frame_indices or []


# --- detector ---

class KernelTooShort(ToolkitError):
    """Kernel would have fewer than 3 samples at the given frame spacing."""


class LengthError(ToolkitError):
    """Series too short for the operation (shorter than the kernel, or too few frames or samples)."""


class FlatSignal(ToolkitError):
    """Windowed convolution is constant; no unique reaction pattern."""


class NonFiniteSignal(ToolkitError):
    """NaN or infinite values in a windowed convolution or a spectral transform's input; names the velocity frames."""

    def __init__(self, message: str, frame_indices: list[int] | None = None):
        super().__init__(message)
        self.frame_indices = frame_indices or []


class GapInWindow(ToolkitError):
    """Search window covers a frame gap, or an output whose kernel crosses the series edge."""


class NegativeOnset(ToolkitError):
    """Peak time earlier than half the kernel duration."""


# --- spectral ---

class NonUniformSampling(ToolkitError):
    """Series is not uniformly sampled; transform undefined."""


class BadScales(ToolkitError):
    """Scale grid not positive/ascending."""


# --- scheduler ---

class TransportError(ToolkitError):
    """Trigger dispatch failed; partial event log preserved on .events."""

    def __init__(self, message: str, events=None):
        super().__init__(message)
        self.events = list(events) if events is not None else []


# --- stats ---

class DegenerateSample(ToolkitError):
    """Zero-variance samples with equal means; t statistic undefined."""


class PairingError(ToolkitError):
    """Participants cannot be paired one-to-one across the two samples."""


class MissingCell(ToolkitError):
    """Required (setting, modality) cells absent from the records."""

    def __init__(self, message: str, cells=None):
        super().__init__(message)
        self.cells = list(cells) if cells is not None else []


# --- synthesis ---

class SpecError(ToolkitError):
    """Invalid burst layout (overlap, out of range)."""


class BadParams(ToolkitError):
    """Invalid generator cell parameters."""
