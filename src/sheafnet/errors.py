"""Shared exception types."""


class SheafnetError(Exception):
    """Base class for all library errors."""


class ArchitectureError(SheafnetError):
    """Malformed architecture document or graph-level schema violation."""


class PosetError(SheafnetError):
    """Order-theoretic violation (antisymmetry failure, unknown element, ...)."""


class PresheafError(SheafnetError):
    """Presheaf data violates totality, typing or functoriality."""


class GroupoidError(SheafnetError):
    """Malformed groupoid, functor or stack data, or a broken functor axiom."""


class LanguageError(SheafnetError):
    """Invalid language, measure or theory data."""


class BoundExceeded(SheafnetError):
    """An enumeration would exceed the configured bound."""


class InfinityArithmetic(SheafnetError):
    """An expression mixed two infinities (would be NaN)."""


class NondifferentiablePoint(SheafnetError):
    """Gradient requested at a kink of a piecewise activation."""
