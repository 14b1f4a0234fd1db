"""Instance-size caps.

Every enumeration-heavy routine checks a cap before it starts, so a typo in
an instance size fails fast instead of allocating 2^40 rectangles.  Defaults
can be raised through the ``CCLB_CAPS`` environment variable
(``CCLB_CAPS="rect_side=10,dp_trials=20000"``) or per call; raised caps are
unsupported territory and may be slow.  An unknown key, or a value that is
not a positive integer, raises ``ParameterError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ParameterError

__all__ = ["Caps", "default_caps"]


@dataclass(frozen=True)
class Caps:
    rect_side: int = 8          # max x_size / y_size for rectangle enumeration
    lp_vars_float: int = 50_000
    lp_rows_float: int = 5_000
    lp_vars_rational: int = 2_000
    lp_rows_rational: int = 2_000
    dp_trials: int = 500        # max T for the exact output law; its work grows with log T
    dp_universe: int = 16       # max |U| for the DP
    grid_cells: int = 256       # max x_size * y_size for strategy extraction

    def with_overrides(self, **kwargs: int) -> "Caps":
        """These caps with the fields named in `kwargs` replaced; an unknown
        field, or a value that is not a positive int, raises ParameterError."""
        for key, value in kwargs.items():
            if key not in Caps.__dataclass_fields__:
                raise ParameterError(f"unknown cap {key!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ParameterError(f"{key} must be a positive integer, got {value!r}")
        return replace(self, **kwargs)


def _from_env(base: Caps) -> Caps:
    """`base` with the overrides of CCLB_CAPS, a comma-separated list of
    key=value entries; a value of decimal digits is read as an int."""
    raw = os.environ.get("CCLB_CAPS", "")
    if not raw.strip():
        return base
    overrides: dict = {}
    for item in raw.split(","):
        if item.strip():
            key, _, value = (part.strip() for part in item.partition("="))
            overrides[key] = int(value) if value.isdecimal() else value
    try:
        return base.with_overrides(**overrides)
    except ParameterError as e:
        raise ParameterError(f"CCLB_CAPS: {e}") from None


def default_caps() -> Caps:
    """Caps from built-in defaults plus any CCLB_CAPS overrides."""
    return _from_env(Caps())
