"""Instance-size caps.

Every enumeration-heavy routine checks a cap before it starts, so a typo in
an instance size fails fast instead of allocating 2^40 rectangles.  Defaults
can be raised through the ``CCLB_CAPS`` environment variable
(``CCLB_CAPS="rect_side=10,dp_trials=20000"``) or per call; raised caps are
unsupported territory and may be slow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

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
        return replace(self, **kwargs)


def _from_env(base: Caps) -> Caps:
    raw = os.environ.get("CCLB_CAPS", "")
    if not raw.strip():
        return base
    overrides: dict[str, int] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key in Caps.__dataclass_fields__:
            overrides[key] = int(value)
    return base.with_overrides(**overrides)


def default_caps() -> Caps:
    """Caps from built-in defaults plus any CCLB_CAPS overrides."""
    return _from_env(Caps())
