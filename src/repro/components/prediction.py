"""Performance prediction functions for static composition.

A component implementation may reference a (usually programmer-provided)
prediction function that is called with a context descriptor, and may use
performance data tables determined by micro-benchmarking on the target
platform (paper section II).  The composition tool evaluates these
off-line to build dispatch tables (static composition); the *runtime*
instead uses its own learned history models (:mod:`repro.runtime.perfmodel`).
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import DescriptorError
from repro.hw.devices import DeviceSpec

#: prediction callable signature: (ctx, device) -> predicted seconds
PredictFn = Callable[[Mapping[str, object], DeviceSpec], float]


def resolve_ref(ref: str):
    """Resolve a ``"module:attribute"`` reference to a Python object.

    This is how XML descriptors point at kernel and prediction code —
    the analog of the paper's source-file + symbol deployment info.
    """
    if ":" not in ref:
        raise DescriptorError(
            f"bad code reference {ref!r}: expected 'module:attribute'"
        )
    module_name, _, attr_path = ref.partition(":")
    # generated stubs and registries resolve every reference on import:
    # an already-imported module skips the import machinery
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise DescriptorError(
                f"cannot import module {module_name!r}: {exc}"
            ) from exc
    obj = module
    for part in attr_path.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise DescriptorError(
                f"module {module_name!r} has no attribute {attr_path!r}"
            ) from None
    return obj


@dataclass
class MicrobenchTable:
    """Measured (size, seconds) samples with log-log interpolation.

    The composition tool can run micro-benchmarking code on the target
    platform and store the resulting table in the performance data
    repository; prediction then interpolates (and extrapolates at the
    ends with the nearest segment's slope).
    """

    samples: list[tuple[float, float]] = field(default_factory=list)

    def add(self, size: float, seconds: float) -> None:
        if size <= 0 or seconds <= 0:
            raise DescriptorError("microbench samples must be positive")
        self.samples.append((float(size), float(seconds)))
        self.samples.sort()

    def predict(self, size: float) -> float:
        if not self.samples:
            raise DescriptorError("microbench table is empty")
        if size <= 0:
            raise DescriptorError(f"size must be positive, got {size}")
        pts = self.samples
        if len(pts) == 1:
            # single sample: assume linear scaling in size
            s0, t0 = pts[0]
            return t0 * size / s0
        x = math.log(size)
        xs = [math.log(s) for s, _ in pts]
        ys = [math.log(t) for _, t in pts]
        # clamp to the outermost segments for extrapolation
        if x <= xs[0]:
            i = 0
        elif x >= xs[-1]:
            i = len(xs) - 2
        else:
            i = max(j for j in range(len(xs) - 1) if xs[j] <= x)
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        if x1 == x0:
            return math.exp(y0)
        y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return math.exp(y)


class PredictionFunction:
    """Uniform wrapper over callable or table-based predictions."""

    def __init__(
        self,
        fn: PredictFn | None = None,
        table: MicrobenchTable | None = None,
        size_key: str = "size",
        ref: str = "",
    ) -> None:
        if (fn is None) == (table is None):
            raise DescriptorError(
                "prediction needs exactly one of a callable or a table"
            )
        self._fn = fn
        self._table = table
        self._size_key = size_key
        self.ref = ref

    @classmethod
    def from_ref(cls, ref: str) -> "PredictionFunction":
        """Build from a ``module:attribute`` reference in a descriptor."""
        obj = resolve_ref(ref)
        if isinstance(obj, MicrobenchTable):
            return cls(table=obj, ref=ref)
        if callable(obj):
            return cls(fn=obj, ref=ref)
        raise DescriptorError(
            f"reference {ref!r} is neither callable nor a MicrobenchTable"
        )

    def predict(self, ctx: Mapping[str, object], device: DeviceSpec) -> float:
        """Predicted execution time in seconds for ``ctx`` on ``device``."""
        if self._fn is not None:
            t = float(self._fn(ctx, device))
        else:
            assert self._table is not None
            size = ctx.get(self._size_key)
            if size is None:
                raise DescriptorError(
                    f"context lacks size key {self._size_key!r} needed by "
                    "table-based prediction"
                )
            t = self._table.predict(float(size))
        if t < 0 or not math.isfinite(t):
            raise DescriptorError(f"prediction returned invalid time {t}")
        return t
