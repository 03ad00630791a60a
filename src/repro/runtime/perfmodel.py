"""Performance models: what the runtime *learns* about variant timings.

The paper's runtime (StarPU) selects variants using performance history
recorded per codelet, per architecture and per data-size bucket.  We
reproduce both model kinds StarPU offers:

- :class:`HistoryModel` — per-(footprint, variant) running mean of observed
  execution times; exact but only valid for sizes already seen.
- :class:`RegressionModel` — per-variant power-law fit ``t = a * s^b + c``
  (we fit ``log t = log a + b log s``, StarPU's ``NL_REGRESSION_BASED``
  without the constant term) over (total operand bytes, time) samples;
  extrapolates to unseen sizes once enough samples span a size range.

:class:`PerfModel` combines them: exact history when available, regression
as fallback, ``None`` when the variant is still uncalibrated (schedulers
then explore, mirroring StarPU's calibration phase).

Observations come from the *simulated* execution times (analytic cost
model + lognormal noise), so the learning problem is faithful: the
scheduler never sees the ground-truth cost model, only noisy samples.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import RuntimeSystemError


@dataclass(slots=True)
class RunningStats:
    """Welford running mean/variance of a stream of durations."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        if x < 0:
            raise RuntimeSystemError(f"negative duration observed: {x}")
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0


#: footprint -> repr memo shared by every HistoryModel: repr() of the
#: same footprint tuple is recomputed for every record/predict call on
#: the per-task hot path otherwise.  Distinct footprints are few (one
#: per codelet and size bucket); the cap is a leak guard, not a policy.
_FOOTPRINT_REPRS: dict = {}
_FOOTPRINT_REPR_CAP = 4096


def _footprint_repr(footprint: tuple) -> str:
    try:
        r = _FOOTPRINT_REPRS.get(footprint)
    except TypeError:  # unhashable override inside the footprint
        return repr(footprint)
    if r is None:
        if len(_FOOTPRINT_REPRS) >= _FOOTPRINT_REPR_CAP:
            _FOOTPRINT_REPRS.clear()
        r = _FOOTPRINT_REPRS[footprint] = repr(footprint)
    return r


class HistoryModel:
    """Exact per-(footprint, variant) history of observed times."""

    def __init__(self, min_samples: int = 1) -> None:
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self._table: dict[tuple, RunningStats] = {}

    @staticmethod
    def _key(footprint: tuple, variant_name: str) -> tuple:
        # Footprints are keyed by their repr so that persisted models
        # (JSON) round-trip exactly: Task.footprint() is stable across runs.
        return (_footprint_repr(footprint), variant_name)

    def record(self, footprint: tuple, variant_name: str, duration: float) -> None:
        # _key and RunningStats.add inlined: this runs once per completed
        # task and the two call frames are measurable at 1M-task scale
        key = (_footprint_repr(footprint), variant_name)
        stats = self._table.get(key)
        if stats is None:
            stats = self._table[key] = RunningStats()
        if duration < 0:
            raise RuntimeSystemError(f"negative duration observed: {duration}")
        n = stats.n + 1
        stats.n = n
        delta = duration - stats.mean
        stats.mean += delta / n
        stats.m2 += delta * (duration - stats.mean)

    def predict(self, footprint: tuple, variant_name: str) -> float | None:
        stats = self._table.get(self._key(footprint, variant_name))
        if stats is None or stats.n < self.min_samples:
            return None
        return stats.mean

    def n_samples(self, footprint: tuple, variant_name: str) -> int:
        stats = self._table.get(self._key(footprint, variant_name))
        return 0 if stats is None else stats.n

    def __len__(self) -> int:
        return len(self._table)


class RegressionModel:
    """Power-law fit of time vs. total operand size, per variant.

    Each variant's samples live in two flat ``array('d')`` — sizes and
    durations, in recording order — rather than a list of
    ``(size, duration)`` tuples: a session keeps every sample, and the
    arrays hold one in 16 bytes.  Values are stored as floats (the
    engine records float sizes), so :meth:`samples` returns float pairs.
    """

    def __init__(self, min_samples: int = 4, min_size_ratio: float = 2.0) -> None:
        self.min_samples = min_samples
        #: largest/smallest sampled size must exceed this for extrapolation
        self.min_size_ratio = min_size_ratio
        #: variant -> (sizes, durations)
        self._samples: dict[str, tuple[array, array]] = {}
        #: variant -> (smallest, largest) sampled size
        self._bounds: dict[str, tuple[float, float]] = {}
        self._fits: dict[str, tuple[float, float] | None] = {}

    def record(self, variant_name: str, size: float, duration: float) -> None:
        if size <= 0 or duration <= 0:
            return  # log-log fit cannot use non-positive samples
        cols = self._samples.get(variant_name)
        if cols is None:
            cols = self._samples[variant_name] = (array("d"), array("d"))
        lo, hi = self._bounds.get(variant_name, (math.inf, -math.inf))
        if size < lo or size > hi:
            self._bounds[variant_name] = (min(lo, size), max(hi, size))
        cols[0].append(size)
        cols[1].append(duration)
        if self._fits:  # invalidate cached fit (skipped while unfit)
            self._fits.pop(variant_name, None)

    def _fit(self, variant_name: str) -> tuple[float, float] | None:
        """Return (log_a, b) of ``t = a * s^b``, or None if unfit-able."""
        if variant_name in self._fits:
            return self._fits[variant_name]
        sizes, durations = self._samples.get(variant_name, ((), ()))
        fit = self._fit_samples(sizes, durations)
        self._fits[variant_name] = fit
        return fit

    def _fit_samples(self, sizes, durations) -> tuple[float, float] | None:
        fit: tuple[float, float] | None = None
        if len(sizes) >= self.min_samples:
            # a single footprint size cannot anchor a slope, whatever
            # min_size_ratio allows; without the explicit spread check a
            # rounding-noise sxx (~1e-31) would fabricate one
            lo, hi = min(sizes), max(sizes)
            if hi > lo and hi / lo >= self.min_size_ratio:
                xs = list(map(math.log, sizes))
                ys = list(map(math.log, durations))
                n = len(xs)
                mx = sum(xs) / n
                my = sum(ys) / n
                sxx = sum((x - mx) ** 2 for x in xs)
                # noise floor: legitimate fits (size ratio >= 2) give
                # sxx of order n*(ln 2 / 2)^2 ~ 0.1; float rounding of
                # equal log-sizes gives ~1e-30
                if sxx > 1e-12:
                    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
                    log_a = my - b * mx
                    fit = (log_a, b)
        return fit

    def has_fit(self, variant_name: str) -> bool:
        """Whether :meth:`predict` answers for this variant, in O(1).

        Applies :meth:`_fit_samples`' sample-count and size-range rules
        to the tracked size range instead of fitting.  Sizes a ratio r
        apart give ``sxx >= ln(r)^2 / 2``, so the fit's 1e-12 ``sxx``
        floor can refuse only when ``min_size_ratio`` is below 1 + 2e-6.
        """
        if self.min_size_ratio < 1.0 + 2e-6:
            return self._fit(variant_name) is not None
        lo, hi = self._bounds.get(variant_name, (1.0, 1.0))
        return (
            hi > lo
            and hi / lo >= self.min_size_ratio
            and self.n_samples(variant_name) >= self.min_samples
        )

    def predict(self, variant_name: str, size: float) -> float | None:
        if size <= 0:
            return None
        fit = self._fit(variant_name)
        if fit is None:
            return None
        log_a, b = fit
        return math.exp(log_a + b * math.log(size))

    def predict_from(
        self, samples: list[tuple[float, float]], size: float
    ) -> float | None:
        """Prediction from an explicit sample list under this model's fit
        rules, without touching recorded state — e.g. for out-of-sample
        validation of a fit against a measurement it has not seen."""
        if size <= 0:
            return None
        fit = self._fit_samples(
            [s for s, _ in samples], [t for _, t in samples]
        )
        if fit is None:
            return None
        log_a, b = fit
        return math.exp(log_a + b * math.log(size))

    def samples(self, variant_name: str) -> list[tuple[float, float]]:
        """Copy of the recorded (size, duration) samples for a variant."""
        return list(zip(*self._samples.get(variant_name, ((), ()))))

    def n_samples(self, variant_name: str) -> int:
        cols = self._samples.get(variant_name)
        return 0 if cols is None else len(cols[0])

    def put_samples(self, variant_name: str, samples) -> None:
        """Replace a variant's samples with ``(size, duration)`` pairs."""
        sizes = array("d", [s for s, _ in samples])
        self._samples[variant_name] = (sizes, array("d", [t for _, t in samples]))
        self._bounds[variant_name] = (min(sizes, default=1.0), max(sizes, default=1.0))
        self._fits.pop(variant_name, None)


class PerfModel:
    """History-first, regression-fallback performance model.

    Observations carry a *provenance*: ``"analytical"`` samples come
    from the simulated timeline (analytic cost model + noise) and are
    what schedulers consult; ``"measured"`` samples are wall-clock
    timings of kernels actually executed by a real backend (see
    :mod:`repro.exec`).  The two populations live in parallel tables of
    the same model — never mixed, because their time bases differ — so
    one persisted file carries both and the analytical-vs-measured
    differential (``repro.experiments.backends``) can compare them.
    """

    #: accepted values for the ``provenance`` argument
    PROVENANCES = ("analytical", "measured")

    def __init__(
        self,
        history_min_samples: int = 1,
        regression_min_samples: int = 4,
    ) -> None:
        self.history = HistoryModel(min_samples=history_min_samples)
        self.regression = RegressionModel(min_samples=regression_min_samples)
        # wall-clock observations from real execution backends; same
        # model kinds, separate population (never consulted by the
        # simulated scheduling path)
        self.measured_history = HistoryModel(min_samples=history_min_samples)
        self.measured_regression = RegressionModel(
            min_samples=regression_min_samples
        )
        #: variant name -> codelet name, learned from footprints at record
        #: time (footprints lead with the codelet name); lets the
        #: per-machine model store group entries per codelet
        self._variant_codelet: dict[str, str] = {}

    def _tables(self, provenance: str) -> tuple[HistoryModel, RegressionModel]:
        if provenance == "analytical":
            return self.history, self.regression
        if provenance == "measured":
            return self.measured_history, self.measured_regression
        raise RuntimeSystemError(
            f"unknown provenance {provenance!r}; "
            f"expected one of {self.PROVENANCES}"
        )

    def record(
        self,
        footprint: tuple,
        variant_name: str,
        size: float,
        duration: float,
        provenance: str = "analytical",
    ) -> None:
        """Feed one observation (called by the engine at task completion)."""
        if (
            variant_name not in self._variant_codelet
            and footprint
            and isinstance(footprint[0], str)
        ):
            self._variant_codelet[variant_name] = footprint[0]
        if provenance == "analytical":
            hist, reg = self.history, self.regression
        else:
            hist, reg = self._tables(provenance)
        hist.record(footprint, variant_name, duration)
        reg.record(variant_name, size, duration)

    def predict(
        self,
        footprint: tuple,
        variant_name: str,
        size: float,
        provenance: str = "analytical",
    ) -> float | None:
        """Best available estimate, or None while uncalibrated."""
        hist, reg = self._tables(provenance)
        est = hist.predict(footprint, variant_name)
        if est is not None:
            return est
        return reg.predict(variant_name, size)

    def n_samples(
        self, footprint: tuple, variant_name: str, provenance: str = "analytical"
    ) -> int:
        return self._tables(provenance)[0].n_samples(footprint, variant_name)

    def measured_variants(self) -> set[str]:
        """Variants with at least one wall-clock (measured) observation."""
        out = {var for _, var in self.measured_history._table}
        out |= set(self.measured_regression._samples)
        return out

    def calibrated(
        self,
        footprint: tuple,
        variant_name: str,
        size: float,
        min_history: int = 1,
    ) -> bool:
        """Whether the model can be *trusted* for this (footprint, size).

        Calibrated means either enough exact history for the footprint
        bucket, or a usable regression fit covering the size — StarPU's
        regression models likewise serve sizes never observed directly
        once the fit exists.  Schedulers explore while this is False.
        """
        if self.history.n_samples(footprint, variant_name) >= min_history:
            return True
        return size > 0 and self.regression.has_fit(variant_name)

    def codelet_of(self, variant_name: str) -> str:
        """Codelet a variant's observations belong to ('' if unknown)."""
        return self._variant_codelet.get(variant_name, "")

    def codelets(self) -> set[str]:
        """All codelet names with at least one recorded observation."""
        return set(self._variant_codelet.values())

    def unmapped_variants(self) -> set[str]:
        """Variants observed without a codelet-naming footprint."""
        out = {var for _, var in self.history._table}
        out |= set(self.regression._samples)
        out |= {var for _, var in self.measured_history._table}
        out |= set(self.measured_regression._samples)
        return out - set(self._variant_codelet)

    # -- persistence (StarPU stores per-machine perfmodel files) -----------

    def to_dict(self) -> dict:
        out = {
            "history": [
                {
                    "footprint": fp,
                    "variant": var,
                    "n": st.n,
                    "mean": st.mean,
                    "m2": st.m2,
                }
                for (fp, var), st in self.history._table.items()
            ],
            "regression": {
                var: self.regression.samples(var)
                for var in self.regression._samples
            },
            "codelets": dict(self._variant_codelet),
        }
        # measured tables are emitted only when non-empty, so files from
        # purely-simulated sessions are unchanged byte for byte
        if self.measured_history._table:
            out["measured_history"] = [
                {
                    "footprint": fp,
                    "variant": var,
                    "n": st.n,
                    "mean": st.mean,
                    "m2": st.m2,
                }
                for (fp, var), st in self.measured_history._table.items()
            ]
        if self.measured_regression._samples:
            out["measured_regression"] = {
                var: self.measured_regression.samples(var)
                for var in self.measured_regression._samples
            }
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "PerfModel":
        model = cls()
        for prefix, (hist, reg) in (
            ("", model._tables("analytical")),
            ("measured_", model._tables("measured")),
        ):
            for entry in raw.get(prefix + "history", []):
                hist._table[(entry["footprint"], entry["variant"])] = RunningStats(
                    n=entry["n"], mean=entry["mean"], m2=entry["m2"]
                )
            for var, samples in raw.get(prefix + "regression", {}).items():
                reg.put_samples(var, samples)
        model._variant_codelet = dict(raw.get("codelets", {}))
        return model

    def save(self, path: str | Path) -> None:
        """Atomically persist the model as JSON.

        A plain ``write_text`` interrupted mid-write leaves truncated
        JSON behind that poisons every later session; writing to a
        sibling temp file and ``os.replace``-ing guarantees readers see
        either the old or the new model, never a torn one.
        """
        path = Path(path)
        payload = json.dumps(self.to_dict(), indent=1)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "PerfModel":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- merging (the model store combines concurrent sessions) ------------

    def merge_from(self, other: "PerfModel") -> None:
        """Fold ``other``'s observations into this model, key by key.

        Sessions warm-started from the same store hold overlapping
        sample sets, so summing statistics would double-count the shared
        baseline.  Per key the *larger* sample set wins (it is a
        superset of the shared baseline in the common sequential case);
        keys only one side knows are always kept.  Concurrent
        experiments therefore never clobber each other's keys, at worst
        one side's extra samples for a shared key are dropped.
        """
        for mine_h, theirs_h in (
            (self.history, other.history),
            (self.measured_history, other.measured_history),
        ):
            for key, theirs in theirs_h._table.items():
                ours = mine_h._table.get(key)
                if ours is None or theirs.n > ours.n:
                    mine_h._table[key] = RunningStats(
                        n=theirs.n, mean=theirs.mean, m2=theirs.m2
                    )
        for mine_r, theirs_r in (
            (self.regression, other.regression),
            (self.measured_regression, other.measured_regression),
        ):
            for var in theirs_r._samples:
                if (
                    var not in mine_r._samples
                    or theirs_r.n_samples(var) > mine_r.n_samples(var)
                ):
                    mine_r.put_samples(var, theirs_r.samples(var))
        for var, codelet in other._variant_codelet.items():
            self._variant_codelet.setdefault(var, codelet)

    def subset_for_codelets(self, codelets: "set[str]") -> "PerfModel":
        """A new model holding only entries belonging to ``codelets``.

        The empty string selects observations whose footprint named no
        codelet (hand-fed models; production footprints always do).
        """
        out = PerfModel(
            history_min_samples=self.history.min_samples,
            regression_min_samples=self.regression.min_samples,
        )
        keep = {
            var
            for var, cl in self._variant_codelet.items()
            if cl in codelets
        }
        if "" in codelets:
            keep |= self.unmapped_variants()
        for mine_h, theirs_h in (
            (out.history, self.history),
            (out.measured_history, self.measured_history),
        ):
            for (fp, var), st in theirs_h._table.items():
                if var in keep:
                    mine_h._table[(fp, var)] = RunningStats(
                        n=st.n, mean=st.mean, m2=st.m2
                    )
        for mine_r, theirs_r in (
            (out.regression, self.regression),
            (out.measured_regression, self.measured_regression),
        ):
            for var in theirs_r._samples:
                if var in keep:
                    mine_r.put_samples(var, theirs_r.samples(var))
        out._variant_codelet = {
            var: cl for var, cl in self._variant_codelet.items() if var in keep
        }
        return out
