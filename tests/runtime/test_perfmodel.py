"""Performance models: history, regression and persistence."""

import json
from array import array

import numpy as np
import pytest

from repro.errors import RuntimeSystemError
from repro.runtime.perfmodel import (
    HistoryModel,
    PerfModel,
    RegressionModel,
    RunningStats,
)


def test_running_stats_mean_and_variance():
    st = RunningStats()
    for x in (1.0, 2.0, 3.0, 4.0):
        st.add(x)
    assert st.mean == pytest.approx(2.5)
    assert st.variance == pytest.approx(5.0 / 3.0)


def test_running_stats_rejects_negative():
    with pytest.raises(RuntimeSystemError):
        RunningStats().add(-1.0)


def test_history_predict_requires_min_samples():
    model = HistoryModel(min_samples=3)
    fp = ("c", (10,))
    model.record(fp, "v", 1.0)
    model.record(fp, "v", 1.0)
    assert model.predict(fp, "v") is None
    model.record(fp, "v", 1.0)
    assert model.predict(fp, "v") == pytest.approx(1.0)


def test_history_separates_variants_and_footprints():
    model = HistoryModel()
    model.record(("c", (10,)), "a", 1.0)
    model.record(("c", (20,)), "a", 9.0)
    model.record(("c", (10,)), "b", 5.0)
    assert model.predict(("c", (10,)), "a") == 1.0
    assert model.predict(("c", (20,)), "a") == 9.0
    assert model.predict(("c", (10,)), "b") == 5.0


def test_history_min_samples_validation():
    with pytest.raises(ValueError):
        HistoryModel(min_samples=0)


def test_regression_recovers_power_law():
    model = RegressionModel(min_samples=4)
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record("v", size, 2e-9 * size**1.5)
    predicted = model.predict("v", 1e7)
    assert predicted == pytest.approx(2e-9 * 1e7**1.5, rel=1e-6)


def test_regression_needs_size_spread():
    model = RegressionModel(min_samples=2, min_size_ratio=2.0)
    model.record("v", 1000, 1.0)
    model.record("v", 1100, 1.1)
    assert model.predict("v", 5000) is None  # sizes too close to trust


def test_regression_degenerate_single_size_returns_none():
    # all samples at one footprint size: no slope is anchorable even
    # when min_size_ratio allows a ratio of 1.0.  Before the explicit
    # spread check, float rounding in the log-space mean produced a
    # ~1e-31 sxx and a garbage power-law fit whose extrapolations were
    # absurd (predict(1e9) ~ 1e13 seconds).
    model = RegressionModel(min_samples=4, min_size_ratio=1.0)
    for i in range(5):
        model.record("v", 7.0, 10.0 ** (-4 + 2 * i))
    assert model.predict("v", 7.0) is None
    assert model.predict("v", 1e9) is None
    # a genuine spread at the same ratio threshold still fits
    spread = RegressionModel(min_samples=4, min_size_ratio=1.0)
    for size in (1e3, 1e4, 1e5, 1e6):
        spread.record("v", size, 2e-9 * size)
    assert spread.predict("v", 1e7) == pytest.approx(2e-2, rel=1e-6)


def test_regression_ignores_nonpositive_samples():
    model = RegressionModel(min_samples=1)
    model.record("v", 0.0, 1.0)
    model.record("v", 10.0, 0.0)
    assert model.n_samples("v") == 0


def test_perfmodel_prefers_history_over_regression():
    model = PerfModel(history_min_samples=1)
    fp = ("c", (12,))
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record(("c", (999,)), "v", size, 1e-9 * size)
    model.record(fp, "v", 5e4, 42.0)  # exact-bucket history says 42
    assert model.predict(fp, "v", 5e4) == pytest.approx(42.0)


def test_perfmodel_falls_back_to_regression():
    model = PerfModel()
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record(("c", (int(size),)), "v", size, 1e-9 * size)
    unseen = ("c", (777,))
    est = model.predict(unseen, "v", 1e7)
    assert est == pytest.approx(1e-2, rel=0.05)


def test_perfmodel_unknown_returns_none():
    assert PerfModel().predict(("c", (1,)), "v", 100.0) is None


def test_persistence_roundtrip(tmp_path):
    model = PerfModel()
    fp = ("c", (10, 12))
    model.record(fp, "v", 1e4, 3.0)
    model.record(fp, "v", 1e4, 5.0)
    path = tmp_path / "perf.json"
    model.save(path)
    loaded = PerfModel.load(path)
    assert loaded.predict(fp, "v", 1e4) == pytest.approx(4.0)
    assert loaded.n_samples(fp, "v") == 2


def test_atomic_save_leaves_no_temp_files(tmp_path):
    model = PerfModel()
    model.record(("c", (10,)), "v", 1e4, 3.0)
    path = tmp_path / "perf.json"
    model.save(path)
    model.save(path)  # overwrite an existing file, same guarantees
    assert [p.name for p in tmp_path.iterdir()] == ["perf.json"]


def test_interrupted_save_keeps_old_file(tmp_path, monkeypatch):
    import repro.runtime.perfmodel as pm

    model = PerfModel()
    model.record(("c", (10,)), "v", 1e4, 3.0)
    path = tmp_path / "perf.json"
    model.save(path)
    before = path.read_text()

    def broken_replace(src, dst):
        raise OSError("disk full")

    model.record(("c", (10,)), "v", 1e4, 9.0)
    monkeypatch.setattr(pm.os, "replace", broken_replace)
    with pytest.raises(OSError):
        model.save(path)
    # the old model survives untouched and no temp file is left behind
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["perf.json"]


def test_calibrated_by_history_or_regression():
    model = PerfModel()
    fp = ("c", (10,))
    assert not model.calibrated(fp, "v", 1e4)
    model.record(fp, "v", 1e4, 3.0)
    assert model.calibrated(fp, "v", 1e4)  # exact history
    assert not model.calibrated(fp, "v", 1e4, min_history=2)
    # a regression fit covers sizes (and footprints) never observed
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record(("c", (int(size),)), "w", size, 1e-9 * size)
    assert model.calibrated(("c", (777,)), "w", 5e7, min_history=3)


def test_variant_codelet_mapping_from_footprints():
    model = PerfModel()
    model.record(("axpy", (8,)), "axpy_cpu", 1e3, 1.0)
    model.record(((1, 2),), "orphan", 1e3, 1.0)  # footprint names nothing
    assert model.codelet_of("axpy_cpu") == "axpy"
    assert model.codelet_of("orphan") == ""
    assert model.codelets() == {"axpy"}
    assert model.unmapped_variants() == {"orphan"}


def test_from_dict_roundtrips_to_dict():
    model = PerfModel()
    model.record(("c", (10,)), "v", 1e4, 3.0)
    model.record(("c", (10,)), "v", 1e4, 5.0)
    clone = PerfModel.from_dict(model.to_dict())
    assert clone.to_dict() == model.to_dict()
    assert clone.predict(("c", (10,)), "v", 1e4) == pytest.approx(4.0)


def test_merge_from_larger_sample_set_wins():
    a, b = PerfModel(), PerfModel()
    fp = ("c", (10,))
    for t in (1.0, 2.0):
        a.record(fp, "v", 1e4, t)
    for t in (10.0, 20.0, 30.0):  # superset: more samples win
        b.record(fp, "v", 1e4, t)
    b.record(("c", (20,)), "w", 2e4, 7.0)  # only b knows this key
    a.merge_from(b)
    assert a.predict(fp, "v", 1e4) == pytest.approx(20.0)
    assert a.n_samples(fp, "v") == 3
    assert a.predict(("c", (20,)), "w", 2e4) == pytest.approx(7.0)
    # the other direction: a's smaller set does not clobber b's
    b2 = PerfModel.from_dict(b.to_dict())
    small = PerfModel()
    small.record(fp, "v", 1e4, 99.0)
    b2.merge_from(small)
    assert b2.n_samples(fp, "v") == 3


def test_subset_for_codelets_splits_and_keeps_unmapped():
    model = PerfModel()
    model.record(("axpy", (8,)), "axpy_cpu", 1e3, 1.0)
    model.record(("gemm", (8,)), "gemm_cpu", 1e3, 2.0)
    model.record(((1,),), "orphan", 1e3, 3.0)
    only_axpy = model.subset_for_codelets({"axpy"})
    assert only_axpy.codelets() == {"axpy"}
    assert only_axpy.predict(("gemm", (8,)), "gemm_cpu", 1e3) is None
    with_orphans = model.subset_for_codelets({"axpy", ""})
    assert with_orphans.predict(((1,),), "orphan", 1e3) == pytest.approx(3.0)


def test_regression_predict_from_is_out_of_sample():
    model = RegressionModel(min_samples=4)
    samples = [(s, 2e-9 * s**1.5) for s in (1e3, 1e4, 1e5, 1e6)]
    est = model.predict_from(samples, 1e7)
    assert est == pytest.approx(2e-9 * 1e7**1.5, rel=1e-6)
    assert model.predict_from(samples[:3], 1e7) is None  # under min_samples
    assert model.n_samples("v") == 0  # recorded state untouched


@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-6, 1.0 + 2e-6, 1.5, 2.0, 8.0])
def test_has_fit_answers_exactly_when_predict_does(ratio):
    # sizes from equal to far apart, including pairs at the ratio edge
    rng = np.random.default_rng(int(ratio * 1e6))
    model = RegressionModel(min_samples=3, min_size_ratio=ratio)
    sizes = {
        "one_size": [7.0] * 5,
        "at_ratio": [1e3, 1e3 * ratio, 1e3],
        "below_ratio": [1e3, 1e3 * ratio * (1 - 1e-9), 1e3, 1e3],
        "too_few": [1e3, 1e6],
        "spread": list(rng.uniform(1e2, 1e6, 12)),
        "near": [1e3, 1e3 * (1 + 1e-7), 1e3 * (1 + 2e-7)],
    }
    for var, column in sizes.items():
        for i, size in enumerate(column):
            model.record(var, size, 1e-6 * (i + 1))
            assert model.has_fit(var) == (model.predict(var, 1.0) is not None), var
        model.put_samples(var + "_loaded", model.samples(var))
        clone = var + "_loaded"
        assert model.has_fit(clone) == (model.predict(clone, 1.0) is not None), var
    model.put_samples("emptied", [])
    assert not model.has_fit("emptied") and not model.has_fit("unknown")


def test_calibrated_by_regression_never_fits():
    model = PerfModel()
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record(("c", (int(size),)), "w", size, 1e-9 * size)
    assert model.calibrated(("c", (777,)), "w", 5e7)
    assert not model.calibrated(("c", (777,)), "w", 0.0)  # predict needs size > 0
    assert not model.regression._fits  # decided from the size range alone


def _noisy_model() -> PerfModel:
    """Analytical and measured power laws, noisy, over scattered sizes."""
    rng = np.random.default_rng(3)
    model = PerfModel()
    laws = {"v_cpu": (2e-9, 1.2), "v_gpu": (5e-11, 1.6)}
    for var, (a, b) in laws.items():
        for s in rng.uniform(1e3, 1e7, 40):
            fp = ("c", (int(s).bit_length(),))
            t = a * s**b * rng.lognormal(0.0, 0.05)
            model.record(fp, var, float(s), t)
            model.record(fp, var, float(s), 3.0 * t, provenance="measured")
    model.record(("c", (9,)), "v_one", 256.0, 1e-6)  # too few to fit
    return model


def test_array_samples_fit_exactly_like_the_sample_list():
    model = _noisy_model()
    for reg in (model.regression, model.measured_regression):
        assert all(
            isinstance(col, array) and col.typecode == "d"
            for cols in reg._samples.values()
            for col in cols
        )
        for var in ("v_cpu", "v_gpu", "v_one", "unseen"):
            for size in (1.0, 7.5e2, 1e4, 3.3e5, 2e7, 1e9):
                assert reg.predict_from(reg.samples(var), size) == reg.predict(
                    var, size
                )
    assert model.regression.predict("v_cpu", 1e5) is not None
    assert model.regression.predict("v_one", 256.0) is None


def test_model_dict_round_trips_byte_identically():
    d = _noisy_model().to_dict()
    assert "measured_regression" in d and "measured_history" in d
    assert json.dumps(PerfModel.from_dict(d).to_dict()) == json.dumps(d)
    # as the model store writes and reads them: through JSON text
    text = json.dumps(d, indent=1)
    clone = PerfModel.from_dict(json.loads(text))
    assert json.dumps(clone.to_dict(), indent=1) == text
    merged = PerfModel()
    merged.merge_from(clone)
    assert json.dumps(merged.to_dict(), indent=1) == text
    subset = clone.subset_for_codelets({"c"})
    assert json.dumps(subset.to_dict(), indent=1) == text
