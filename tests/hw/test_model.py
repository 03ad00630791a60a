"""Hierarchical device models: occupancy, memory blend, tier equivalence."""

import pytest

from repro.hw.devices import AccessPattern, tesla_c2050, xeon_e5520_core
from repro.hw.model import (
    DEFAULT_PROFILES,
    CoarseDeviceModel,
    DetailedDeviceModel,
    KernelProfile,
    LatencyTable,
    MemoryHierarchy,
    SMConfig,
)
from repro.hw.zoo import fermi_c2050, volta_v100


def _fermi_model() -> DetailedDeviceModel:
    return fermi_c2050("detailed").model


def _volta_model() -> DetailedDeviceModel:
    return volta_v100("detailed").model


# -- SMConfig ---------------------------------------------------------------

def test_sm_config_derived_quantities():
    sm = _fermi_model().sm
    assert sm.max_warps_per_sm == 48
    assert sm.issue_width == pytest.approx(1.0)


def test_sm_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SMConfig(
            n_sms=0, cores_per_sm=32, clock_ghz=1.0,
            max_threads_per_sm=1024, max_blocks_per_sm=8,
            registers_per_sm=32768, shared_mem_per_sm=49152,
        )
    with pytest.raises(ValueError):
        SMConfig(
            n_sms=14, cores_per_sm=32, clock_ghz=1.0,
            max_threads_per_sm=1000,  # not a multiple of warp_size
            max_blocks_per_sm=8,
            registers_per_sm=32768, shared_mem_per_sm=49152,
        )


def test_detailed_peak_matches_headline():
    """n_sms * cores_per_sm * 2 * clock reproduces the published peak."""
    for spec in (fermi_c2050("detailed"), volta_v100("detailed")):
        sm = spec.model.sm
        issue_peak = sm.n_sms * sm.cores_per_sm * 2 * sm.clock_ghz
        assert issue_peak == pytest.approx(spec.peak_gflops, rel=0.02)


# -- MemoryHierarchy --------------------------------------------------------

def test_memory_blend_bounds():
    mem = _fermi_model().memory
    bw = mem.effective_bandwidth_gbs()
    assert mem.dram_bandwidth_gbs <= bw <= mem.l1_bandwidth_gbs


def test_memory_blend_zero_hit_rates_is_dram():
    mem = MemoryHierarchy(0.0, 0.0, 1000.0, 500.0, 100.0)
    assert mem.effective_bandwidth_gbs() == pytest.approx(100.0)
    dram_fraction = (1.0 - mem.l1_hit_rate) * (1.0 - mem.l2_hit_rate)
    assert dram_fraction == pytest.approx(1.0)


def test_memory_rejects_inverted_bandwidths():
    with pytest.raises(ValueError):
        MemoryHierarchy(0.5, 0.5, 100.0, 500.0, 1000.0)


def test_memory_rejects_bad_hit_rate():
    with pytest.raises(ValueError):
        MemoryHierarchy(1.5, 0.5, 1000.0, 500.0, 100.0)


# -- LatencyTable -----------------------------------------------------------

def test_mean_latency_weighted():
    lat = LatencyTable(fma=10.0, ldst_global=400.0)
    assert lat.mean_latency({"fma": 1.0}) == pytest.approx(10.0)
    assert lat.mean_latency({"fma": 0.5, "ldst_global": 0.5}) == pytest.approx(205.0)


def test_mean_latency_rejects_unknown_class():
    with pytest.raises(ValueError):
        LatencyTable().mean_latency({"tensorcore": 1.0})


def test_mean_latency_rejects_empty_mix():
    with pytest.raises(ValueError):
        LatencyTable().mean_latency({})


# -- occupancy --------------------------------------------------------------

def test_occupancy_respects_all_limits():
    model = _fermi_model()
    for profile in DEFAULT_PROFILES.values():
        occ = model.occupancy(profile)
        sm = model.sm
        assert 1 <= occ.active_blocks <= sm.max_blocks_per_sm
        assert occ.active_warps <= sm.max_warps_per_sm
        assert occ.active_blocks * profile.threads_per_block <= sm.max_threads_per_sm
        assert (
            occ.active_blocks * profile.regs_per_thread * profile.threads_per_block
            <= sm.registers_per_sm
        )
        assert 0.0 < occ.fraction <= 1.0


def test_occupancy_register_limited_on_fermi():
    occ = _fermi_model().occupancy(DEFAULT_PROFILES[AccessPattern.REGULAR])
    assert occ.limiter == "registers"


def test_occupancy_infeasible_launch_shape():
    model = _fermi_model()
    fat = KernelProfile(threads_per_block=1024, regs_per_thread=64)
    with pytest.raises(ValueError):
        model.occupancy(fat)  # 64 KB of regs/block on a 32 KB-reg SM
    assert not model.feasible(fat)
    assert model.feasible(DEFAULT_PROFILES[AccessPattern.REGULAR])


def test_volta_reaches_full_occupancy():
    occ = _volta_model().occupancy(DEFAULT_PROFILES[AccessPattern.REGULAR])
    assert occ.fraction == pytest.approx(1.0)


# -- tier equivalence and dispatch ------------------------------------------

def test_coarse_model_matches_modelless_spec():
    bare = tesla_c2050()
    import dataclasses
    explicit = dataclasses.replace(bare, model=CoarseDeviceModel())
    for pattern in AccessPattern:
        for flops, nbytes in [(1e9, 4e8), (0.0, 1e6), (1e7, 0.0)]:
            assert explicit.roofline_time(flops, nbytes, pattern) == (
                bare.roofline_time(flops, nbytes, pattern)
            )


def test_coarse_model_equality():
    assert CoarseDeviceModel() == CoarseDeviceModel()
    assert CoarseDeviceModel().knobs() == {}


def test_fidelity_property():
    assert tesla_c2050().fidelity == "coarse"
    assert fermi_c2050("coarse").fidelity == "coarse"
    assert fermi_c2050("detailed").fidelity == "detailed"
    assert xeon_e5520_core().fidelity == "coarse"


def test_detailed_tier_changes_gpu_pricing():
    coarse = fermi_c2050("coarse")
    detailed = fermi_c2050("detailed")
    t_c = coarse.roofline_time(1e9, 4e8, AccessPattern.IRREGULAR)
    t_d = detailed.roofline_time(1e9, 4e8, AccessPattern.IRREGULAR)
    assert t_c != t_d
    # the detailed tier punishes low-occupancy irregular kernels harder
    assert t_d > t_c


def test_detailed_time_positive_and_includes_launch():
    spec = fermi_c2050("detailed")
    assert spec.roofline_time(0.0, 0.0) == pytest.approx(spec.launch_overhead_s)
    assert spec.roofline_time(1e6, 1e6) > spec.launch_overhead_s


def test_with_hit_rates_copy():
    model = _fermi_model()
    hot = model.with_hit_rates(l1_hit_rate=0.9)
    assert hot.memory.l1_hit_rate == pytest.approx(0.9)
    assert hot.memory.l2_hit_rate == model.memory.l2_hit_rate
    assert hot.sm == model.sm
    assert hot != model


def test_describe_carries_fidelity_and_knobs():
    desc = _fermi_model().describe()
    assert desc["fidelity"] == "detailed"
    assert desc["sm"]["n_sms"] == 14
    assert "l1_hit_rate" in desc["memory"]
    assert "ldst_global" in desc["latency"]


def test_kernel_profile_hashable():
    a = KernelProfile()
    b = KernelProfile()
    assert hash(a) == hash(b)
    assert a == b
