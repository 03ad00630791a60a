"""PCIe link contention and duplex (dual-DMA) behaviour."""

import numpy as np
import pytest

from repro.hw.description import HOST_NODE, copy_route
from repro.hw.presets import (
    platform_c1060,
    platform_c2050,
    platform_dual_c2050,
)
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.access import AccessMode
from repro.runtime.task import Operand, Task


def _noop_codelet(name="k", arch=Arch.CUDA, cost=1e-6):
    return Codelet(
        name, [ImplVariant(name, arch, lambda ctx, *a: None, lambda c, d: cost)]
    )


NBYTES = 40_000_000  # 40 MB -> ~7.3 ms per PCIe leg


def test_same_direction_transfers_serialise_on_the_dma_engine():
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)
    cl = _noop_codelet()
    h1 = rt.register(np.zeros(NBYTES // 4, dtype=np.float32))
    h2 = rt.register(np.zeros(NBYTES // 4, dtype=np.float32))
    rt.submit(cl, [(h1, "r")])
    rt.submit(cl, [(h2, "r")])
    rt.wait_for_all()
    uploads = sorted(rt.trace.transfers, key=lambda t: t.start_time)
    assert len(uploads) == 2
    # the second upload waits for the first DMA to finish
    assert uploads[1].start_time >= uploads[0].end_time
    rt.shutdown()


def _h2d_d2h_overlap(machine):
    """Upload for one handle while downloading another; do they overlap?"""
    rt = Runtime(machine, scheduler="eager", seed=0, noise_sigma=0.0)
    write_cl = Codelet(
        "w", [ImplVariant("w", Arch.CUDA, lambda ctx, a: None, lambda c, d: 1e-6)]
    )
    read_cl = _noop_codelet("r")
    h_out = rt.register(np.zeros(NBYTES // 4, dtype=np.float32), "out")
    h_in = rt.register(np.zeros(NBYTES // 4, dtype=np.float32), "in")
    rt.submit(write_cl, [(h_out, "w")])  # device-resident result
    # trigger d2h (acquire the result) and h2d (a read task) together
    rt.submit(read_cl, [(h_in, "r")])
    rt.acquire(h_out, "r")
    rt.wait_for_all()
    h2d = next(t for t in rt.trace.transfers if t.is_h2d)
    d2h = next(t for t in rt.trace.transfers if t.is_d2h)
    overlap = (
        h2d.start_time < d2h.end_time and d2h.start_time < h2d.end_time
    )
    rt.shutdown()
    return overlap


def test_fermi_dual_dma_overlaps_directions():
    assert _h2d_d2h_overlap(platform_c2050())  # duplex link


def test_gt200_single_dma_serialises_directions():
    assert not _h2d_d2h_overlap(platform_c1060())  # half-duplex link


def test_transfers_overlap_with_gpu_compute():
    """DMA is a separate resource: a long kernel on one handle must not
    delay an unrelated upload."""
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)
    slow_cl = _noop_codelet("slow", cost=50e-3)
    h_busy = rt.register(np.zeros(16, dtype=np.float32))
    task = rt.submit(slow_cl, [(h_busy, "rw")])
    h_data = rt.register(np.zeros(NBYTES // 4, dtype=np.float32))
    rt.submit(_noop_codelet("r2"), [(h_data, "r")])
    rt.wait_for_all()
    upload = next(t for t in rt.trace.transfers if t.is_h2d)
    assert upload.end_time < task.end_time  # streamed in during compute
    rt.shutdown()


_PLATFORMS = (platform_c2050, platform_c1060, platform_dual_c2050)


def _busy_channels(engine):
    """Occupy every DMA channel the machine's routes name, each until a
    different time of the order of one 40 MB leg, both directions."""
    n = engine.machine.n_memory_nodes
    channels = sorted(
        {
            channel
            for a in range(n)
            for b in range(n)
            for _, _, channel in engine.route(a, b)
        }
    )
    leg = engine.machine.transfer_time(HOST_NODE, 1, NBYTES)
    for k, channel in enumerate(channels):
        engine._occupy_link(channel, leg * (1.0 + 0.5 * k))


@pytest.mark.parametrize(
    "platform, src, dst",
    [
        (platform, src, dst)
        for platform in _PLATFORMS
        for src in range(platform().n_memory_nodes)
        for dst in range(platform().n_memory_nodes)
    ],
)
def test_route_price_and_planner_agree_with_the_engine(platform, src, dst):
    """copy_route is the one transfer model and copy_arrival the one
    price of a copy: on idle links the hop count, the machine's price
    and the walk (the planner's price) all match the copy the engine
    commits for the same pair; with every channel busy in both
    directions, dmda's data-ready estimate for a one-operand reader and
    the walk both equal the end the engine then commits."""
    rt = Runtime(
        platform(), scheduler="eager", seed=0, noise_sigma=0.0,
        run_kernels=False, check=False,
    )
    engine = rt.engine
    machine = rt.machine
    route = copy_route(src, dst, machine.duplex)
    expected_hops = 0 if src == dst else 1 if HOST_NODE in (src, dst) else 2
    assert len(route) == expected_hops
    if len(route) == 2:  # staged through the host
        assert route[0][1] == route[1][0] == HOST_NODE
    legs = sum(
        machine.links[link_node].transfer_time(NBYTES)
        for _, _, (link_node, _) in route
    )
    assert machine.transfer_time(src, dst, NBYTES) == legs

    def moved():
        h = rt.register(np.zeros(NBYTES // 4, dtype=np.float32), "moved")
        h.mark_modified(src, 0.0)  # the sole valid copy sits at src
        return h

    planned = engine.copy_arrival(src, dst, NBYTES, 0.0, {})
    committed = engine._commit_copy(moved(), dst, 0.0)
    assert planned == committed == legs

    _busy_channels(engine)
    h = moved()
    reader = Task(_noop_codelet(), [Operand(h, AccessMode.R)])
    reader.ready_time = 0.0
    estimated = engine.estimate_data_ready(reader, dst)
    planned = engine.copy_arrival(src, dst, NBYTES, 0.0, {})
    committed = engine._commit_copy(h, dst, 0.0)
    rt.shutdown()
    assert estimated == planned == committed
    assert committed > legs or src == dst  # the busy channels delay it
