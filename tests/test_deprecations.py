"""The one blessed spelling of each entry point warns about nothing."""

import warnings

import pytest

from repro.hw.description import MachineDescription
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.serve import CompositionServer, TenantSpec


def _tenants():
    return [
        TenantSpec(
            "t0", workload="sgemm", size=48, rate_hz=None, n_requests=2
        )
    ]


def test_string_scheduler_paths_never_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rt = Runtime(
            platform_c2050(), scheduler="dmda", scheduler_options={"calibration_samples": 3}
        )
        assert rt.scheduler.calibration_samples == 3
        rt.shutdown()
        server = CompositionServer(
            platform_c2050(), tenants=_tenants(), scheduler="fair"
        )
        server.run()
        server2 = CompositionServer(
            platform_c2050(),
            tenants=_tenants(),
            scheduler="dmda",
            scheduler_options={"calibration_samples": 4},
        )
        server2.run()
    assert not [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]


# -- MachineDescription construction ----------------------------------------

def test_machine_keyword_form_never_warns():
    m = platform_c2050()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fresh = MachineDescription(
            name="kw", units=list(m.units), links=dict(m.links)
        )
        platform_c2050()  # presets go through make_machine
    assert not [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert fresh.name == "kw"


def test_machine_positional_construction_raises():
    m = platform_c2050()
    with pytest.raises(TypeError, match="positional"):
        MachineDescription("a", list(m.units), dict(m.links))


def test_machine_requires_name():
    with pytest.raises(TypeError, match="requires a name"):
        MachineDescription(units=[])
