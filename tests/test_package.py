"""Tests for package-level exports, cold imports and the error hierarchy."""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.net
from repro import errors


def test_version_exported():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_core_exports_resolve():
    import repro.core as core

    for name in core.__all__:
        assert getattr(core, name) is not None


def test_net_exports_resolve():
    import repro.net as net

    for name in net.__all__:
        assert getattr(net, name) is not None


def test_traffic_exports_resolve():
    import repro.traffic as traffic

    for name in traffic.__all__:
        assert getattr(traffic, name) is not None


def test_analysis_exports_resolve():
    import repro.analysis as analysis

    for name in analysis.__all__:
        assert getattr(analysis, name) is not None


def test_error_hierarchy():
    assert issubclass(errors.ConfigurationError, errors.ReproError)
    assert issubclass(errors.SimulationError, errors.ReproError)
    assert issubclass(errors.RoutingError, errors.SimulationError)
    assert issubclass(errors.EstimationError, errors.ReproError)
    assert issubclass(errors.ValidationError, errors.ReproError)


def test_library_errors_catchable_as_repro_error():
    from repro.config import ProbeConfig

    with pytest.raises(errors.ReproError):
        ProbeConfig(slot=-1)


def test_main_module_entrypoint(capsys):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "episodic_cbr" in proc.stdout


def test_synthetic_exports_resolve():
    import repro.synthetic as synthetic

    for name in synthetic.__all__:
        assert getattr(synthetic, name) is not None


def test_io_exports_resolve():
    import repro.io as io_pkg

    for name in io_pkg.__all__:
        assert getattr(io_pkg, name) is not None


def test_experiments_exports_resolve():
    import repro.experiments as experiments

    for name in experiments.__all__:
        assert getattr(experiments, name) is not None



_COLD_IMPORTS = [
    "repro",
    *(f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
    *(f"repro.net.{info.name}" for info in pkgutil.iter_modules(repro.net.__path__)),
]


@pytest.mark.parametrize("module", _COLD_IMPORTS)
def test_cold_import(module):
    """Each module imports first in a fresh interpreter: no import cycle
    depends on which module a program happens to load first."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
