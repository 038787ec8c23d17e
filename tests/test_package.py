"""Tests for package-level exports, cold imports and the error hierarchy."""

import functools
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
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


def _module_groups():
    """``{package: [package, its modules...]}`` for ``repro`` and every
    subpackage; ``repro``'s own group holds its top-level modules."""
    root = repro.__path__[0]
    groups = {"repro": ["repro"]}
    for info in pkgutil.iter_modules([root]):
        name = f"repro.{info.name}"
        if not info.ispkg:
            groups["repro"].append(name)
            continue
        groups[name] = [name] + [
            f"{name}.{sub.name}"
            for sub in pkgutil.iter_modules([os.path.join(root, info.name)])
        ]
    return groups


_MODULE_GROUPS = _module_groups()
_PACKAGE_OF = {
    module: package for package, modules in _MODULE_GROUPS.items() for module in modules
}
_COLD_IMPORTS = sorted(_PACKAGE_OF)

#: Imports each module named on the command line as the first ``repro``
#: module of the process, and prints ``{module: traceback}`` for failures.
_COLD_IMPORT_SCRIPT = """
import importlib, json, sys, traceback
failed = {}
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed[name] = traceback.format_exc()
print(json.dumps(failed))
"""


def _fresh_python(*args):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _cold_import_failures(package):
    """One interpreter per package imports each of its modules cold."""
    output = _fresh_python("-c", _COLD_IMPORT_SCRIPT, *_MODULE_GROUPS[package])
    return json.loads(output.splitlines()[-1])


@pytest.mark.parametrize("module", _COLD_IMPORTS)
def test_cold_import(module):
    """Each module imports as the first ``repro`` module of a process: no
    import cycle depends on which module a program happens to load first."""
    failures = _cold_import_failures(_PACKAGE_OF[module])
    assert module not in failures, failures[module]


def _loaded_after(module):
    """Every module a fresh interpreter holds after ``import module``."""
    output = _fresh_python("-c", f"import sys, {module}; print(*sys.modules)")
    return set(output.split())


def _under(loaded, names):
    """The modules of ``loaded`` that are one of ``names`` or inside one."""
    return sorted(
        module
        for module in loaded
        for name in names
        if module == name or module.startswith(name + ".")
    )


#: ``repro.obs`` modules (and the HTTP client stack the exporter and
#: dashboard pull in) that load on first use, never with a run's entry point.
_OBS_ON_FIRST_USE = (
    "repro.obs.dash",
    "repro.obs.export",
    "repro.obs.bench",
    "repro.obs.alerts",
    "repro.obs.summary",
    "repro.obs.schema",
    "http.client",
    "urllib.request",
)


def test_offline_import_loads_no_simulator():
    loaded = _loaded_after("repro.io")
    assert "repro.io.traces" in loaded
    assert _under(
        loaded, ("repro.net", "repro.traffic", "repro.analysis", "repro.experiments")
    ) == []


def test_live_import_loads_no_runner_or_simulated_network():
    loaded = _loaded_after("repro.live.runtime")
    assert _under(
        loaded,
        (
            "repro.experiments.runner",
            "repro.traffic",
            "repro.analysis",
            "repro.net.topology",
            "repro.net.link",
            "repro.net.node",
            "repro.net.monitor",
        ),
    ) == []


@pytest.mark.parametrize(
    "entry", ["repro.io", "repro.live.runtime", "repro.experiments.runner"]
)
def test_entry_point_import_leaves_obs_tools_unloaded(entry):
    loaded = _loaded_after(entry)
    assert entry in loaded
    assert _under(loaded, _OBS_ON_FIRST_USE) == []
