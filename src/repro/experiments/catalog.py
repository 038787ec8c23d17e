"""Names of the built-in traffic scenarios, without the simulator behind them.

Each name is also the name of its factory in
:mod:`repro.experiments.scenarios`; :data:`repro.experiments.runner.SCENARIOS`
maps every name to that function. The CLI offers the names as argument
choices from here, so parsing a command loads no simulator, traffic model
or analysis module.
"""

SCENARIO_NAMES = ("infinite_tcp", "episodic_cbr", "harpoon_web")
