"""No function in the package goes unreached by every entry point without a reason.

``tests/tools/reach_census.py`` runs ``verify all``, the op corpus, the seeded
scenario files and the fault files through ``cli.main``, with a profile hook
set before ``thermokernel`` is imported.  This process has imported it
already, so the census runs in a fresh interpreter.  Names are compared, not
line numbers, so an edit above a function does not move its entry.
"""

import re
import subprocess
import sys
from pathlib import Path

CENSUS = Path(__file__).resolve().parent / "tools" / "reach_census.py"

# name -> what reaches it instead, or why it stays
UNREACHED_ALLOWED = {
    "carnot.CarnotRun.trivial": "acceptance 07",
    "carnot.absolute_temperature": "paper construction; test_reservoirs_carnot only",
    "carnot.same_temperature": "paper construction; test_reservoirs_carnot only",
    "energy.EnergyLedger.atom_energy": "perfbench hook",
    "energy.internal_energy": "acceptance 01",
    "energy.delta_u": "acceptance 08, through heat_of",
    "energy.heat_of": "acceptance 08, through assign_heat_temperature",
    "entropy.TemperatureInterval.__post_init__": "acceptance 08",
    "entropy.TemperatureInterval.is_singleton": "test observation",
    "entropy.TemperatureInterval.__contains__": "acceptance 08",
    "entropy.assign_heat_temperature": "acceptance 08",
    "entropy.assign_heat_temperature.reservoir_thetas": "acceptance 08",
    "entropy.assign_heat_temperature.gas_temps_initial": "acceptance 08",
    "entropy.EntropyLedger.atom_entropy": "perfbench hook",
    "errors.StateMismatch.__init__": "error constructor; no entry-point input joins mismatched "
                                     "legs; test_processes and test_quasistatic",
    "gas.gas_handle": "acceptance 10",
    "gas.gas_U_sv": "acceptance 11",
    "gas.conduct": "acceptance 08",
    "gas.qs_tangent_sets": "paper construction; test_quasistatic only, via check_qs_postulates",
    "gas.check_qs_postulates": "paper construction; test_quasistatic only",
    "processes.value_components": "Process.to_json",
    "processes.value_to_json": "Process.to_json",
    "processes.Process.initial_of": "acceptance 08 and 10",
    "processes.Process.same_footprint": "test observation",
    "processes.Process.to_json": "tests/tools/footprint_digest.py",
    "processes.eliminate_catalyst": "paper construction; test_processes and "
                                    "test_reservoirs_carnot only",
    "processes.reverse_of": "acceptance 10",
    "processes.join": "paper construction; test_processes only",
    "quasistatic.QuasistaticFamily.evaluate": "abstract; each family kind defines its own",
    "reservoirs.reservoir_handle": "acceptance 10",
    "reservoirs.stir": "paper construction; test_processes and test_reservoirs_carnot only",
    "scaling.remove_constraint": "paper construction; test_scaling only",
    "systems.AtomId.to_json": "Process.to_json",
    "systems.World.registry": "test observation",
    "systems.intersect": "paper construction; test_systems only",
    "systems.are_disjoint": "acceptance 08, through assign_heat_temperature",
    "systems.is_subsystem": "paper construction; test_systems only",
    "systems.clone_system": "acceptance 10",
}

LINE = re.compile(r"^(\w+)\.py:\d+ (\S+) \(\d+ lines\)$")


def test_unreached_functions_are_the_allowed_ones():
    run = subprocess.run([sys.executable, str(CENSUS)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    unreached = {f"{m[1]}.{m[2]}" for m in map(LINE.match, run.stdout.splitlines()) if m}
    assert unreached, run.stdout
    assert sorted(unreached - set(UNREACHED_ALLOWED)) == [], "newly unreached"
    assert sorted(set(UNREACHED_ALLOWED) - unreached) == [], "now reached: drop the entry"
