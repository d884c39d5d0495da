"""thermokernel: axiomatic phenomenological thermodynamics at desk scale.

Systems, states and processes are first-class immutable values; internal
energy, heat, absolute temperature and entropy are constructed from work
bookkeeping and reversible engine runs, and the classical theorems (Carnot,
Clausius, the entropy monotone, maximum entropy) are checked numerically.
"""

from .systems import (
    AtomId,
    Disjoint,
    System,
    World,
    atoms_of,
    clone_system,
    compose,
    disjoint_complement,
    intersect,
    is_subsystem,
    subsystems,
    system,
)
from .processes import (
    AtomState,
    Process,
    classify,
    concatenate,
    eliminate_catalyst,
    is_reversible,
    is_work_process,
    join,
    joint,
    make_identity,
    make_process,
    reverse_of,
    work_of,
)
from .quasistatic import QuasistaticFamily, identity_family
from .quadrature import adaptive_simpson
from .gas import (
    GasAtom,
    GasModel,
    GasPlanner,
    GasState,
    add_ideal_gas,
    adiabat_invariant,
    check_qs_postulates,
    conduct,
    connect,
    connect_reversible,
    gas_S,
    gas_T,
    gas_U,
    gas_U_sv,
    reservoir_contact,
    run_segments,
    type1,
    type2,
    type3,
)
from .reservoirs import (
    Reservoir,
    ReservoirModel,
    TemperatureScale,
    add_reservoir,
    check_second_law,
    stir,
)
from .energy import (
    EnergyLedger,
    StateFunctionDelta,
    check_first_law,
    heat_of,
    internal_energy,
    reaches,
    state_function_delta,
)
from .carnot import (
    CarnotRun,
    absolute_temperature,
    build_carnot,
    build_degraded_carnot,
    same_temperature,
    temperature_ratio,
)
from .entropy import (
    EntropyLedger,
    HeatFlowRecord,
    TemperatureInterval,
    assign_heat_temperature,
    check_entropy_theorem,
    clausius_sum,
    delta_entropy,
    entropy,
)
from .scaling import (
    ScaledGas,
    UVState,
    check_concavity,
    classify_variable,
    entropy_uv,
    max_entropy_split,
    remove_constraint,
    scale,
    scaled_state,
)
from . import errors

__version__ = "0.1.0"
