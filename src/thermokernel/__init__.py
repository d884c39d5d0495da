"""thermokernel: axiomatic phenomenological thermodynamics at desk scale.

Systems, states and processes are first-class immutable values; internal
energy, heat, absolute temperature and entropy are constructed from work
bookkeeping and reversible engine runs, and the classical theorems (Carnot,
Clausius, the entropy monotone, maximum entropy) are checked numerically.

Each name is imported from its own module, as in
``from thermokernel.gas import GasState``; the package exports nothing.
"""
