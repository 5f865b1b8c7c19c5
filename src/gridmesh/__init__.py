"""gridmesh: desk-scale distributed grid co-simulation.

UE agents report topology and forecasts, edge servers build region-local
admittance partials and reduced scenario sets, and a cloud coordinator merges,
simulates transient dynamics and assesses security, all over an emulated
cellular transport. See README.md for the tour.
"""

__version__ = "0.1.0"
