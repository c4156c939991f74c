"""Two-particle lattice quantum evolution with subsystem trajectories.

The package evolves a pair of coupled one-dimensional lattice particles
through a layered unitary circuit, decomposes one particle's motion into
interfering paths with entangled partner states, transports trajectory
ensembles along the resulting velocity field, and analyses branch
structure of the joint and marginal densities.
"""

__version__ = "0.1.0"
