"""Public-good mechanisms under randomly flipped reports.

Computes, exactly at finite n and in closed form as n grows, the revenue,
social surplus, incentive and participation constraints, and noise
sensitivity of allocation rules on the Boolean hypercube, and solves the
associated constrained optimizations (surplus-max and noise-sensitivity-min
subject to a revenue floor).
"""

__version__ = "0.1.0"
