"""Echo-dynamics toolkit.

From an echocardiogram-like frame sequence: dense optical flow, polar
sector descriptors, RBF dynamics modeling with residual energy maps
(the EDG) and the low-dimensional per-frame feature P_EDG, a reference
phase-dynamics attention forward pass, and Dice/HD95/TCD evaluation.
"""

__version__ = "0.1.0"
