"""Optimal-quantization numerical schemes.

Modules: grids (optimal codebooks), chain (quantized Euler schemes with
Brownian companion weights), bsde (quantized backward solver with a-priori
error constants), filtering (quantized nonlinear filter), experiments
(reference studies), cli (command-line entry point).
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegenerateObservationError, InputError,
                     NumericError, ParseError, QuantError)
from .grids import (DistortionReport, Grid, Law1D, SampleSource, StopCriteria,
                    assign, clvq, distortion_and_gradient, lloyd, load_grid,
                    ls_error, newton_1d, save_grid)

__all__ = [
    "ConvergenceError", "DegenerateObservationError", "InputError",
    "NumericError", "ParseError", "QuantError",
    "DistortionReport", "Grid", "Law1D", "SampleSource", "StopCriteria",
    "assign", "clvq", "distortion_and_gradient", "lloyd", "load_grid",
    "ls_error", "newton_1d", "save_grid",
]
