"""Push-sum averaging and distributed subgradient optimization over
directed, time-varying, unbalanced graphs.

The package simulates ratio consensus (push-sum) and four subgradient
schemes built on it, checks the exact identities the dynamics satisfy,
and evaluates the finite-time error bounds the schemes come with. The
top level holds the names of the README's library example; everything
else is imported from its module (``pushsumlab.analysis``,
``pushsumlab.graphs``, ...).
"""

from .analysis import bound_inputs_from_trace, bound_sgp, estimate_k1
from .graphs import generate_sequence
from .optim import GradientOracle, quadratic_objective, run_optimizer, sgp_strong
from .pushsum import run_pushsum, theoretical_constants, verify_absolute_probability

__version__ = "0.1.0"

__all__ = [
    "GradientOracle",
    "bound_inputs_from_trace",
    "bound_sgp",
    "estimate_k1",
    "generate_sequence",
    "quadratic_objective",
    "run_optimizer",
    "run_pushsum",
    "sgp_strong",
    "theoretical_constants",
    "verify_absolute_probability",
]
