"""Crisscross network toolkit: parameters, workload geometry, threshold
policies, event simulation, Brownian comparison, and cost experiments.

Each module's __all__ is its one list of public names; the package
re-exports them all.
"""
from .params import *
from .params import __all__ as _params
from .workload import *
from .workload import __all__ as _workload
from .policies import *
from .policies import __all__ as _policies
from .simulate import *
from .simulate import __all__ as _simulate
from .bcp import *
from .bcp import __all__ as _bcp
from .experiments import *
from .experiments import __all__ as _experiments

__version__ = "0.1.0"

__all__ = ["__version__", *_params, *_workload, *_policies, *_simulate, *_bcp, *_experiments]
