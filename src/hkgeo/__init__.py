"""Numeric differential geometry of circle quotients of hyperkahler spaces.

The package builds flat parent spaces with explicit symplectic structure,
carries out symplectic and hyperkahler quotients numerically (level sets,
fiber projections, moment maps), cross-checks the same reductions through
Hamiltonian mechanics, and verifies curvature and quaternionic identities
against closed forms.  Everything differentiable runs on one forward-mode
jet type, whose order is whether it carries a Hessian (first order where
only gradients are read, second order where curvature needs Hessians),
with finite differences kept as an independent oracle.
"""

from ._version import __version__
from .checks import CheckReport, RunManifest, run_suite
from .fields import Chart, EmbeddingMap, FormField, MetricField, VectorFieldR
from .jets import Jet, evaluate_jet, fd_oracle
from .models import MODEL_NAMES, build
from .sampling import Exclusion, SampleSpec, sample_points

__all__ = [
    "__version__",
    "Chart",
    "CheckReport",
    "EmbeddingMap",
    "Exclusion",
    "FormField",
    "Jet",
    "MODEL_NAMES",
    "MetricField",
    "RunManifest",
    "SampleSpec",
    "VectorFieldR",
    "build",
    "evaluate_jet",
    "fd_oracle",
    "run_suite",
    "sample_points",
]
