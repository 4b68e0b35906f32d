"""Numerical toolkit for the spinor representation space: multivector
arithmetic over the time-minus and Euclidean four dimensional algebras,
the three equivalent spinor encodings, bilinear covariants with their
quadratic identity set, Lounesto classification, the singular class-4
mapping, and winding invariants of the regular sector.

The package's names are each layer's ``__all__``, re-exported here."""

from .bilinears import *
from .classmap import *
from .clifford import *
from .fierz import *
from .lounesto import *
from .spinor_forms import *
from .topology import *

__version__ = "0.1.0"
