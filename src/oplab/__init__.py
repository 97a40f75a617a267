"""oplab: exact arithmetic for overpartition statistics and truncated
q-series identities.

The package has four layers: series (truncated integer power series and
q-product building blocks), overpartitions (enumeration and minimal-
excludant statistics), bijections (the constructive weight maps), and
identities (the registry of verifiable statements with its reporting
harness). The cli module wires them to a command line. Each public name is
declared once, in its module's __all__.
"""

from . import bijections, identities, overpartitions, series
from .series import *
from .overpartitions import *
from .bijections import *
from .identities import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *dict.fromkeys(
        series.__all__ + overpartitions.__all__ + bijections.__all__
        + identities.__all__
    ),
]
