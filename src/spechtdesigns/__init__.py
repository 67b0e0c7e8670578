"""Exact arithmetic for p-ary designs on two-row tabloids and brute-force
verification of the first-cohomology classification mod p."""

from . import designs, h1, hemmer, linalg, numtheory, tabloid
from .numtheory import *
from .linalg import *
from .tabloid import *
from .designs import *
from .h1 import *
from .hemmer import *

__version__ = "0.1.0"

__all__ = [name for layer in (numtheory, linalg, tabloid, designs, h1, hemmer)
           for name in layer.__all__]
