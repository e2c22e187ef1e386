"""Exact exterior-algebra engine for Tate windows and cohomology tables."""

from .errors import DomainError, ExttateError, ParseError, WindowError
from .extalg import Algebra, ExtElement, DEFAULT_PRIME
from .efree import FreeEModule, GradedMap, VectorizedModule
from .eres import (BettiTable, CartanScanner, Resolver, minimal_free_resolution,
                   regularity)
from .smod import PolyRing, SPresentation, SlicedModule, slice_presentation
from .tate import CohomologyTable, TateWindow, cohomology_table, tate_window
from .paramspace import TypeVectors, MatrixPoint, census, sample

__version__ = "0.1.0"
