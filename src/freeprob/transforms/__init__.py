"""Analytic and exact transform layer for the Askey-Wimp-Kerov family."""

from . import analytic, fid, jacobi
from .analytic import *
from .fid import *
from .jacobi import *

__all__ = [*analytic.__all__, *fid.__all__, *jacobi.__all__]
