"""SimSQL-style relational engine with VG functions and random tables."""

from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.expr import absval, col, columns_referenced, exp, lit, log, mod, sqrt
from repro.relational.mcmc import MarkovChain, RandomTable, versioned
from repro.relational.optimizer import optimize
from repro.relational.plan import (
    Alias,
    Distinct,
    GroupBy,
    Join,
    Plan,
    Project,
    RenameColumns,
    Scan,
    Select,
    Union,
    VGOp,
)
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.vg import (
    CategoricalVG,
    DirichletVG,
    InvGammaVG,
    InvGaussianVG,
    InvWishartVG,
    NormalVG,
    VGFunction,
)

__all__ = [
    "Alias",
    "CategoricalVG",
    "Database",
    "DirichletVG",
    "Distinct",
    "Executor",
    "GroupBy",
    "InvGammaVG",
    "InvGaussianVG",
    "InvWishartVG",
    "Join",
    "MarkovChain",
    "NormalVG",
    "Plan",
    "Project",
    "RandomTable",
    "RenameColumns",
    "Scan",
    "Schema",
    "Select",
    "Table",
    "Union",
    "VGFunction",
    "VGOp",
    "absval",
    "col",
    "columns_referenced",
    "exp",
    "lit",
    "log",
    "mod",
    "optimize",
    "sqrt",
    "versioned",
]
