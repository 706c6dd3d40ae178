"""Offset-free linear MPC with a learned steady-state mismatch map, plus a
nonlinear CSTR truth model and a closed-loop scenario runner."""

__version__ = "0.1.0"
