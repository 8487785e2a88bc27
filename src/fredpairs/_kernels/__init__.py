"""The two hot-loop kernels: exact row reduction and matrix multiplication.

One backend, ``_pure``, takes and returns integer rows (see its docstring);
``BACKEND`` names it.
"""

from ._pure import mat_mul, rref_rows

BACKEND = "integer"

__all__ = ["BACKEND", "mat_mul", "rref_rows"]
