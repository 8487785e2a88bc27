"""Reference intersection for the parity tests in ``test_subspaces.py``.

The formula through orthogonal complements, U & V = (U^o + V^o)^o, which
``Subspace.__and__`` computed before it used Zassenhaus' elimination.  Both
must return the identical canonical subspace.
"""

from fredpairs import orthogonal_complement


def meet(u, v):
    return orthogonal_complement(orthogonal_complement(u) + orthogonal_complement(v))
