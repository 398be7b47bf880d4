"""Verification engine for cyclotomic-unit indices and ray class annihilators.

The package computes, in exact arithmetic, the objects attached to a real
abelian field k and a positive integer d: the group of units congruent to
1 mod d, the d-cyclotomic numbers and the unit groups they generate, ray
class groups with their Galois action, and p-adic group-ring elements built
from logarithmic derivatives of Dirichlet L-functions.  On top of these it
runs a battery of identity, structure, index and annihilation checks whose
statements are recorded in ``checks.py`` and reported through ``harness.py``
and the ``rayverify`` command line.

Real quadratic fields are supported end to end; the layers below the
quadratic backend (cyclotomic arithmetic, p-adic arithmetic, group rings,
finite Galois modules) are written for general abelian k, except the
ramification data and log-identity factors of the group rings and the
residue-ring targets of the Galois modules, which take G = {1, sigma} only.
"""

__version__ = "0.1.0"
