"""Named verification checks over real quadratic fields.

Each public ``check_*`` / ``explore_*`` function runs one family of
verifications and returns a list of :class:`CheckResult` records.  A record
carries a stable ``anchor`` identifying the mathematical claim being tested,
a ``status``, and a ``witness`` dict of the measured quantities backing the
verdict, so that reports are reproducible and auditable.

Statuses
--------
``pass``
    The claim held with every hypothesis checked.
``fail``
    A quantity disagreed, but through a layer that involves finite
    precision, an embedding choice, or a computable surrogate for the exact
    object — evidence of a problem, not refutation-grade evidence.
``inconclusive``
    The surrogate object is too small to decide the claim either way (the
    circular side of ``explore conjecture`` is only a lower bound).
``falsifies-paper``
    An exact-arithmetic identity failed with all of its hypotheses
    mechanically verified.  Reserved for integer/rational computations with
    no precision or surrogate caveats.

All checks are deterministic: given the same parameters they produce the
same records up to the ``elapsed`` fields.

Each family of checks lives in a module of its own, with the
``run_<target>`` of its commands: `checks_sinnott`, `checks_rays`,
`checks_gras`, `checks_special` and `checks_annihilators`.  This module
keeps what they share: the statuses, `CheckResult`, `_quad_setup` (the
field and its Galois group {1, sigma}, a `quadratic.QuadGaloisGroup`
built in O(1)) and `_rho_part`.  Each public check name resolves to its
family on first access (`__getattr__` over `_HOMES`) and is then kept in
this namespace.  `quadratic` is imported only when a check builds its
field, so a cache-served special run compiles none of it; the `cli`
docstring lists the modules of each command.
"""

from . import _lazy_getattr

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
REFUTES = "falsifies-paper"

#: extra p-adic digits carried beyond the digits that are compared
PRECISION_HEADROOM = 8


class CheckResult:
    """One verified claim: stable anchor, verdict, and backing data."""

    def __init__(self, name, anchor, status, witness, elapsed):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.witness = witness
        self.elapsed = elapsed

    def to_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }


def _quad_setup(D):
    from .quadratic import QuadField, QuadGaloisGroup

    field = QuadField(D)
    return field, QuadGaloisGroup(field)


def _rho_part(module, p):
    """(order, sylow, rho): the non-trivial-character component of Syl_p.

    For p odd, e_rho = (1 - sigma)/2 and e_rho M is the quotient
    M / (1 + sigma)M (`FiniteGModule.sign_part(-1)`); rho is None when the
    Sylow part is trivial.  Raises ValueError for even p.
    """
    if p % 2 == 0:
        raise ValueError("p=%d must be odd for the rho-part" % p)
    syl = module.sylow(p)
    if syl.order() == 1:
        return 1, syl, None
    rho = syl.sign_part(-1)
    return rho.order(), syl, rho


#: the family module of each public check name, imported on first access
_HOMES = {
    "check_sinnott": "checks_sinnott",
    "check_rays": "checks_rays",
    "check_cyclic": "checks_rays",
    "unit_quotient_module": "checks_gras",
    "check_gras": "checks_gras",
    "check_gras_scan": "checks_gras",
    "ray_power_subgroup_orders": "checks_gras",
    "explore_conjecture": "checks_gras",
    "check_h90": "checks_special",
    "check_special_units": "checks_annihilators",
    "thaine_admissible_primes": "checks_annihilators",
    "check_thaine": "checks_annihilators",
    "check_solomon": "checks_annihilators",
}


__getattr__ = _lazy_getattr(globals(), _HOMES)
