"""The twisted-log identity of ``verify sinnott`` (`run_sinnott`,
`check_sinnott`).

``verify sinnott`` decides its identity by unit exponents in k: its
L-value is k_D log_p eps, read off the level-D cyclotomic number, and the
valuation of log_p eps comes from one power of eps in O/(p^K)
(`units.log_eps_valuation`, which the solomon annihilator reads too), so
no p-adic log is taken and no check builds the cyclotomic ring of degree
ord_D(p).  Besides `quadratic` and `nt`, it loads only `units` and
`circular`.
"""

import time

from .checks import FAIL, PASS, PRECISION_HEADROOM, CheckResult
from .harness import _check_odd_prime, build_report
from .nt import valuation
from .quadratic import QuadField
from .units import dirichlet_exponent, log_eps_valuation, unit_exponent


# --------------------------------------------------------------------------
# twisted logarithm identities


def check_sinnott(D, p, prec=12, d_max=6):
    """Decide the twisted-log identity of each cyclotomic number in integers.

    For G = {1, sigma} both sides of the group-ring identity are multiples
    of e_chi = (1 - sigma)/2, so each record compares one p-adic number:
    x = (log delta - log sigma delta) - r L', for delta the level-n, twist-d
    cyclotomic number and r = c_1 - c_sigma (`units.unit_log_value`).
    L' = L'_p(0, chi_D) = log u_D - log sigma u_D, with u_D = N(1 - zeta_D)
    the level-D cyclotomic number (Leopoldt).  Write delta / sigma delta =
    +-eps^a and u_D / sigma u_D = +-eps^k_D (`unit_exponent`,
    `dirichlet_exponent`); then x = (a - r k_D) log_p eps, in any
    embedding of k into Q_p (split p) or Q_{p^2} (inert p), and log_p eps
    is not 0.  So the identity holds exactly iff a = r k_D, and no p-adic
    log is taken.

    `difference_valuations` are those of the coefficients x/2 and -x/2 of
    x e_chi, as a p-adic route at prec + 8 digits would measure them:
    prec + 8 when a = r k_D, else min(v_p(a - r k_D) + w, prec + 8), with
    w = v_p(log_p eps) (`units.log_eps_valuation`).  The record passes when
    they reach `prec`.  A delta / sigma delta that is not a unit fails,
    with no valuations.  ``embedding`` is kept so that reports stay stable:
    it names the embedding of the test-side p-adic oracle, sqrt(D) lifted
    from a residue root ("hensel", or "hensel-inert" in Q_{p^2}), which
    the verdict does not depend on.  A record has no ``content`` when
    r = 0 and delta = +-sigma delta exactly: both sides are then 0 whatever
    the logs.
    """
    from .circular import cyclotomic_number, generating_levels
    from .units import unit_log_value

    field = QuadField(D)
    if p % 2 == 0 or D % p == 0:
        raise ValueError("p=%d must be odd and unramified" % p)
    split = field.chi(p) == 1
    top = prec + PRECISION_HEADROOM
    _, k_D = dirichlet_exponent(field)
    w = log_eps_valuation(field, p, top + 1)
    results = []
    for d in range(1, d_max + 1):
        for n in generating_levels(field, d):
            t0 = time.perf_counter()
            delta = cyclotomic_number(field, n, d)
            r = unit_log_value(D, n, d)
            quotient = delta / delta.conj()
            # x != 0 and y != 0 in delta = x + y sqrt(D) = (a + b omega) / e
            both_parts = delta.b != 0 and 2 * delta.a + delta.b * field.omega_trace != 0
            if quotient.is_unit():
                gap = unit_exponent(field, quotient)[1] - r * k_D
                v = min(valuation(gap, p) + w, top) if gap else top
                ok = v >= prec
            else:
                v, ok = None, False
            results.append(
                CheckResult(
                    name="twisted-log-identity D=%d p=%d n=%d d=%d" % (D, p, n, d),
                    anchor="twisted-log-identity",
                    status=PASS if ok else FAIL,
                    witness={
                        "discriminant": D,
                        "p": p,
                        "level": n,
                        "twist": d,
                        "digits_required": prec,
                        "difference_valuations": [v, v],
                        "embedding": "hensel" if split else "hensel-inert",
                        "content": r != 0 or both_parts,
                    },
                    elapsed=time.perf_counter() - t0,
                )
            )
    return results


def run_sinnott(D, p=7, prec=12, d=6):
    _check_odd_prime(p)
    if D % p == 0:
        raise ValueError(
            "--p %d: the verification prime must not divide D = %d" % (p, D)
        )
    if prec < 1:
        raise ValueError("--prec %d: at least one p-adic digit must be compared" % prec)
    if d < 1:
        raise ValueError("--d %d: the twist bound must be at least 1" % d)
    params = {"p": p, "prec": prec, "d_max": d}
    return build_report(
        "verify sinnott", D, params, check_sinnott(D, p, prec, d)
    )
