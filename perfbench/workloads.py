"""The benchmark's workloads: fixed README anchor ops plus seeded draws.

A *pass* is one list of ops; every op is one ``rayverify`` command line.
``make_pass(name, rng)`` builds a pass from a ``random.Random``; anchors
and fixed ops come first, drawn ops after them.  Each op is a dict::

    {"argv": [...], "role": "anchor" | "deep" | "draw", "warm": bool,
     "disc": D or None}

``warm`` marks an op served by a certificate cache that an earlier op of
the same pass filled; ``disc`` is the fundamental discriminant the report
must name.  The pools are literal tables so that the inputs depend only on
the seed, never on the code under test.  Inputs on which this version of
the engine fails are kept out of the pools, because every op of a run must
succeed; they are listed next to each pool with the error they raise.
"""

# -- ray-class ---------------------------------------------------------------

RAY_ANCHORS = [
    ["verify", "gras", "--quad", "79", "--p", "3", "--d", "1"],
    ["verify", "gras", "--quad", "5", "--mode", "scan", "--d", "50"],
    ["verify", "rays", "--quad", "5", "--ell", "11", "--p", "5"],
    ["verify", "annihilator", "--quad", "79", "--mode", "both", "--p", "3"],
    ["explore", "conjecture", "--quad", "5", "--p", "3", "--d", "18"],
]
RAY_ANCHOR_DISCS = [316, 5, 5, 316, 5]

#: Repeated solves on one class-group lattice (D = 316, h = 3): about 1400
#: snf calls on about 100 distinct matrices.
RAY_DEEP = ["verify", "gras", "--quad", "79", "--mode", "scan", "--d", "12"]

#: Discriminants D < 100 of class number 1, where a scan meets many one-off
#: small lattices.  Left out: D = 40 and 60 (class number 2; the repeated-
#: lattice case is the deep op), and D = 65, 85 (class number 2), which stop
#: with "no smooth witness" in this version, as does D = 328.
GRAS_POOL = [
    5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 41, 44, 53, 56, 57, 61, 69,
    73, 76, 77, 88, 89, 92, 93, 97,
]
GRAS_DRAWS = 4

#: The largest residue ring of the workload, O/(499) in Q(sqrt 2) (inert,
#: 249000 units enumerated); it sets the run's peak RSS.
RAYS_DEEP = ["verify", "rays", "--quad", "8", "--ell", "499", "--p", "3"]

#: Drawn ``verify rays`` runs enumerate O/(ell) for ell in [300, 320), one
#: size of residue ring on drawn fields and primes p; the anchor (ell = 11)
#: and RAYS_DEEP cover both ends.  Their cost is flat across the draws,
#: which keeps the median op (cmd_p50_s) on them rather than jumping
#: between op kinds from seed to seed.
PRIMES = [q for q in range(3, 500) if all(q % k for k in range(2, int(q**0.5) + 1))]
RAYS_ELLS = [q for q in PRIMES if 300 <= q < 320]
RAYS_DRAWS = 8

# -- padic-sinnott -----------------------------------------------------------

SINNOTT_ANCHOR = ["verify", "sinnott", "--quad", "5", "--p", "7", "--prec", "12", "--d", "6"]

#: (D, p) with radicand < 120, D < 150, p in {3, 5, 7} unramified and
#: residue degree f = ord_D(p) <= 6, that pass for every twist bound up to
#: 12.  Left out: every pair with f > 6 ("residue field too large to scan",
#: or runs past 10 s), and the pairs (5,3), (8,3), (8,5), (12,5), (12,7),
#: (24,7), (28,5), (40,7), (56,3), (76,7), (93,5), (104,3), which stop with
#: "denominator not a p-adic unit".
SINNOTT_POOL = [
    (5, 7), (8, 7), (13, 3), (13, 5), (21, 5), (24, 5), (28, 3), (40, 3),
    (44, 5), (56, 5), (57, 7), (60, 7), (104, 5), (120, 7), (124, 5),
]
SINNOTT_DRAWS = 12

# -- special-units -----------------------------------------------------------

H90_ANCHOR = ["verify", "h90", "--quad", "13", "--ell", "53"]
SPECIAL_ANCHOR = ["verify", "annihilator", "--quad", "5", "--mode", "special"]

#: Fields for drawn h90 runs: the discriminants of radicand < 50.
H90_FIELDS = [
    5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 56, 60, 76, 88, 92,
    104, 120, 124, 136, 140, 152, 156, 168, 172, 184, 188,
]
#: One h90 draw per entry, on a drawn field in which ell is admissible:
#: split in k and prime to 4D (and so to level 3 times twist 4).  The cost
#: grows steeply with ell but hardly with the field, so ell is fixed per
#: draw.  The seven draws at ell = 19 (about 0.7 s each, compute-bound)
#: hold the median op of a pass; ell = 37 and 53 take 4 s and more and
#: are left to the anchor.
H90_ELLS = [19, 19, 19, 19, 19, 19, 19, 29]

#: Fields for the drawn cold-then-warm ``annihilator --mode special``:
#: radicand < 50, D < 100, and every auxiliary prime ell below 20, so that
#: k(zeta_ell) has degree below 40 over k.  The README anchor (D = 5, ell up
#: to 29) and h90 13/53 cover the large-ell end.
SPECIAL_FIELDS = [29, 44, 56, 60, 92]


def _kronecker(D, q):
    """(D / q) for an odd prime q."""
    r = pow(D % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def _strata(pool, k):
    """k contiguous slices of nearly equal length."""
    n = len(pool)
    return [pool[i * n // k:(i + 1) * n // k] for i in range(k)]


def _op(argv, role, disc, warm=False):
    return {"argv": list(argv), "role": role, "disc": disc, "warm": warm}


def _ray_class(rng):
    ops = [_op(a, "anchor", d) for a, d in zip(RAY_ANCHORS, RAY_ANCHOR_DISCS)]
    ops.append(_op(RAY_DEEP, "deep", 316))
    ops.append(_op(RAYS_DEEP, "deep", 8))
    for stratum in _strata(GRAS_POOL, GRAS_DRAWS):
        D = rng.choice(stratum)
        ops.append(_op(["verify", "gras", "--quad", str(D), "--mode", "scan", "--d", "30"], "draw", D))
    for _ in range(RAYS_DRAWS):
        ell = rng.choice(RAYS_ELLS)
        D = rng.choice(GRAS_POOL)
        p = rng.choice((3, 5, 7))
        ops.append(_op(["verify", "rays", "--quad", str(D), "--ell", str(ell), "--p", str(p)], "draw", D))
    return ops


def _padic_sinnott(rng):
    ops = [_op(SINNOTT_ANCHOR, "anchor", 5)]
    pairs = rng.sample(SINNOTT_POOL, SINNOTT_DRAWS)
    half = SINNOTT_DRAWS // 2
    precs = [12] * half + [40] * (SINNOTT_DRAWS - half)
    twists = [6] * half + [12] * (SINNOTT_DRAWS - half)
    rng.shuffle(precs)
    rng.shuffle(twists)
    for (D, p), prec, d in zip(pairs, precs, twists):
        argv = ["verify", "sinnott", "--quad", str(D), "--p", str(p), "--prec", str(prec), "--d", str(d)]
        ops.append(_op(argv, "draw", D))
    return ops


def _special_units(rng):
    ops = [
        _op(H90_ANCHOR, "anchor", 13),
        _op(SPECIAL_ANCHOR, "anchor", 5),
        _op(SPECIAL_ANCHOR, "anchor", 5, warm=True),
        _op(["cache", "stats"], "anchor", None),
    ]
    for ell in H90_ELLS:
        D = rng.choice([F for F in H90_FIELDS if _kronecker(F, ell) == 1 and (4 * F) % ell])
        ops.append(_op(["verify", "h90", "--quad", str(D), "--ell", str(ell)], "draw", D))
    D = rng.choice(SPECIAL_FIELDS)
    argv = ["verify", "annihilator", "--quad", str(D), "--mode", "special"]
    ops.append(_op(argv, "draw", D))
    ops.append(_op(argv, "draw", D, warm=True))
    ops.append(_op(["cache", "clear"], "anchor", None))
    return ops


WORKLOADS = {
    "ray-class": _ray_class,
    "padic-sinnott": _padic_sinnott,
    "special-units": _special_units,
}


def make_pass(name, rng):
    """The op list of one pass of workload `name`, drawn from `rng`."""
    return WORKLOADS[name](rng)
