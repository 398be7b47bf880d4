import pytest


@pytest.fixture
def frobenius():
    """Frobenius of a PadicRing, as the test oracle t -> t^p.

    A ring's modulus has Teichmueller roots, so substituting t^p for t in
    the Z_p-coordinates of an element is the Frobenius automorphism.
    """

    def apply(R, x):
        tp = R.element([0, 1]) ** R.p
        out = R.zero()
        for i, a in enumerate(x.vec):
            out = out + R.from_int(a) * tp**i
        return out

    return apply
