"""Dimension growth of truncated Jacobian quotients on the torus.

For the potential T + x*(puncture cycle)^n the quotient by the cyclic
derivatives is finite dimensional, and its dimension grows with the
cycle power n.  Each row below is certified: past the reported length
every path reduces to shorter ones, so the dimension is exact, not an
artifact of the truncation window.  Column D is the degree the
certificate was found at, the lowest one that certifies.

Run with:  python3 demos/dimension_growth.py
"""

from qpsurf.jacobian import quotient_dimension
from qpsurf.qp_mutation import QP
from qpsurf.surface import build_quiver, once_punctured_torus, potential_S

tq = build_quiver(once_punctured_torus())
m = tq.punctures[0].valency
print("puncture valency m = %d" % m)
print()
print("n   D    dim   n*m-2   certified through length")
for n in (1, 2, 3):
    # truncated at n*m + 6; quotient_dimension certifies at the lowest
    # degree that does, from the longest Jacobian generator + 2 upwards
    qp = QP(tq.quiver, potential_S(tq, 1, n * m + 6, n=n))
    quo, certified = quotient_dimension(qp)
    print(
        "%-3d %-4d %-5d %-7d %s"
        % (n, quo.degree, quo.dimension, n * m - 2,
           quo.certificate_length if certified else "NOT CERTIFIED")
    )
print()
print("per-degree slice sizes at n = 1:")
quo, _ = quotient_dimension(QP(tq.quiver, potential_S(tq, 1, 12)))
for length, count in enumerate(quo.per_degree):
    if count:
        print("  length %d: %d" % (length, count))
