"""Absorb a square of a puncture cycle into the base potential.

On a twice-punctured surface the potential S is the triangle part plus
one weighted cycle per puncture.  Adding a higher power of a puncture
cycle does not change the right-equivalence class: an explicit
unitriangular endomorphism carries S + V back to S.  This builds that
endomorphism for V = (hub cycle)^2, as the chain of factors whose
composite it is.  absorb_g_powers applies each factor once, to the
carried potential S + V, and compares the final image with S once; the
demo then applies the factors in turn itself and checks the same.

Run with:  python3 demos/absorb_powers.py
"""

import time

from qpsurf.normalize import absorb_g_powers
from qpsurf.path_algebra import Path, Potential, is_cyclically_equivalent
from qpsurf.surface import build_quiver, potential_S, twice_punctured_genus

tq = build_quiver(twice_punctured_genus(1))
for p in tq.punctures:
    print("puncture %s, valency %d: %s" % (p.pid, p.valency, " ".join(p.arrows)))

degree = 40
hub = tq.puncture_cycle("p1").arrows
v_pot = Potential(tq.quiver, degree, {Path(hub * 2): 1})
s_pot = potential_S(tq, (1, 1), degree)
print()
print("V = (%s)^2, truncation degree %d" % (".".join(hub), degree))

t0 = time.perf_counter()
factors = absorb_g_powers(tq, (1, 1), v_pot)
print("built the absorbing endomorphism in %.1fs" % (time.perf_counter() - t0))
print("phi = phi_%d o ... o phi_1, min factor depth: %d"
      % (len(factors), min(f.depth() for f in factors)))

t0 = time.perf_counter()
out = s_pot + v_pot
for f in factors:
    out = f.apply(out)
ok = is_cyclically_equivalent(out, s_pot)
print("phi(S + V) = S up to cyclic equivalence: %s  (%.1fs)" % (ok, time.perf_counter() - t0))
