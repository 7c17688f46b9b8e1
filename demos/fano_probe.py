"""
Realizability of the Fano plane depends on the characteristic
=============================================================

Exhaustive forward-checking search over the 7 points and 7 lines.  The
F_3 side has to exhaust its whole search tree, which takes a fraction of
a second.
"""

from toricbundles.incidence import configuration_to_json, enumerate_c_i
from toricbundles.murphy import fano_incidence

fano = fano_incidence()
print("incidences:", sorted(fano.pairs))

over_two = enumerate_c_i(fano, 2)
print("\nrealizations over F_2:", len(over_two))
print("witness:", configuration_to_json(over_two[0]))

over_three = enumerate_c_i(fano, 3)
print("\nrealizations over F_3:", len(over_three),
      "(the Fano configuration needs -1 = 1)")
