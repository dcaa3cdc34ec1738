"""The 4x4 and 8x8 multiplication matrices and their laws.

left_rep(x) acts on coordinate columns as y -> x*y, right_rep(x) as
y -> y*x.  The left map is multiplicative; the right map composes in
reverse.  Block assembly from the 4x4 maps of the quaternion halves is
compared against the 8x8 maps, both read off the structure constants.
"""

import random

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuatAlgebra,
    block_check,
    left_rep,
    right_rep,
)

f5 = PrimeField(5)
H = QuatAlgebra(f5, -1, -1)
x = H.element((2, 3, 1, 3))

print("left representation of", x, "over", H)
print(left_rep(x).to_csv())
print("\nright representation:")
print(right_rep(x).to_csv())

rng = random.Random(2)
y = H.random_element(rng)
print("\nleft map is multiplicative:",
      left_rep(x * y) == left_rep(x) * left_rep(y))
print("right map reverses products:",
      right_rep(x * y) == right_rep(y) * right_rep(x))

m = left_rep(x)
print("\nx is 5-potent, and so is its matrix: M^4 == I:",
      m ** 4 == m ** 0)

# -- octonion block structure -----------------------------------------------------

O = OctAlgebra(f5, -1, -1, -1)
z = O.random_element(rng)
report = block_check(z)
print("\n8x8 block assembly from the two quaternion halves (c = -1):")
print("  classical left form agrees:", report.left_classical_agrees)
print("  classical right form agrees:", report.right_classical_agrees,
      " (its lower-left block is misquoted)")
print("  parametric forms agree:", report.left_parametric_agrees,
      report.right_parametric_agrees)

O2 = OctAlgebra(f5, 2, 3, 1)
report2 = block_check(O2.random_element(rng))
print("with doubling parameter c = 1 the fixed-sign form breaks:",
      not report2.left_classical_agrees,
      "but the parametric one still holds:", report2.left_parametric_agrees)
