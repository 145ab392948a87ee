"""Sign sequences, periodic autocorrelation, and the Hadamard predicate.

A circulant matrix is determined by its first row; for a ±1 row h the
matrix is Hadamard exactly when the periodic autocorrelation vanishes at
every nonzero lag.  This script walks through the order-4 example that
works and a few that do not, then cross-checks the fast predicate against
a dense matrix product.
"""

from circhad import (
    SignSequence,
    circulant_matrix,
    circulant_row,
    is_circulant_hadamard,
    paf_spectrum,
)

h = SignSequence.from_text("-+++")
print("sequence:", h.text)
print("rows of its circulant:")
for r in range(len(h)):
    print("  ", circulant_row(h, r).text)

spectrum = list(paf_spectrum(h))
print("paf spectrum:", spectrum)
print("circulant Hadamard:", is_circulant_hadamard(h))
print()

# the all-ones row correlates perfectly with itself at every lag
flat = SignSequence.from_text("++++")
print("sequence:", flat.text)
print("paf spectrum:", list(paf_spectrum(flat)))
print("circulant Hadamard:", is_circulant_hadamard(flat))
print()

# cross-check: H . H^T must be L times the identity
H = circulant_matrix(h)
L = len(h)
gram = [[sum(a * b for a, b in zip(row, col)) for col in H] for row in H]
print("H @ H.T for -+++:")
for row in gram:
    print("  ", row)
identity = [[L if r == c else 0 for c in range(L)] for r in range(L)]
print("equals L*I:", gram == identity)
print()

# no length-8 row passes: the row sum would have to square to 8
for text in ("+--+-+++", "++--++--", "+-------"):
    s = SignSequence.from_text(text)
    print(f"{text}: row sum {s.row_sum():+d}, paf {list(paf_spectrum(s))},",
          "Hadamard" if is_circulant_hadamard(s) else "not Hadamard")
