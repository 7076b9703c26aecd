"""Tour of the distribution zoo.

Builds each family at a few floor parameters and shows how the strict
probability floor truncates the heavy-tailed families.
"""

from supportsize import make_distribution, support_size

for k in (10, 100, 1000):
    print(f"k = {k}")
    for family in ("uniform", "zipf", "geometric", "two_mixture"):
        P = make_distribution(family, k)
        probs = P.probs
        print(
            f"  {family:12s} support={support_size(P):4d} "
            f"max={probs.max():.4f} min={probs.min():.6f} "
            f"floor 1/k={1 / k:.6f}"
        )
    print()

print("lenient mode keeps the full support but drops below the floor:")
P = make_distribution("zipf", 1000, strict=False)
print(f"  zipf lenient support={support_size(P)} min={P.probs.min():.2e}")
