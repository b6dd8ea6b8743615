"""Regenerate tests/data/lemma_bg_floor.json.

The file pins the smallest gap between the two sides of the product-character
bound over a committed (p, ell) family. The acceptance suite recomputes the
family and refuses any run whose smallest gap drops below the pinned value,
so the bound audit cannot regress silently. Run from the repository root:

    python3 tools/make_lemma_bg_floor.py
"""

import json
from pathlib import Path

from charscan.arith import sieve_primes
from charscan.characters import legendre_character
from charscan.experiments import verify_lemma_bg

P_MAX = 2000
ELLS = (3, 7, 11)


def main() -> None:
    worst = None
    count = 0
    for p in sieve_primes(P_MAX):
        p = int(p)
        if p % 4 != 3:
            continue
        xi = legendre_character(p)
        for ell in ELLS:
            if ell == p:
                continue
            audit = verify_lemma_bg(xi, legendre_character(ell))
            count += 1
            if worst is None or audit.gap < worst[0]:
                worst = (audit.gap, p, ell)
    payload = {
        "p_max": P_MAX,
        "p_class_mod_4": 3,
        "ells": list(ELLS),
        "pairs": count,
        "min_gap": worst[0],
        "argmin": {"p": worst[1], "ell": worst[2]},
    }
    out = Path(__file__).resolve().parent.parent / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    out = out / "lemma_bg_floor.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"wrote {out}: min gap {worst[0]:.9f} at (p={worst[1]}, ell={worst[2]}) "
        f"over {count} pairs"
    )


if __name__ == "__main__":
    main()
