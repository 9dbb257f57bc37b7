"""Reference row data for the rotation-number enumeration of the surgery
family, used by the enumeration tests of `test_flat_moduli.py`.

Each row describes one L2 branch: L3 = (c*k + d) + 2t for t = 1..(span*k),
and e = e_k*k + e_t*t + e_0.  K > 0 rows have d = -2; K < 0 rows have d = 0.

The (q=9, L2=4, K>0) e-constant is -53: the within-q progression
(-49, -53, -57, -61) and the defining sum e = sum L_i (a/a_i) both force it,
while one circulated transcription duplicates the -49 of the L2=2 row; the
enumeration tests surface that row explicitly.
"""

# q -> list of (L2, c, span, (e_k, e_t, e_0))
ROWS_POSITIVE = {
    3: [(1, 1, 2, (36, 12, -17))],
    5: [(2, 1, 4, (100, 20, -29)), (4, 3, 2, (160, 20, -33))],
    7: [(1, 5, 2, (196, 28, -37)), (3, 1, 6, (196, 28, -41)), (5, 3, 4, (280, 28, -45))],
    9: [(2, 5, 4, (324, 36, -49)), (4, 1, 8, (324, 36, -53)),
        (6, 3, 6, (432, 36, -57)), (8, 7, 2, (576, 36, -61))],
}

ROWS_NEGATIVE = {
    3: [(1, 1, 2, (36, 12, 5))],
    5: [(2, 1, 4, (100, 20, 9)), (4, 3, 2, (160, 20, 13))],
    7: [(1, 5, 2, (196, 28, 9)), (3, 1, 6, (196, 28, 13)), (5, 3, 4, (280, 28, 17))],
    9: [(2, 5, 4, (324, 36, 13)), (4, 1, 8, (324, 36, 17)),
        (6, 3, 6, (432, 36, 21)), (8, 7, 2, (576, 36, 25))],
}


def expected_rows(q: int, k: int, positive: bool):
    """[(L2, L3, t, e)] for the given branch, sorted like the enumeration."""
    rows = (ROWS_POSITIVE if positive else ROWS_NEGATIVE)[q]
    d = -2 if positive else 0
    out = []
    for L2, c, span, (e_k, e_t, e_0) in rows:
        for t in range(1, span * k + 1):
            L3 = (c * k + d) + 2 * t
            out.append((L2, L3, t, e_k * k + e_t * t + e_0))
    return out
