"""Frozen reference values: the first few cyclotomic quotients of F_N
(exponent -> coefficient maps; omitted exponents are zero) and the
root-location counts for 6 <= N <= 50.  The construction and
classification code must reproduce these exactly.  ``from_text`` reads the
canonical text form that the fixture files and ``goldpoly construct``
print."""

QUOTIENTS = {
    # F_6 / Phi_12, degree 46
    (6, "2N"): {
        46: 1, 44: 1, 40: -1, 38: -1, 36: 3, 34: 4, 32: 1, 30: -3, 28: -2,
        26: 3, 24: 5, 22: 2, 18: -2, 16: -1, 14: 2, 12: 5, 10: 3, 8: -1,
        6: -3, 2: 4, 0: 4,
    },
    # F_8 / Phi_16, degree 90
    (8, "2N"): {
        90: 1, 82: -1, 76: 3, 74: 1, 68: -3, 66: -1, 64: 2, 62: 4, 60: 3,
        58: 1, 56: -2, 54: -4, 52: 2, 50: -1, 48: 5, 46: 4, 44: -2, 42: 4,
        40: -1, 38: -4, 36: 2, 34: -2, 32: 6, 30: 4, 28: 1, 26: 2, 24: -4,
        18: -2, 16: 9, 12: 3, 10: 3, 8: -7, 6: 1, 0: 9,
    },
    # F_10 / Phi_20, degree 118
    (10, "2N"): {
        118: 1, 116: 1, 108: -1, 106: -1, 104: 1, 102: 1, 100: 2, 98: 3,
        96: 1, 94: -1, 92: -1, 90: -1, 86: 1, 84: 1, 82: 4, 80: 4, 76: 2,
        74: 2, 72: -1, 70: -1, 66: -2, 64: 2, 62: 9, 60: 5, 56: 4, 52: -4,
        48: 3, 44: 1, 42: 7, 40: 8, 38: 2, 34: 1, 30: -3, 28: 1, 26: 3,
        24: 1, 22: 6, 20: 8, 16: 2, 14: 4, 12: -3, 10: -4, 8: 3, 6: 1,
        2: 9, 0: 9,
    },
    # F_7 / (Phi_7 * Phi_14), degree 48
    (7, "N,2N"): {
        48: 1, 46: -1, 38: 1, 36: 1, 34: -1, 32: -1, 28: 3, 26: -3, 24: 2,
        20: 1, 18: -1, 16: -2, 14: 3, 10: -1, 8: 1, 6: 1, 2: -4, 0: 4,
    },
    # F_9 / (Phi_9 * Phi_18), degree 100
    (9, "N,2N"): {
        100: 1, 94: -1, 86: 1, 84: 2, 82: 1, 80: -1, 78: -2, 76: -1, 72: 3,
        68: 4, 66: -1, 64: 1, 62: -4, 58: 3, 54: 1, 52: -2, 50: 4, 48: 4,
        46: -1, 44: -1, 42: -5, 40: 3, 36: 6, 34: -2, 32: 1, 30: 1, 28: 4,
        26: -1, 24: -4, 22: -2, 20: 2, 18: 7, 16: -1, 14: -1, 12: 2, 10: 3,
        8: 2, 6: -8, 0: 9,
    },
    # F_11 / (Phi_11 * Phi_22), degree 120
    (11, "N,2N"): {
        120: 1, 118: -1, 106: 1, 104: -1, 100: 2, 98: -1, 96: -1, 92: 1,
        90: -1, 88: 2, 86: -2, 84: 1, 82: -1, 80: 3, 74: -3, 70: 4, 68: -4,
        66: 2, 64: 1, 62: -2, 60: 4, 58: -2, 52: 1, 46: -4, 44: 4, 42: -1,
        40: 4, 38: -2, 36: 1, 34: -2, 32: -1, 30: 4, 28: 2, 26: -5, 24: -4,
        22: 6, 20: 2, 18: -1, 16: 1, 14: -2, 10: 1, 8: 1, 6: 1, 2: -9, 0: 9,
    },
}

# N -> (2*phi(N), inside, on, outside)
ROOT_TABLE = {
    6: (4, 16, 4, 30),
    7: (12, 4, 12, 44),
    8: (8, 24, 8, 66),
    9: (12, 8, 12, 92),
    10: (8, 16, 8, 102),
    11: (20, 16, 20, 104),
    12: (8, 48, 8, 186),
    13: (24, 40, 24, 200),
    14: (12, 40, 12, 286),
    15: (16, 40, 16, 308),
    16: (16, 36, 16, 338),
    17: (32, 36, 32, 348),
    18: (12, 56, 12, 510),
    19: (36, 40, 36, 536),
    20: (16, 80, 16, 626),
    21: (24, 60, 24, 676),
    22: (20, 64, 20, 714),
    23: (44, 56, 44, 736),
    24: (16, 92, 16, 950),
    25: (40, 84, 40, 980),
    26: (24, 100, 24, 1026),
    27: (36, 108, 36, 1052),
    28: (24, 92, 24, 1126),
    29: (56, 100, 56, 1132),
    30: (16, 132, 16, 1534),
    31: (60, 128, 60, 1552),
    32: (32, 144, 32, 1746),
    33: (40, 136, 40, 1808),
    34: (32, 144, 32, 1870),
    35: (48, 160, 48, 1900),
    36: (24, 168, 24, 1978),
    37: (72, 136, 72, 2024),
    38: (36, 180, 36, 2522),
    39: (48, 172, 48, 2592),
    40: (32, 184, 32, 2670),
    41: (80, 176, 80, 2704),
    42: (24, 200, 24, 3138),
    43: (84, 184, 84, 3176),
    44: (40, 244, 40, 3414),
    45: (48, 252, 48, 3484),
    46: (44, 228, 44, 3598),
    47: (92, 244, 92, 3620),
    48: (32, 288, 32, 4098),
    49: (84, 260, 84, 4168),
    50: (40, 264, 40, 4302),
}


def from_text(s: str):
    """Parse the canonical text form of ``poly.to_text``: space-separated
    coefficients, ascending exponent."""
    from goldpoly.poly import IntPolynomial
    parts = s.split()
    if not parts:
        raise ValueError("empty polynomial text")
    return IntPolynomial(int(x) for x in parts)


FIXTURE_FILES = {
    (6, "2N"): "F6_div_Phi12.txt",
    (8, "2N"): "F8_div_Phi16.txt",
    (10, "2N"): "F10_div_Phi20.txt",
    (7, "N,2N"): "F7_div_Phi7Phi14.txt",
    (9, "N,2N"): "F9_div_Phi9Phi18.txt",
    (11, "N,2N"): "F11_div_Phi11Phi22.txt",
}


def quotient_from_map(key):
    """Fixture from the exponent map above."""
    from goldpoly.poly import IntPolynomial
    data = QUOTIENTS[key]
    coeffs = [0] * (max(data) + 1)
    for e, c in data.items():
        coeffs[e] = c
    return IntPolynomial(coeffs)


def quotient_polynomial(key):
    """Fixture from its canonical text serialization, cross-checked
    against the independent exponent-map transcription."""
    import pathlib

    path = pathlib.Path(__file__).parent / "fixtures" / FIXTURE_FILES[key]
    poly = from_text(path.read_text())
    assert poly == quotient_from_map(key), f"fixture file corrupt for {key}"
    return poly
