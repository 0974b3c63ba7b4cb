"""Reference oracle for gl2.slash_action: every power (cT+d)^0..(cT+d)^n
built by successive products, against which the version that starts from
(cT+d)^(n - deg f) is compared; and all_invertible, the matrices of
GL2(F_q) that the action is checked over."""

from ffrace.gl2 import Mat2, _gl2_entries
from ffrace.polyring import Poly


def all_invertible(field):
    """GL2(F_q) as Mat2 in the lexicographic entry order of the stabilizer
    search."""
    return [Mat2(field, *B) for B in _gl2_entries(field).tolist()]


def slash_action_by_power_list(f, n, B):
    """f|_n B = sum_i f_i (aT+b)^i (cT+d)^(n-i), n >= deg f."""
    F = f.field
    top = Poly(F, (B.b, B.a))     # aT + b
    bot = Poly(F, (B.d, B.c))     # cT + d
    top_pows = [Poly.one(F)]
    for _ in range(max(f.degree, 0)):
        top_pows.append(top_pows[-1] * top)
    bot_pows = [Poly.one(F)]
    for _ in range(n):
        bot_pows.append(bot_pows[-1] * bot)
    out = Poly.zero(F)
    for i, coeff in enumerate(f.coeffs):
        if coeff:
            out = out + (top_pows[i] * bot_pows[n - i]).scale(coeff)
    return out
