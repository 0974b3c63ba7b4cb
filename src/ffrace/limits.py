"""Every size limit of the supported scale, and the one check that refuses
an input past one, before the work it prices, as a UsageError of one shape:
    <input>: <cost>; the supported limit is <limit>[; the largest accepted
    <argument> is <n>]
A limit records what it bounds, its value, how a quantity of it reads and
the measurement that set it: cold CLI runs on a 2-core Xeon unless stated.
The cost models stay beside the code they price: explicit.explicit_work,
lfunc.power_sum_work and explicit.breakdown_work.
"""

from dataclasses import dataclass
from math import log10

from .errors import UsageError


@dataclass(frozen=True)
class Limit:
    bounds: str
    value: int
    unit: str       # how a quantity reads, e.g. "order %s"
    measured: str


MAX_Q = Limit("field size q", 256, "q = %s",
              "count at F256, N = 2: 0.23-0.32 s, 33 MB (q x q tables, "
              "0.02-0.03 s of it in process)")
MAX_GROUP_ORDER = Limit("unit-group order Phi(m)", 1024, "order %s",
                        "count-explicit at order 1023, N = 80: 0.4 s, 46 MB")
MAX_EXPLICIT_WORK = Limit(
    "explicit counts, one degree or a run", 36 * 10 ** 8, "%s cost units",
    "5.8 s mod T^3+T+1/F2 at N = 46257, 7.2 s at order 1023 at N = 2577, "
    "8.9 s mod T+1/F3 at N = 84233")
MAX_EXACT_WORK = Limit(
    "exact Q(zeta_E) work of lpoly --horizon and --breakdown", 5 * 10 ** 7,
    "%s cost units", "--horizon 3516 at order 80: 2.2-2.9 s, 134 MB (265 MB "
    "as json); --breakdown at order 80, N = 73: 1.9-2.6 s, 86 MB (131 MB as "
    "json)")
MAX_RELATIONS_EXPONENT = Limit(
    "relations: the unit-group exponent", 128, "exponent %s",
    "by output: E = 255 searches in 1.1 s and prints 65,024 rows")
MAX_STABILIZER_Q = Limit("ties-gl2: q of the GL2(F_q) stabilizer search", 16,
                         "q = %s", "--residue 0 mod T+1/F16: 1.0-1.9 s (search "
                         "0.02 s in process); q = 256: a 137 GB entry array")
MAX_CERTIFICATES = Limit(
    "ties-gl2 certificates without --residue", 1024, "%s certificates",
    "878 of T^2+1/F9: 1.1 s; 25,886 of T^2+T+2/F13: 23 s in process")
MAX_RESIDUE = Limit("ties-gl2 --residue", MAX_GROUP_ORDER.value - 1,
                    "residue %s", "none: the period divides the exponent")
MAX_PERIOD = Limit("ties-empirical --period", MAX_GROUP_ORDER.value,
                   "period %s", "none: derived periods divide the exponent")
MAX_ENUM = Limit("sieve size q^N, so encodings fit int32", 1 << 26,
                 "%s encodings",
                 "in process: F2 N = 26 0.14 s, F3 N = 16 0.3 s")


def largest_within(ok, cap=1 << 40):
    """The largest n in [1, cap) with ok(n), 0 if none, for ok true up to
    some n and false beyond: doubling, then bisection, so ok is never asked
    past twice the answer."""
    lo, hi = 0, 1
    while hi < cap and ok(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _amount(x, limit=None):
    """x as a message states it: exact below 10^7, else in two significant
    digits, or as many more as it takes to read above `limit`."""
    if x < 10 ** 7:
        return "%d" % x
    try:
        digits = 1
        while limit is not None and float("%.*e" % (digits, x)) <= limit:
            digits += 1
        return "%.*e" % (digits, x)
    except OverflowError:       # an int past the largest float
        return "10^%.1f" % log10(x)


def check(limit, subject, cost, arg=None, price=None, top=None):
    """Refuse the input named by subject if its cost passes the limit,
    naming the largest accepted arg: top, or the largest n with price(n)
    within the limit (price monotone in n)."""
    if cost <= limit.value:
        return
    text = "%s: %s; the supported limit is %s" % (
        subject, limit.unit % _amount(cost, limit.value),
        limit.unit % _amount(limit.value))
    if price is not None:
        top = largest_within(lambda n: price(n) <= limit.value)
    if top is not None:
        text += "; the largest accepted %s is %d" % (arg, top)
    raise UsageError(text)
