"""Exact integer linear algebra: Smith normal form and ranks over Q or F_p.

Every matrix is a list of sparse rows, one ``{column: value}`` dict per row
with zero entries left out; row i of the list is row i of the matrix.  All
arithmetic uses Python's arbitrary-precision integers; intermediate values
of an elimination are allowed to grow without any overflow semantics.

Smith normal form and the rank over Q share one sparse kernel,
:func:`_eliminate`, whose unit phase is the sparse phase of Dumas, Saunders
and Villard ("On efficient sparse integer matrix Smith normal form
computations", J. Symbolic Comput. 2001).  Boundary maps have entries
±(form coefficients), so most pivots are units: each gives an invariant
factor 1 and one unit of rank.  The block left over has no unit entry, and
each of the two finishes it its own way.  Smith normal form
(:func:`_dense_snf`) turns it so that it is wide, densifies it, and takes
one diagonal step at a time: a single scan for the smallest pivot, Euclid
down the pivot column with row operations, then column operations on the
pivot row alone (the pivot column is zero elsewhere by then), and the
pivot row and column are cut out of the block.  :func:`q_rank_bound`
stops its unit phase at the switch of :func:`_rank_mod_p` (:func:`_dense`),
as dense unit pivots grow entries of tens of bits, and bounds the rows
left by their rank modulo 2, then hands back dearer bounds for the caller
(:func:`cuphom.homology._q_ranks`) to draw while one may be short: modulo
:data:`BOUND_PRIME`, then exact, by the same kernel with any pivot.
:func:`skew_q_rank` ranks a skew matrix exactly: unit pivots in mirrored
pairs, then :func:`_pfaffian_rank` on a dense block, two ranks at a time.

Every rank over F_p, those bounds included, runs one kernel,
:func:`_rank_mod_p`: XOR bit rows over F_2; for odd p sparse pivoting, with
the rows in a heap by length and a column index so that a pivot touches
only the rows holding its column, then, once the live block is dense, rows
packed into S-bit slots of one integer, with cap·(p-1)^2 + (p-1) < 2^S for
a block of cap pivots.  It shares no code with the unit phase or Smith
normal form, so the checks that compare F_p ranks with Smith normal form
stay independent.
"""

from array import array
from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd
from sys import byteorder

# The largest prime below 2^15.  Its packed slots in _rank_mod_p fit in 64
# bits: cap·(p-1)^2 + (p-1) < 2^64 for any block of fewer than 2^34 rows.
# It affects only speed, never a rank (see q_rank_bound), as does the
# bound modulo 2 taken before it.
BOUND_PRIME = 32749

# Miller-Rabin with the first 13 prime bases, 2 to 41, decides every n below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017).  Larger candidates are refused, not guessed at.
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, exactly, by deterministic Miller-Rabin.

    Raises ``ValueError`` for n >= :data:`PRIME_LIMIT` (about 3.3·10^24),
    where these bases no longer decide primality.
    """
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {PRIME_LIMIT}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d·2^s with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _divisibility_chain(values):
    """Nonzero moduli as the tuple d_1 | d_2 | ... of the same abelian group.

    The magnitudes are inserted in ascending order, each from the top of the
    chain built so far: while the entry below does not divide the carried
    value v, that entry a becomes lcm(a, v) and gcd(a, v) is carried down;
    then the carry is inserted.  At each prime this is insertion into a
    sorted list of exponents, so the result is exact on isomorphism classes
    (CRT) and is a divisibility chain.
    """
    chain = []
    for v in sorted(map(abs, values)):
        i = len(chain)
        while i and v % chain[i - 1]:
            a = chain[i - 1]
            g = gcd(a, v)
            chain[i - 1], v = a // g * v, g
            i -= 1
        chain.insert(i, v)
    return tuple(chain)


def _round_div(a, b):
    """Quotient with minimal-magnitude remainder: |a - qb| <= |b| / 2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _dense_snf(rows):
    """Smith normal form of nonempty sparse rows with no unit entry, on a dense block.

    The block is oriented to have no more rows than used columns (the
    invariant factors of a matrix and of its transpose agree) and densified
    over those columns.  Each diagonal step then costs about one pass over
    the live block:

    1. One scan for the smallest nonzero magnitude picks the pivot; it
       stops at the first entry equal to the gcd of all entries (1 for most
       blocks).
    2. Rounded-quotient row operations clear the pivot column.  While a
       remainder is left in it, the smallest one becomes the pivot and the
       column is cleared again (Euclid down the column).
    3. The pivot column is now zero outside the pivot row, so the column
       operations that reduce the rest of that row modulo the pivot touch
       no other row.  If a remainder survives, the smallest one becomes the
       pivot and step 2 runs on its column.
    4. The block is pivot ⊕ (the rest): the pivot is recorded, its row is
       deleted and its column is deleted from every other row.

    Each new pivot is smaller in magnitude than the last, so every step
    ends.  The recorded pivots are then put in divisibility order.
    """
    pos = {j: i for i, j in enumerate(sorted({j for r in rows for j in r}))}
    D = [[0] * len(pos) for _ in rows]
    for row, r in zip(D, rows):
        for j, v in r.items():
            row[pos[j]] = v
    D = [list(col) for col in zip(*D)] if len(D) > len(pos) else D
    # Unimodular operations keep every entry a multiple of the gcd g of the
    # entries, so an entry of magnitude g is a smallest one.
    g = gcd(*(v for r in rows for v in r.values()))
    diag = []
    while D:
        # Step 1: the only scan of the whole block in this diagonal step.
        best = 0
        for i, row in enumerate(D):
            v = min(map(abs, filter(None, row)), default=0)
            if v and (not best or v < best):
                best, pi = v, i
                if v == g:
                    break
        if not best:
            break
        P = D[pi]
        c = list(map(abs, P)).index(best)
        while True:
            while True:  # step 2
                p = P[c]
                ri = None
                for i, row in enumerate(D):
                    a = row[c]
                    if a and i != pi:
                        q = _round_div(a, p)
                        if q:
                            row = D[i] = [x - q * y for x, y in zip(row, P)]
                        r = row[c]
                        if r and (ri is None or abs(r) < rmin):
                            ri, rmin = i, abs(r)
                if ri is None:
                    break
                pi = ri
                P = D[pi]
            rj = None  # step 3: column operations, restricted to the pivot row
            for j, v in enumerate(P):
                if v and j != c:
                    v -= _round_div(v, p) * p
                    P[j] = v
                    if v and (rj is None or abs(v) < rmin):
                        rj, rmin = j, abs(v)
            if rj is None:
                break
            c = rj
        diag.append(p)  # step 4
        del D[pi]
        for row in D:
            del row[c]
    return _divisibility_chain(diag)


def _dense(n, free):
    """Whether a shortest row of n entries among ``free`` unpivoted columns is dense."""
    return n >= 16 and 8 * n >= free


def _has_unit(row):
    values = row.values()
    return 1 in values or -1 in values


def _eliminate(rows, paired=False, any_pivot=False, stop=False):
    """Sparse elimination over Z; returns (pivots eliminated, residual rows).

    While some entry is ±1, take the shortest row holding one (the lowest row
    index on ties) and, in that row, the ±1 column with the fewest entries;
    clear that column from every other row by the row operations
    ``row -= (rv·pv)·prow`` and drop the pivot row and column.  The pivot
    column is then zero outside the pivot row, so the column operations that
    would clear the pivot row touch no other row: the matrix is ±1 ⊕ (the
    rest) up to unimodular operations, and the dropped pair is one invariant
    factor 1 and one unit of rank.  The residual is the nonempty rows left,
    in their original order, with no ±1 entry.

    ``any_pivot`` makes every nonempty row a candidate, so nothing is left
    and the count is the rank over Q.  The pivot is the shortest row's entry
    of least magnitude (the column with fewest entries on ties), and each
    row becomes ``a·row - c·prow`` with a = |pv|/g > 0, c = ±rv/g and g =
    gcd(pv, rv), its content divided out when a != 1: invertible over Q, and
    for a unit pivot a = 1 and c = rv·pv, the update above.

    The candidate pivot rows sit in a heap of (length, row index); an entry
    whose row has since been eliminated, changed length or stopped being a
    candidate is skipped when popped, and every changed candidate is pushed
    again.  ``rows`` is consumed.

    ``stop`` ends the phase before a pivot once the shortest candidate row
    is dense (:func:`_dense`) and not the last row.  The residual then
    still holds unit entries, and a second call on it resumes the phase:
    the pivots depend only on row lengths, the order of the rows and the
    entries per column, which the residual keeps.

    ``paired`` is for a skew-symmetric matrix whose row i and column i carry
    the same label i.  Each pivot (r, c) is then followed by its mirror
    (c, r): row c is untouched, as its diagonal entry is zero, so its entry
    at r is still the unit -a.  The two pivots leave the Schur complement
    of the pair, which is skew again, and the residual rows, in order, are
    labelled by the sorted columns they use.
    """
    candidate = bool if any_pivot else _has_unit
    live = {}
    heap = []
    for i, r in enumerate(rows):
        if r:
            live[i] = r
            if candidate(r):
                heap.append((len(r), i))
    if not heap:
        return 0, list(live.values())
    if len(live) == 1:  # one candidate row: nothing else to clear
        return 1, []
    heapify(heap)
    col_rows = {}
    for i, r in live.items():
        for j in r:
            if j in col_rows:
                col_rows[j].add(i)
            else:
                col_rows[j] = {i}
    pivots = 0
    mirror = None
    while heap or mirror:
        if mirror:
            pi, pc = mirror
            prow = live.pop(pi)
        else:
            n, pi = heappop(heap)
            prow = live.get(pi)
            if prow is None or len(prow) != n or not candidate(prow):
                continue
            if stop and _dense(n, len(col_rows)) and len(live) > 1:
                break
            del live[pi]
            least = (1, -1)
            if any_pivot:
                m = min(map(abs, prow.values()))
                least = (m, -m)
            pc = min((j for j, v in prow.items() if v in least),
                     key=lambda j: len(col_rows[j]))
        mirror = (pc, pi) if paired and not mirror else None
        pv = prow[pc]
        pp = pv * pv
        for j in prow:
            col_rows[j].discard(pi)
        for i in col_rows.pop(pc):
            row = live[i]
            a, c = 1, row.pop(pc) * pv  # rv·pv: rv / pv when pv = ±1
            if pp != 1:
                g = gcd(pp, c)  # |pv|·gcd(pv, rv)
                a, c = pp // g, c // g
                for j in row:
                    row[j] *= a
            for j, v in prow.items():
                if j == pc:
                    continue
                w = row.get(j, 0) - c * v
                if w:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if a != 1 and (g := gcd(*row.values())) > 1:
                for j in row:
                    row[j] //= g
            if not row:
                del live[i]
            elif candidate(row):
                heappush(heap, (len(row), i))
        pivots += 1
    return pivots, list(live.values())


def smith_normal_form(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix of sparse rows, as a tuple.

    Factors equal to 1 are kept, so the length of the tuple is the rank and
    the factors above 1 are its tail.

    Two phases.  The sparse phase (:func:`_eliminate`) eliminates unit
    pivots, each an invariant factor 1.  The dense phase (:func:`_dense_snf`)
    densifies the rest over the columns it uses (zero rows and columns carry
    no invariant factors) and eliminates by smallest pivots, one pivot row
    and column at a time.  ``rows`` is left unchanged.
    """
    units, rest = _eliminate([dict(r) for r in rows if r])
    return (1,) * units + _dense_snf(rest)


def sparse_product(A, B):
    """Product of two matrices given as sparse rows; ``B[c]`` is row c of B."""
    out = []
    for row in A:
        acc = {}
        for c, v in row.items():
            for j, w in B[c].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: v for j, v in acc.items() if v})
    return out


def _pfaffian_rank(rows):
    """Rank over Q of a nonempty skew-symmetric residual of the paired unit phase.

    The rows are labelled by the sorted columns they use (see
    :func:`_eliminate`).  Fraction-free Pfaffian elimination on the
    dense strict upper triangle: with the pivot pair (a, b) and the previous
    pivot P (1 at first), every other entry becomes

        (M_ab M_ij - M_ai M_bj + M_aj M_bi) / P,

    an exact division by the Pfaffian form of Sylvester's identity (Knuth,
    "Overlapping Pfaffians", 1996): the entries are the Pfaffians of the
    principal minors on the pivots so far and {i, j}.  Each pivot pair adds
    2 to the rank.  ``a`` is the first live index; a zero row there is
    dropped, and b is its entry of least magnitude.
    """
    at = {j: i for i, j in enumerate(sorted({j for r in rows for j in r}))}
    n = len(at)
    upper = []  # upper[i][j - i - 1] = M_ij for i < j
    for i, r in enumerate(rows):
        u = [0] * (n - 1 - i)
        for j, v in r.items():
            j = at[j] - i - 1
            if j >= 0:
                u[j] = v
        upper.append(u)
    rank, prev = 0, 1
    while len(upper) > 1:
        top = upper[0]
        if not any(top):
            del upper[0]
            continue
        p = min(filter(None, top), key=abs)
        b = top.index(p) + 1
        # M_0i and M_bi for the other live i, as index i of upper lists them.
        col = [0] + top
        mid = [-r[b - i - 1] for i, r in enumerate(upper[:b])] + [0] + upper[b]
        nxt = []
        for i in range(1, len(upper)):
            if i == b:
                continue
            ui, vi = col[i], mid[i]
            row = [(p * x - ui * v + u * vi) // prev
                   for x, u, v in zip(upper[i], col[i + 1:], mid[i + 1:])]
            if i < b:
                del row[b - i - 1]
            nxt.append(row)
        upper = nxt
        rank, prev = rank + 2, p
    return rank


def q_rank_bound(rows):
    """Lower bound on the rank over Q, and how to raise it; consumes ``rows``.

    Returns ``(bound, more)``.  The unit phase of :func:`_eliminate` goes
    first, with its dense stop: it ends where it has eliminated every unit,
    or before a pivot once the rows left are dense (``stop``).  If rows are
    left, the bound is the unit count plus the rank over F_2 of their odd
    entries, one XOR basis of bit rows in :func:`_rank_mod_p`.  A bound
    never exceeds rank_Q: the unit phase is unimodular, so it keeps the rank
    over Q and over every F_p, and a rank can only drop modulo a prime.  For
    the same reason the bound does not depend on where the unit phase
    stopped.  ``more`` is None when the bound is the rank: nothing is left,
    or the rank modulo 2 reaches the smaller dimension of the rows left,
    which no rank can exceed (rule (a)).

    Otherwise ``more`` is an iterator of bounds, each dearer than the last,
    for the caller to advance only while the map stays open
    (:func:`cuphom.homology._q_ranks` decides).  It gives the unit count
    plus the rank of the rows left modulo :data:`BOUND_PRIME`, and stops
    there if rule (a) holds for it.  Else it resumes the unit phase on the
    rows left, checks rule (a) again on the residual against the larger of
    the two modular ranks, and gives the exact rank, from that check or
    from eliminating the residual exactly.  Its last value is the rank.  A
    modular value may fall below the one before (a prime that divides a
    minor of the rows left), so a caller keeps the larger; an unlucky prime
    only lowers a bound, and the exact finish decides.  The primes affect
    speed, never a rank.

    The stop pays for maps that a certificate then decides: a dense block
    grows entries of tens of bits in the unit phase, while its ranks modulo
    2 and the prime cost one XOR basis and one packed elimination.  A map
    left open pays them on a larger block, and then the rest of the unit
    phase anyway.  The rank modulo 2 is taken only on the rows the unit
    phase leaves, which for a sparse map is a short residual with no unit
    entry, so its cost stays below that of the rank modulo the prime.
    """
    units, rest = _eliminate(rows, stop=True)
    if not rest:
        return units, None
    cap = _most_rank(rest)
    odd = _rank_mod_p([{j: 1 for j, v in r.items() if v & 1} for r in rest], 2)
    if odd == cap:
        return units + odd, None
    return units + odd, _more(units, rest, cap, odd)


def _more(units, rest, cap, odd):
    """The bounds after the F_2 one of :func:`q_rank_bound`; see there."""
    p = BOUND_PRIME
    modp = _rank_mod_p([{j: v % p for j, v in r.items() if v % p} for r in rest], p)
    yield units + modp
    if modp == cap:
        return
    more, left = _eliminate(rest)
    best = max(odd, modp)
    if best - more == _most_rank(left):
        yield units + best
    else:
        yield units + more + _eliminate(left, any_pivot=True)[0]


def _most_rank(rows):
    """The largest rank that a matrix of these nonempty rows can have."""
    return min(len(rows), len({j for r in rows for j in r}))


def skew_q_rank(rows):
    """Rank over Q of skew-symmetric rows, row i and column i labelled alike
    (:func:`cuphom.cup_complex.skew_rows`); consumes ``rows``.

    The paired unit phase of :func:`_eliminate` leaves a skew residual of s
    rows, finished by :func:`_pfaffian_rank` if dense (s^2/8 entries or
    more), else by the kernel with any pivot.  No bound is taken: for the
    middle map of :func:`cuphom.homology._q_ranks` rule (b) needs an odd
    rank at b = 5 or 9, and only at b >= 13, with no rational homology in
    degrees (b ± 3)/2, could bounds spare the finish.
    """
    units, rest = _eliminate(rows, paired=True)
    if not rest:
        return units
    if 8 * sum(map(len, rest)) >= len(rest) ** 2:
        return units + _pfaffian_rank(rest)
    return units + _eliminate(rest, any_pivot=True)[0]


def _rank_mod_p(rows, p):
    """Rank over F_p of sparse rows with entries in 1..p-1; consumes ``rows``.

    p = 2: each row is an int of bits, reduced into an XOR basis keyed by
    lowest set bit.  Odd p: shortest-row sparse pivoting (the lowest row
    index on ties, then its lowest column) until the shortest live row is
    dense (:func:`_dense`).  The live rows wait in a heap keyed by (length,
    index), stale entries skipped when popped.  At the first pivot, so not
    for a block that is dense from the start, a column → rows index is
    built: it may hold rows
    that have since lost the column, which the pivot skips, and each row a
    pivot updates joins the pivot row's columns.  So a pivot touches only
    the rows that may hold its column.  Then each live row is packed into
    one integer, a slot per column, and the rows are taken in order.  A
    packed pivot row is reduced slot-wise mod p and normalised (pivot 1),
    then each row whose pivot slot is v mod p takes one bigint update
    ``y += (p - v)·prow``.  Slots are nonnegative and only grow: a row
    starts below p and takes at most cap updates of at most (p-1)^2 per
    slot, cap = min(rows, columns) of the packed block.  So no slot carries
    into the next, for any prime, as its width S bits (the least of 1, 2,
    4, 8, 16, ... bytes) satisfies

        cap·(p-1)^2 + (p-1) < 2^S.
    """
    rows = [r for r in rows if r]
    if p == 2:
        basis = {}
        for r in rows:
            x = sum(map((1).__lshift__, r))  # bit j for each column j
            while x:
                low = x & -x
                if low not in basis:
                    basis[low] = x
                    break
                x ^= basis[low]
        return len(basis)
    free = len({j for r in rows for j in r})  # columns not yet pivoted
    rank = 0
    live = dict(enumerate(rows))
    queue = [(len(r), i) for i, r in live.items()]
    heapify(queue)
    holding = None  # column -> indices of the rows that may hold it (a superset)
    while len(live) > 1:
        n, i = heappop(queue)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue
        if _dense(n, free):
            break
        if holding is None:
            holding = defaultdict(set)
            for r, row in live.items():
                for j in row:
                    holding[j].add(r)
        del live[i]
        pc = min(prow)
        inv = pow(prow.pop(pc), -1, p)
        rank += 1
        free -= 1
        touched = []
        for r in holding.pop(pc):
            row = live.get(r)
            if row is None or pc not in row:
                continue
            c = row.pop(pc) * inv % p
            for j, v in prow.items():
                w = (row.get(j, 0) - c * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
            if row:
                heappush(queue, (len(row), r))
                touched.append(r)
            else:
                del live[r]
        for j in prow:
            holding[j].update(touched)
    rows = list(live.values())
    if len(rows) < 2:
        return rank + len(rows)
    at = {j: i for i, j in enumerate(sorted({j for r in rows for j in r}))}
    n = len(at)
    bits = (min(len(rows), n) * (p - 1) ** 2 + p - 1).bit_length()  # of the slot bound
    width = 1 << ((bits - 1) // 8).bit_length()  # bytes per slot
    if width <= 8:
        code = "BHIQ"[width.bit_length() - 1]
        unpack = lambda b: memoryview(b).cast(code)
        pack = lambda slots: array(code, slots).tobytes()
    else:
        unpack = lambda b: [int.from_bytes(b[i:i + width], byteorder)
                            for i in range(0, len(b), width)]
        pack = lambda slots: b"".join(v.to_bytes(width, byteorder) for v in slots)
    packed = []
    for r in reversed(rows):
        slots = [0] * n
        for j, v in r.items():
            slots[at[j]] = v
        packed.append(int.from_bytes(pack(slots), byteorder))
    mask = (1 << 8 * width) - 1
    top = rank + n
    while packed and rank < top:
        slots = [v % p for v in unpack(packed.pop().to_bytes(width * n, byteorder))]
        c = next((i for i, v in enumerate(slots) if v), None)
        if c is None:
            continue
        inv = pow(slots[c], -1, p)
        prow = int.from_bytes(pack([v * inv % p for v in slots]), byteorder)
        rank += 1
        shift = 8 * width * c
        for i, y in enumerate(packed):
            v = (y >> shift & mask) % p
            if v:
                packed[i] = y + (p - v) * prow
    return rank


def rank_over_field(rows, characteristic):
    """Rank over F_p, p = ``characteristic`` a prime, of sparse rows with entries in 1..p-1.

    The rows are consumed.  Over Q see :func:`q_rank_bound` and :func:`skew_q_rank`.
    """
    if not is_prime(characteristic):
        raise ValueError(f"characteristic must be prime, got {characteristic}")
    return _rank_mod_p(rows, characteristic)
