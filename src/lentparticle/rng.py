"""Counter-based splittable random number streams.

Every random draw in the library is addressed by a tuple
(seed, path, jump, replica, tag), and the same tuple always reproduces the
same draws, regardless of scheduling or worker count.  This is what makes
parallel Monte Carlo runs bit-reproducible.

Implementation: numpy's Philox4x64-10 counter-based generator.  The 64-bit
seed and the tag form the Philox key; (path, jump, replica, 0) fill the
four counter words.  `_philox_address` is the one function that holds this
layout; `RngStream.generator`, `RngStream.each` and the batch kernel
`philox_random` all read it.  `each` walks one Philox generator over many
addresses of a stream instead of building a generator per address,
writing each address into its state as plain ints, which is what a loop
over many short streams wants: a fresh generator costs about nine times
as much as the re-address.

Streams are not all disjoint.  numpy increments counter word 0 before each
block of four 64-bit outputs, and word 0 also holds the path.  So the
stream of path p + 1 is the stream of path p shifted by one block: draws
4k .. 4k + 3 of path p + 1 are draws 4(k + 1) .. 4(k + 1) + 3 of path p,
for every (seed, jump, replica, tag).  Distinct tags, jumps, replicas or
seeds do give disjoint counters.

`philox_random` evaluates Philox4x64-10 on numpy uint64 arrays, for many
(path, block) pairs at once, and reproduces what `generator().random()`
draws bit for bit (the method of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

# purpose tags
TAG_MARK = 1            # jump sizes / marks of the Poisson measure
TAG_TIME = 2            # jump times
TAG_RHO = 3             # auxiliary rho-blocks (gradient enrichment)
TAG_NESTED = 4          # nested Brownian path attached to a jump
TAG_NOISE = 5           # miscellaneous noise (direct-route and small-ball draws)

MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream.

    A stream is cheap to create; `generator()` materialises a numpy
    Generator positioned at the start of the stream.
    """

    seed: int
    path: int = 0
    jump: int = 0
    replica: int = 0
    tag: int = TAG_NOISE

    def child(self, *, path=None, jump=None, replica=None, tag=None) -> "RngStream":
        """Derive a sub-stream with the coordinates given (not None) replaced."""
        return RngStream(self.seed,
                         self.path if path is None else path,
                         self.jump if jump is None else jump,
                         self.replica if replica is None else replica,
                         self.tag if tag is None else tag)

    def generator(self) -> np.random.Generator:
        counter, key = _philox_address(self, self.path)
        bitgen = np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                  key=np.array(key, dtype=np.uint64))
        return np.random.Generator(bitgen)

    def each(self, **coords):
        """Yield a generator at `self.child(**entry)` for each entry of `coords`.

        `coords` maps some of path, jump and replica to sequences of one
        length, and entry i takes element i of each.  One generator serves
        the whole walk: before each yield only the counter words of one
        state dict change, and numpy's setter copies them in.  The
        generator yielded draws what the entry's own `generator()` would,
        until the walk moves on.  An empty walk builds nothing.
        """
        if not coords or not set(coords) <= set(_COUNTER_WORDS):
            raise ValueError(f"each walks some of {_COUNTER_WORDS}, got {sorted(coords)}")
        lengths = {len(seq) for seq in coords.values()}
        if len(lengths) > 1:
            raise ValueError(f"coordinate sequences of unequal lengths {sorted(lengths)}")
        if lengths == {0}:
            return
        counter, key = _philox_address(self, self.path)
        words = {"counter": counter, "key": key}
        state = {"bit_generator": "Philox", "state": words,
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gen = self.generator()
        bitgen = gen.bit_generator
        # each entry's row of four words is the counter
        rows = [repeat(value) for value in counter]
        for name, seq in coords.items():
            rows[_COUNTER_WORDS.index(name)] = seq
        for words["counter"] in zip(*rows):
            bitgen.state = state
            yield gen


def _philox_address(stream: RngStream, path):
    """Philox counter words and key of `stream` at `path` (int or array).

    The seed is reduced mod 2**64, so negative and large seeds keep
    distinct keys.  Both come back as lists, `path` in the counter as given.
    """
    return [path, stream.jump, stream.replica, 0], [stream.seed & MASK64, stream.tag]


_COUNTER_WORDS = ("path", "jump", "replica")     # counter words 0-2 of `_philox_address`


# Philox4x64 multipliers and Weyl key increments (Salmon et al.; numpy)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray, scratch):
    """High and low 64-bit words of the 128-bit products a * m, into hi and lo.

    `scratch` holds three uint64 arrays of a's shape, overwritten here; a,
    hi, lo and the scratch arrays must all be distinct.  No partial sum
    below exceeds 2**64 - 1 (Warren, "Hacker's Delight", mulhu).
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi, t = scratch
    np.bitwise_and(a, _LO32, out=a_lo)
    np.right_shift(a, _S32, out=a_hi)
    np.multiply(a, np.uint64(m), out=lo)
    np.multiply(a_hi, m_hi, out=hi)
    np.multiply(a_lo, m_lo, out=t)
    t >>= _S32
    a_hi *= m_lo
    t += a_hi                                   # t = (a_lo m_lo >> 32) + a_hi m_lo
    a_lo *= m_hi
    np.bitwise_and(t, _LO32, out=a_hi)
    a_hi += a_lo                                # u = (t & LO32) + a_lo m_hi
    t >>= _S32
    hi += t
    a_hi >>= _S32
    hi += a_hi
    return hi, lo


def philox_random(stream: RngStream, paths, blocks) -> np.ndarray:
    """Doubles of `stream.child(path=p).generator().random()`, four per block.

    `paths` and `blocks` are broadcast together; entry i of the result is
    the row of draws 4 b .. 4 b + 3 of the stream at path p, for
    (p, b) = (paths[i], blocks[i]).  Shape: broadcast shape + (4,).

    numpy's rules: counter word 0 is incremented before each block, and a
    double is (u64 >> 11) * 2**-53.  numpy carries into word 1 when word 0
    wraps; that case raises ValueError here instead.
    """
    paths, blocks = np.broadcast_arrays(np.asarray(paths, dtype=np.uint64),
                                        np.asarray(blocks, dtype=np.uint64))
    counter, key = _philox_address(stream, paths)
    step = blocks + np.uint64(1)
    c0 = np.asarray(counter[0], dtype=np.uint64)
    if np.any(step > np.uint64(MASK64) - c0):
        raise ValueError("Philox counter word 0 wraps; the carry is not reproduced")
    c = [c0 + step] + [np.full(paths.shape, w, dtype=np.uint64) for w in counter[1:]]
    words = _philox4x64(c, key)
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _philox4x64(c, key) -> np.ndarray:
    """Philox4x64-10 of the counter words c (four uint64 arrays) under key.

    Returns the four output words of each counter along a last axis.
    """
    k0, k1 = int(key[0]), int(key[1])
    # each round writes its words into the set the round before last wrote
    sets = [[np.empty(np.shape(c[0]), dtype=np.uint64) for _ in range(4)] for _ in range(2)]
    scratch = [np.empty(np.shape(c[0]), dtype=np.uint64) for _ in range(3)]
    for r in range(_ROUNDS):
        rk0 = np.uint64((k0 + r * _W0) & MASK64)
        rk1 = np.uint64((k1 + r * _W1) & MASK64)
        out = sets[r % 2]
        _mulhilo(c[0], _M0, out[2], out[3], scratch)
        _mulhilo(c[2], _M1, out[0], out[1], scratch)
        out[0] ^= c[1]
        out[0] ^= rk0
        out[2] ^= c[3]
        out[2] ^= rk1
        c = out
    return np.stack(c, axis=-1)


# Wichura's AS241 (PPND16) coefficients, as `statistics.NormalDist` has
# them: [branch][numerator, denominator][highest power first]
_AS241 = np.array([
    [[2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
      13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665],
     [5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
      5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0]],
    [[0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
      3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835],
     [1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
      0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0]],
    [[2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
      0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
      6.657904643501103],
     [2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
      0.0007868691311456133, 0.014875361290850615, 0.1369298809227358, 0.599832206555888,
      1.0]]])


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile Phi^-1(p), elementwise, for 0 < p < 1.

    A numpy port of `statistics.NormalDist.inv_cdf` (Wichura, "Algorithm
    AS241", Applied Statistics 37, 1988; ~1e-16 relative) with its
    branches and operation order; only numpy's log may differ from libm's
    in the last bit.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("the normal quantile needs 0 < p < 1")
    q = p - 0.5
    x = np.empty_like(q)
    mid = np.abs(q) <= 0.425
    qm, qt = q[mid], q[~mid]
    r = 0.180625 - qm * qm
    x[mid] = np.polyval(_AS241[0, 0], r) * qm / np.polyval(_AS241[0, 1], r)
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[~mid], 1.0 - p[~mid])))
    near, far = r - 1.6, r - 5.0
    xt = np.where(r <= 5.0, np.polyval(_AS241[1, 0], near) / np.polyval(_AS241[1, 1], near),
                  np.polyval(_AS241[2, 0], far) / np.polyval(_AS241[2, 1], far))
    x[~mid] = np.where(qt < 0.0, -xt, xt)
    return x
