"""Counter-based splittable random number streams.

Every random draw in the library is addressed by a tuple
(seed, path, jump, replica, tag), and the same tuple always reproduces the
same draws, regardless of scheduling or worker count.  This is what makes
parallel Monte Carlo runs bit-reproducible.

Implementation: numpy's Philox4x64-10 counter-based generator.  The 64-bit
seed and the tag form the Philox key; (path, jump, replica, 0) fill the
four counter words.  `_philox_address` is the one function that holds this
layout; `RngStream.generator`, `RngStream.each` and the batch kernel
`philox_words` all read it.

Many addresses are drawn in one of two ways.  The batch kernel evaluates
Philox for many lanes at once, each lane its own counter words, and
`standard_normals` runs numpy's ziggurat sampler on its raw words, so a
chunk's draws take a few numpy calls in all; a kernel call costs ~0.25 ms
however few its lanes.  `each` walks one Philox generator over many
addresses of a stream instead of building a generator per address,
writing each address into its state as plain ints, which is what a loop
over a few short streams wants: a fresh generator costs about nine times
as much as the re-address.

Streams are not all disjoint.  numpy increments counter word 0 before each
block of four 64-bit outputs, and word 0 also holds the path.  So the
stream of path p + 1 is the stream of path p shifted by one block: draws
4k .. 4k + 3 of path p + 1 are draws 4(k + 1) .. 4(k + 1) + 3 of path p,
for every (seed, jump, replica, tag).  Distinct tags, jumps, replicas or
seeds do give disjoint counters.

`philox_words` evaluates Philox4x64-10 on numpy uint64 arrays, for many
(lane, block) pairs at once, and reproduces the words numpy's generators
draw bit for bit (the method of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11); `philox_random` makes them the doubles of
`generator().random()`, and `standard_normals` those of
`generator().standard_normal()`.
"""

from __future__ import annotations

import binascii
import math
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
        counter, key = _philox_address(self)
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
        counter, key = _philox_address(self)
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


def _philox_address(stream: RngStream, **coords):
    """Philox counter words and key of `stream`, with any of path, jump and
    replica given in `coords` (ints or arrays) in place of the stream's own.

    The seed is reduced mod 2**64, so negative and large seeds keep
    distinct keys.  Both come back as lists, the coordinates in the counter
    as given.
    """
    counter = [coords.get(name, getattr(stream, name)) for name in _COUNTER_WORDS]
    return counter + [0], [stream.seed & MASK64, stream.tag]


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


def philox_words(stream: RngStream, blocks, **coords) -> np.ndarray:
    """Raw Philox4x64-10 words of the streams `stream.child(**entry)`, four per block.

    `coords` maps some of path, jump and replica to arrays, which are
    broadcast with `blocks`; entry i is the row of 64-bit words
    4 b .. 4 b + 3 of the stream at the coordinates of entry i, for
    b = blocks[i].  These are the words `next_uint64` of the entry's numpy
    generator returns.  Shape: broadcast shape + (4,), uint64.

    numpy's rule: counter word 0 is incremented before each block.  numpy
    carries into word 1 when word 0 wraps; that case raises ValueError
    here instead.
    """
    names = list(coords)
    blocks, *values = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.uint64) for v in [blocks, *coords.values()]))
    counter, key = _philox_address(stream, **dict(zip(names, values)))
    step = blocks + np.uint64(1)
    c0 = np.broadcast_to(np.asarray(counter[0], dtype=np.uint64), blocks.shape)
    if np.any(step > np.uint64(MASK64) - c0):
        raise ValueError("Philox counter word 0 wraps; the carry is not reproduced")
    c = [c0 + step] + [np.broadcast_to(np.asarray(w, dtype=np.uint64), blocks.shape)
                       for w in counter[1:]]
    return _philox4x64(c, key)


def philox_random(stream: RngStream, paths, blocks) -> np.ndarray:
    """Doubles of `stream.child(path=p).generator().random()`, four per block.

    `paths` and `blocks` are broadcast together; entry i of the result is
    the row of draws 4 b .. 4 b + 3 of the stream at path p, for
    (p, b) = (paths[i], blocks[i]).  Shape: broadcast shape + (4,).  A
    double is numpy's (u64 >> 11) * 2**-53 of a `philox_words` word.
    """
    return _doubles(philox_words(stream, blocks, path=paths))


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's `next_double` of 64-bit words: (u64 >> 11) * 2**-53."""
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


# numpy's random_standard_normal (numpy/random/src/distributions/
# distributions.c): the ziggurat of Marsaglia and Tsang, "The ziggurat
# method for generating random variables", J. Stat. Softw. 5(8), 2000, on
# 256 layers.  ki (uint64), wi and fi (float64) are numpy's tables, as
# ziggurat_constants.h holds them, little-endian and base64-encoded,
# copied rather than recomputed so that every draw is numpy's to the bit.
_ZIG_TABLES = np.frombuffer(binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9"
    "7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/"
    "D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8"
    "N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOe"
    "WMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT"
    "5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/"
    "ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXN"
    "k47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL"
    "4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gs"
    "HW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDq"
    "y0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6Kc"
    "EFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN"
    "6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ9"
    "0T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/"
    "NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf"
    "cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/"
    "0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDz"
    "xj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2Mt"
    "qOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZh"
    "tdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQ"
    "uT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/"
    "hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVu"
    "bCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz"
    "6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoS"
    "nj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/"
    "rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3"
    "ubYFplQ/"
), dtype="<u8")
_KI, _WI, _FI = _ZIG_TABLES[:256], _ZIG_TABLES[256:512].view("<f8"), _ZIG_TABLES[512:].view("<f8")
_ZIG_R = 3.6541528853610088               # the base layer's right edge: wi[255] * 2**52
_ZIG_INV_R = 0.27366123732975828
_M52 = np.uint64(0x000FFFFFFFFFFFFF)

# numpy's exp is within a few ulp of libm's, so a wedge test whose sides
# differ by more than this relative band decides the same with either.
EXP_GUARD = 1e-9

# Words per kernel call of `standard_normals`: its temporaries take ~70 B
# a word, so this bounds them at ~2.3 MB, whatever the number of lanes.
# Half of it took a call more on a 400-path nested chunk, ~15 % longer.
NORMAL_SLICE = 32_768


def standard_normals(stream: RngStream, counts, **coords) -> np.ndarray:
    """The first counts[i] standard normals of `stream.child(**entry i)`,
    concatenated: what each entry's `generator().standard_normal(counts[i])`
    draws, bit for bit (numpy's ziggurat, `_parse`).

    `coords` maps some of path, jump and replica to arrays with one entry
    per lane.  The first pass draws each lane's count rounded up to whole
    blocks of words.  A lane whose words run short (a slow word reads a
    uniform, and a rejected one yields nothing) resumes, with every other
    short lane, in one shared pass from the block of its first unparsed
    word, with a margin that doubles at each pass.  A pass calls
    `philox_words` on slices of lanes of at most NORMAL_SLICE words (or on
    one lane that needs more).
    """
    counts = np.asarray(counts, dtype=np.int64)
    at = np.cumsum(counts) - counts             # each lane's first normal in `out`
    out = np.empty(int(counts.sum()))
    filled = np.zeros(len(counts), dtype=np.int64)
    first = np.zeros(len(counts), dtype=np.int64)   # each lane's first unparsed word
    lanes, margin = np.flatnonzero(counts), 0
    while lanes.size:
        skip = first[lanes] % 4
        n_blocks = (skip + counts[lanes] - filled[lanes] + margin + 3) // 4
        ends = np.cumsum(n_blocks)
        short, lo = [], 0
        while lo < len(lanes):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - n_blocks[lo]
                                                 + NORMAL_SLICE // 4, side="right")))
            ln, nb = lanes[lo:hi], n_blocks[lo:hi]
            want = counts[ln] - filled[ln]
            block = np.arange(int(nb.sum())) - np.repeat(np.cumsum(nb) - nb - first[ln] // 4, nb)
            words = philox_words(stream, block, **{name: np.repeat(np.asarray(v)[ln], nb)
                                                   for name, v in coords.items()})
            values, got, stop = _parse(words.reshape(-1), 4 * nb, skip[lo:hi], want)
            dest = np.repeat(at[ln] + filled[ln] - (np.cumsum(got) - got), got)
            out[dest + np.arange(len(values))] = values
            filled[ln] += got
            first[ln] += stop - skip[lo:hi]
            short.append(ln[got < want])
            lo = hi
        lanes, margin = np.concatenate(short), 2 * margin or 4
    return out


def _parse(words, length, skip, want):
    """Normals of the lanes' words as numpy's sampler draws them.

    Lane j owns the next length[j] words, of which the first skip[j] were
    parsed before.  Returns the lanes' first want[j] normals (or all they
    yield), concatenated, how many each lane yielded, and where in its
    words each lane stopped: past its last word, or at a slow word whose
    draw would run past it.

    A word is fast (98.5 % of them) when its 52-bit magnitude is below
    ki[idx], and then yields x = magnitude * wi[idx] with its sign.
    Otherwise it reads the words after it: one uniform for a wedge (idx >
    0), accepted if (fi[idx - 1] - fi[idx]) u + fi[idx] < exp(-x^2 / 2),
    or pairs of uniforms for the tail (idx = 0) until one is accepted.  The
    outcome of every slow word is computed as if a draw started there; the
    draws that do start are then found in rounds, one per lane and round,
    each skipping the words its predecessor read.
    """
    start = np.cumsum(length) - length
    idx = words.astype(np.uint8)                # the low byte
    mag = (words >> np.uint64(9)) & _M52
    x = mag.astype(np.float64) * _WI.take(idx)
    x.view(np.uint64)[...] |= (words & np.uint64(0x100)) << np.uint64(55)  # bit 8: the sign
    yields = mag < _KI.take(idx)
    slow = np.flatnonzero(~yields)
    lane = np.searchsorted(start, slow, side="right") - 1
    fresh = slow >= (start + skip)[lane]
    slow, lane = slow[fresh], lane[fresh]
    stop = start + length                       # where each lane's parse ends
    span, value, accept = _slow_draws(words, slow, stop[lane], x[slow], idx[slow], mag[slow])

    # the draws that start, in rounds: each lane's first slow word left
    heads, left = [], np.arange(slow.size)
    nxt = np.empty(len(start), dtype=np.int64)
    while left.size:
        ln = lane[left]
        head = np.r_[True, ln[1:] != ln[:-1]]
        h = left[head]
        heads.append(h[span[h] > 0])
        nxt[ln[head]] = np.where(span[h] > 0, slow[h] + span[h], words.size)
        ends = h[span[h] == 0]
        stop[lane[ends]] = slow[ends]
        rest = left[~head]
        left = rest[slow[rest] >= nxt[lane[rest]]]
    heads = np.concatenate([np.empty(0, dtype=np.intp)] + heads)
    j = slow[heads]                             # each draw's word
    yields[j] = accept[heads]
    x[j] = value[heads]
    # no yield from the words parsed before, the draws' uniforms, or past a stop
    lo = np.concatenate([start, j + 1, stop])
    n = np.concatenate([skip, span[heads] - 1, start + length - stop])
    yields[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())] = False
    rank = np.cumsum(yields)
    before = np.r_[0, rank][start]              # yields before each lane
    take = yields & (rank <= np.repeat(before + want, length))
    got = np.minimum(rank[start + length - 1] - before, want)
    return x[take], got, stop - start


def _slow_draws(words, slow, end, x, idx, mag):
    """Span (words read, 0 if they run past `end`), value and whether a
    normal is yielded, of a draw starting at each slow word."""
    span = np.zeros(slow.size, dtype=np.int64)
    value = x.copy()
    accept = np.zeros(slow.size, dtype=bool)
    wedge = np.flatnonzero((idx > 0) & (slow + 1 < end))
    if wedge.size:
        i, xw = idx[wedge], x[wedge]
        u = _doubles(words[slow[wedge] + 1])
        lhs = (_FI[i - 1] - _FI[i]) * u + _FI[i]
        rhs = np.exp(-0.5 * xw * xw)
        near = np.flatnonzero(np.abs(lhs - rhs) <= EXP_GUARD * rhs)
        if near.size:
            rhs[near] = [math.exp(-0.5 * v * v) for v in xw[near].tolist()]
        span[wedge] = 2
        accept[wedge] = lhs < rhs
    # the tail: pairs of uniforms after the word, until one is accepted
    tail = np.flatnonzero(idx == 0)
    sign = (mag[tail] >> np.uint64(8)) & np.uint64(1)
    k = 0
    while tail.size:
        a = slow[tail] + 1 + 2 * k
        inside = a + 1 < end[tail]
        tail, sign, a = tail[inside], sign[inside], a[inside]
        u = _doubles(words[np.stack([a, a + 1], -1)]).tolist()
        xx = np.array([-_ZIG_INV_R * math.log1p(-v) for v, _ in u])
        yy = np.array([-math.log1p(-v) for _, v in u])
        ok = yy + yy > xx * xx
        t = tail[ok]
        span[t] = 3 + 2 * k
        accept[t] = True
        value[t] = np.where(sign[ok] == 1, -(_ZIG_R + xx[ok]), _ZIG_R + xx[ok])
        tail, sign, k = tail[~ok], sign[~ok], k + 1
    return span, value, accept


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
