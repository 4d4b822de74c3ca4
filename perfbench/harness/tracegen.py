"""Request traces for the serve-zipf workload, in tdc_run's binary
TDCTRACE format (service/request.hh): a 16-byte header ("TDCTRACE",
version u32, count u32), then one little-endian record per request
(tick u64, op u8, address u64, value u64).

The stream follows tdc_run's own zipf<NN> generator: rank =
floor(words * u^k) with k = 1 / (1 - NN/100), scattered over the
address space by the same odd multiplier, one request per tick, and a
write with probability write_pct/100. It is drawn from Python's
Mersenne Twister seeded with the benchmark's seed, so a seed gives the
same bytes on every host.
"""

import random
import struct

_HEADER = struct.Struct("<8sII")
_RECORD = struct.Struct("<QBQQ")
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def zipf_trace(seed, count, words, zipf_hundredths=90, write_pct=30):
    rng = random.Random(seed)
    k = 1.0 / (1.0 - zipf_hundredths / 100.0)
    buf = bytearray(_HEADER.size + _RECORD.size * count)
    _HEADER.pack_into(buf, 0, b"TDCTRACE", 1, count)
    uniform, bits, pack = rng.random, rng.getrandbits, _RECORD.pack_into
    offset = _HEADER.size
    for tick in range(count):
        rank = min(int(words * uniform() ** k), words - 1)
        address = ((rank * _MIX) & _MASK64) % words
        op = 1 if uniform() * 100.0 < write_pct else 0
        pack(buf, offset, tick, op, address, bits(64))
        offset += _RECORD.size
    return bytes(buf)
