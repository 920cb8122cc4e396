#include "pim/dot_gemm.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PIMINE_GEMM_X86 1
#endif

namespace pimine {
namespace {

// A block of kObjectBlock data rows stays cache-resident while every query
// tile passes over it. A multiple of 4, so only the last block has rows
// left over by the 4-row tiles.
constexpr size_t kObjectBlock = 64;

// Portable tile: one data row at a time against kTile queries, each loaded
// data value feeding kTile independent accumulator chains.
template <size_t kTile>
void ScalarTile(const int32_t* data, size_t s, size_t v0, size_t v1, size_t n,
                const int32_t* qbase, size_t q, uint64_t* out) {
  for (size_t v = v0; v < v1; ++v) {
    const int32_t* row = data + v * s;
    uint64_t acc[kTile] = {};
    for (size_t j = 0; j < s; ++j) {
      const uint64_t d = static_cast<uint32_t>(row[j]);
      for (size_t t = 0; t < kTile; ++t) {
        acc[t] += d * static_cast<uint32_t>(qbase[t * s + j]);
      }
    }
    for (size_t t = 0; t < kTile; ++t) {
      out[(q + t) * n + v] = acc[t];
    }
  }
}

// Queries [q, num_queries) against rows [v0, v1) on the scalar tiles.
void ScalarTiles(const int32_t* data, size_t s, size_t v0, size_t v1,
                 size_t n, const int32_t* queries, size_t q,
                 size_t num_queries, uint64_t* out) {
  for (; q + 8 <= num_queries; q += 8) {
    ScalarTile<8>(data, s, v0, v1, n, queries + q * s, q, out);
  }
  for (; q + 4 <= num_queries; q += 4) {
    ScalarTile<4>(data, s, v0, v1, n, queries + q * s, q, out);
  }
  for (; q + 2 <= num_queries; q += 2) {
    ScalarTile<2>(data, s, v0, v1, n, queries + q * s, q, out);
  }
  for (; q < num_queries; ++q) {
    ScalarTile<1>(data, s, v0, v1, n, queries + q * s, q, out);
  }
}

void GemmScalar(const int32_t* data, size_t n, size_t s,
                const int32_t* queries, size_t num_queries, uint64_t* out) {
  for (size_t vb = 0; vb < n; vb += kObjectBlock) {
    ScalarTiles(data, s, vb, std::min(n, vb + kObjectBlock), n, queries, 0,
                num_queries, out);
  }
}

// `tier`, or AVX2 where `tier` is AVX-512 and a product of operands up to
// these maxima could reach 2^52: the IFMA kernels add only a product's low
// 52 bits.
GemmTier ExactTier(GemmTier tier, uint32_t data_max, uint32_t query_max) {
  const bool ifma_exact = uint64_t{data_max} * query_max < (uint64_t{1} << 52);
  return tier == GemmTier::kAvx512 && !ifma_exact ? GemmTier::kAvx2 : tier;
}

#if defined(PIMINE_GEMM_X86)

// The SIMD tiers read queries from one packed buffer of num_queries * s
// u64 lanes, each value zero-extended. The tile of width W starting at
// query q occupies packed[q * s, (q + W) * s) lane-transposed, as
// packed[q * s + j * W + t] = query (q + t), dimension j; a tile of width
// 1 is just the query itself.
void PackTile(const int32_t* queries, size_t s, size_t q, size_t width,
              uint64_t* packed) {
  uint64_t* tile = packed + q * s;
  for (size_t j = 0; j < s; ++j) {
    for (size_t t = 0; t < width; ++t) {
      tile[j * width + t] = static_cast<uint32_t>(queries[(q + t) * s + j]);
    }
  }
}

// Writes a 4-row x W-query block of sums, held row-major in acc, to the
// query-major output.
template <size_t kWidth>
void StoreBlock(const uint64_t (*acc)[kWidth], size_t v, size_t n, size_t q,
                uint64_t* out) {
  for (size_t t = 0; t < kWidth; ++t) {
    uint64_t* dst = out + (q + t) * n + v;
    dst[0] = acc[0][t];
    dst[1] = acc[1][t];
    dst[2] = acc[2][t];
    dst[3] = acc[3][t];
  }
}

// Every SIMD kernel runs queries [q, q + width) of the packed buffer
// (qpk points at the first one's tile) against data rows [v0, v1).
using Kernel = void (*)(const int32_t* data, size_t s, size_t v0, size_t v1,
                        size_t n, const uint64_t* qpk, size_t q,
                        uint64_t* out);

// 4 data rows x 8 queries in AVX2: each step loads the 8 query lanes once
// (two registers) and broadcasts each row's value as a 32-bit lane —
// vpmuludq multiplies the low 32 bits of each 64-bit lane into the full
// 64-bit product, so no zero-extension is needed, and vpaddq wraps mod
// 2^64. Eight accumulators, two query registers and the broadcasts fit
// the 16 ymm registers. Rows [v0, v1) must be a multiple of 4.
__attribute__((target("avx2"))) void Avx2Tile4x8(const int32_t* data,
                                                 size_t s, size_t v0,
                                                 size_t v1, size_t n,
                                                 const uint64_t* qpk,
                                                 size_t q, uint64_t* out) {
  for (size_t v = v0; v < v1; v += 4) {
    const int32_t* r0 = data + v * s;
    const int32_t* r1 = r0 + s;
    const int32_t* r2 = r1 + s;
    const int32_t* r3 = r2 + s;
    __m256i a00 = _mm256_setzero_si256(), a01 = _mm256_setzero_si256();
    __m256i a10 = _mm256_setzero_si256(), a11 = _mm256_setzero_si256();
    __m256i a20 = _mm256_setzero_si256(), a21 = _mm256_setzero_si256();
    __m256i a30 = _mm256_setzero_si256(), a31 = _mm256_setzero_si256();
    for (size_t j = 0; j < s; ++j) {
      const __m256i* qj = reinterpret_cast<const __m256i*>(qpk + j * 8);
      const __m256i q0 = _mm256_loadu_si256(qj + 0);
      const __m256i q1 = _mm256_loadu_si256(qj + 1);
      const __m256i d0 = _mm256_set1_epi32(r0[j]);
      a00 = _mm256_add_epi64(a00, _mm256_mul_epu32(d0, q0));
      a01 = _mm256_add_epi64(a01, _mm256_mul_epu32(d0, q1));
      const __m256i d1 = _mm256_set1_epi32(r1[j]);
      a10 = _mm256_add_epi64(a10, _mm256_mul_epu32(d1, q0));
      a11 = _mm256_add_epi64(a11, _mm256_mul_epu32(d1, q1));
      const __m256i d2 = _mm256_set1_epi32(r2[j]);
      a20 = _mm256_add_epi64(a20, _mm256_mul_epu32(d2, q0));
      a21 = _mm256_add_epi64(a21, _mm256_mul_epu32(d2, q1));
      const __m256i d3 = _mm256_set1_epi32(r3[j]);
      a30 = _mm256_add_epi64(a30, _mm256_mul_epu32(d3, q0));
      a31 = _mm256_add_epi64(a31, _mm256_mul_epu32(d3, q1));
    }
    uint64_t acc[4][8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[0]), a00);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[0] + 4), a01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[1]), a10);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[1] + 4), a11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[2]), a20);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[2] + 4), a21);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[3]), a30);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[3] + 4), a31);
    StoreBlock(acc, v, n, q, out);
  }
}

// kQ < 8 queries (width-1 tiles) in one pass over rows [v0, v1), SIMD
// along the dimension: four data values are zero-extended into u64 lanes
// once per step and multiplied against every query's matching lanes.
template <size_t kQ>
__attribute__((target("avx2"))) void Avx2AlongS(const int32_t* data,
                                                size_t s, size_t v0,
                                                size_t v1, size_t n,
                                                const uint64_t* qz, size_t q,
                                                uint64_t* out) {
  const size_t s4 = s / 4 * 4;
  for (size_t v = v0; v < v1; ++v) {
    const int32_t* row = data + v * s;
    __m256i acc[kQ];
#pragma GCC unroll 8
    for (size_t t = 0; t < kQ; ++t) acc[t] = _mm256_setzero_si256();
    for (size_t j = 0; j < s4; j += 4) {
      const __m256i d = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j)));
#pragma GCC unroll 8
      for (size_t t = 0; t < kQ; ++t) {
        const __m256i qv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(qz + t * s + j));
        acc[t] = _mm256_add_epi64(acc[t], _mm256_mul_epu32(d, qv));
      }
    }
    for (size_t t = 0; t < kQ; ++t) {
      uint64_t lanes[4];
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc[t]);
      uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
      for (size_t j = s4; j < s; ++j) {
        sum += static_cast<uint64_t>(static_cast<uint32_t>(row[j])) *
               qz[t * s + j];
      }
      out[(q + t) * n + v] = sum;
    }
  }
}

#if !defined(__clang__)
// GCC 12's avx512fintrin.h implements several intrinsics used below
// (_mm512_cvtepu32_epi64, _mm512_unpack*_epi64, _mm512_shuffle_i64x2, ...)
// with an _mm512_undefined_epi32() passthrough operand, which
// -W(maybe-)uninitialized misreports as a read of uninitialized memory
// (and -Werror turns into a build failure). The operand is never read;
// silence the warnings for the AVX-512 kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

// The AVX-512 tier's kernels use vpmadd52luq (AVX-512 IFMA): it multiplies
// the low 52 bits of two u64 lanes and adds the low 52 bits of the product
// to a third lane mod 2^64. On zero-extended operands whose products stay
// below 2^52 that is exactly `acc += data * query`, in one instruction
// where vpmuludq + vpaddq take two. DotProductGemm runs this tier only
// when the caller's operand maxima guarantee it (ExactTier).

// Dimensions per pass of a tile: 128 dimensions of a packed 16-query tile
// are 16 KB, which stay in L1 while every 4-row tile of the object block
// passes over them.
constexpr size_t kDimBlock = 128;

// Zero-extends `len` <= kDimBlock values of `src` into u64 lanes of
// `wide`, eight per step.
__attribute__((target("avx512f"))) void Widen(const int32_t* src, size_t len,
                                              uint64_t* wide) {
  for (size_t j = 0; j < len; j += 8) {
    const __mmask16 mask = static_cast<__mmask16>(
        len - j >= 8 ? 0xFF : (1u << (len - j)) - 1);
    _mm512_storeu_si512(wide + j,
                        _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
                            _mm512_maskz_loadu_epi32(mask, src + j))));
  }
}

// One dimension of a 4-row tile: the kRegs query registers at qj against
// each row's value at `j` of `wide`, broadcast from memory.
template <size_t kRegs>
__attribute__((target("avx512f,avx512ifma"), always_inline)) inline void
IfmaTileStep(__m512i (&acc)[4][kRegs], const uint64_t (*wide)[kDimBlock],
             size_t j, const uint64_t* qj) {
  __m512i qv[kRegs];
#pragma GCC unroll 2
  for (size_t k = 0; k < kRegs; ++k) qv[k] = _mm512_loadu_si512(qj + 8 * k);
#pragma GCC unroll 4
  for (size_t r = 0; r < 4; ++r) {
    const __m512i d = _mm512_set1_epi64(static_cast<long long>(wide[r][j]));
#pragma GCC unroll 2
    for (size_t k = 0; k < kRegs; ++k) {
      acc[r][k] = _mm512_madd52lo_epu64(acc[r][k], d, qv[k]);
    }
  }
}

// 4 data rows x kWidth queries (16 or 8; one zmm register per 8 queries).
// For each block of kDimBlock dimensions the tile's rows are zero-extended
// into `wide` once (IFMA reads 52 bits of a lane, so a broadcast needs a
// zero upper dword), then each step loads the query lanes once and
// broadcasts each row's value from memory. Two sets of accumulators take
// alternate dimensions, so that even the 8-query tile keeps eight IFMA
// chains in flight (IFMA's latency is 4 cycles). Sums carry from one
// dimension block to the next through `sums`. Rows [v0, v1) must be a
// multiple of 4 and lie in one object block.
template <size_t kWidth>
__attribute__((target("avx512f,avx512ifma"))) void IfmaTile(
    const int32_t* data, size_t s, size_t v0, size_t v1, size_t n,
    const uint64_t* qpk, size_t q, uint64_t* out) {
  constexpr size_t kRegs = kWidth / 8;
  constexpr size_t kChains = 2;
  uint64_t sums[kObjectBlock][kWidth];
  uint64_t wide[4][kDimBlock];
  for (size_t j0 = 0; j0 < s; j0 += kDimBlock) {
    const size_t len = std::min(kDimBlock, s - j0);
    for (size_t v = v0; v < v1; v += 4) {
      uint64_t(*tile)[kWidth] = sums + (v - v0);
#pragma GCC unroll 4
      for (size_t r = 0; r < 4; ++r) {
        Widen(data + (v + r) * s + j0, len, wide[r]);
      }
      __m512i acc[kChains][4][kRegs];
#pragma GCC unroll 2
      for (size_t c = 0; c < kChains; ++c) {
#pragma GCC unroll 4
        for (size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 2
          for (size_t k = 0; k < kRegs; ++k) {
            acc[c][r][k] = c > 0 || j0 == 0
                               ? _mm512_setzero_si512()
                               : _mm512_loadu_si512(tile[r] + 8 * k);
          }
        }
      }
      const uint64_t* qj = qpk + j0 * kWidth;
      size_t j = 0;
      for (; j + kChains <= len; j += kChains) {
#pragma GCC unroll 2
        for (size_t c = 0; c < kChains; ++c) {
          IfmaTileStep(acc[c], wide, j + c, qj + (j + c) * kWidth);
        }
      }
      for (; j < len; ++j) IfmaTileStep(acc[0], wide, j, qj + j * kWidth);
#pragma GCC unroll 4
      for (size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 2
        for (size_t k = 0; k < kRegs; ++k) {
          __m512i sum = acc[0][r][k];
#pragma GCC unroll 2
          for (size_t c = 1; c < kChains; ++c) {
            sum = _mm512_add_epi64(sum, acc[c][r][k]);
          }
          _mm512_storeu_si512(tile[r] + 8 * k, sum);
        }
      }
      if (j0 + len == s) StoreBlock(tile, v, n, q, out);
    }
  }
}

// The lane sums of a0..a3, in order, as one 256-bit vector.
__attribute__((target("avx512f"))) inline __m256i SumLanes4(__m512i a0,
                                                            __m512i a1,
                                                            __m512i a2,
                                                            __m512i a3) {
  // Each 128-bit lane of s01 holds [a0's pair sum, a1's pair sum].
  const __m512i s01 = _mm512_add_epi64(_mm512_unpacklo_epi64(a0, a1),
                                       _mm512_unpackhi_epi64(a0, a1));
  const __m512i s23 = _mm512_add_epi64(_mm512_unpacklo_epi64(a2, a3),
                                       _mm512_unpackhi_epi64(a2, a3));
  // 128-bit lanes [a0 a1 (lanes 0-3), a0 a1 (4-7), a2 a3 (0-3), a2 a3 (4-7)].
  const __m512i x =
      _mm512_add_epi64(_mm512_shuffle_i64x2(s01, s23, _MM_SHUFFLE(2, 0, 2, 0)),
                       _mm512_shuffle_i64x2(s01, s23, _MM_SHUFFLE(3, 1, 3, 1)));
  const __m512i y =
      _mm512_add_epi64(_mm512_shuffle_i64x2(x, x, _MM_SHUFFLE(0, 0, 2, 0)),
                       _mm512_shuffle_i64x2(x, x, _MM_SHUFFLE(0, 0, 3, 1)));
  return _mm512_castsi512_si256(y);
}

// kRows data rows (4, or 1 for the rows a 4-row step leaves) against kQ
// width-1 query tiles, SIMD along the dimension: a step zero-extends eight
// values of each row once and multiplies them into every query's matching
// lanes; a masked step takes the last s mod 8 dimensions. Four rows give
// even a one-query batch four independent accumulator chains, which IFMA's
// 4-cycle latency needs. Query t's sums go to dst[t * n + r].
template <size_t kRows, size_t kQ>
__attribute__((target("avx512f,avx512ifma"))) void IfmaAlongSRows(
    const int32_t* row, size_t s, const uint64_t* qz, size_t n,
    uint64_t* dst) {
  static_assert(kRows == 1 || kRows == 4);
  __m512i acc[kRows][kQ];
#pragma GCC unroll 4
  for (size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (size_t t = 0; t < kQ; ++t) acc[r][t] = _mm512_setzero_si512();
  }
  const size_t s8 = s / 8 * 8;
  for (size_t j = 0; j < s8; j += 8) {
    __m512i d[kRows];
#pragma GCC unroll 4
    for (size_t r = 0; r < kRows; ++r) {
      d[r] = _mm512_cvtepu32_epi64(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + r * s + j)));
    }
#pragma GCC unroll 8
    for (size_t t = 0; t < kQ; ++t) {
      const __m512i qv = _mm512_loadu_si512(qz + t * s + j);
#pragma GCC unroll 4
      for (size_t r = 0; r < kRows; ++r) {
        acc[r][t] = _mm512_madd52lo_epu64(acc[r][t], d[r], qv);
      }
    }
  }
  if (s8 < s) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (s - s8)) - 1);
    __m512i d[kRows];
#pragma GCC unroll 4
    for (size_t r = 0; r < kRows; ++r) {
      d[r] = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
          _mm512_maskz_loadu_epi32(tail, row + r * s + s8)));
    }
#pragma GCC unroll 8
    for (size_t t = 0; t < kQ; ++t) {
      const __m512i qv = _mm512_maskz_loadu_epi64(tail, qz + t * s + s8);
#pragma GCC unroll 4
      for (size_t r = 0; r < kRows; ++r) {
        acc[r][t] = _mm512_madd52lo_epu64(acc[r][t], d[r], qv);
      }
    }
  }
#pragma GCC unroll 8
  for (size_t t = 0; t < kQ; ++t) {
    if constexpr (kRows == 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + t * n),
          SumLanes4(acc[0][t], acc[1][t], acc[2][t], acc[3][t]));
    } else {
      const __m512i zero = _mm512_setzero_si512();
      dst[t * n] = static_cast<uint64_t>(_mm_cvtsi128_si64(
          _mm256_castsi256_si128(SumLanes4(acc[0][t], zero, zero, zero))));
    }
  }
}

// kQ < 8 queries in one pass over rows [v0, v1).
template <size_t kQ>
__attribute__((target("avx512f,avx512ifma"))) void IfmaAlongS(
    const int32_t* data, size_t s, size_t v0, size_t v1, size_t n,
    const uint64_t* qz, size_t q, uint64_t* out) {
  size_t v = v0;
  for (; v + 4 <= v1; v += 4) {
    IfmaAlongSRows<4, kQ>(data + v * s, s, qz, n, out + q * n + v);
  }
  for (; v < v1; ++v) {
    IfmaAlongSRows<1, kQ>(data + v * s, s, qz, n, out + q * n + v);
  }
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// One SIMD tier: its 16- and 8-query tiles (tile16 is null where the tier
// has none) and the one-pass kernel for each remainder of 1-7 queries.
struct SimdKernels {
  Kernel tile16;
  Kernel tile8;
  Kernel remainder[8];
};

constexpr SimdKernels kAvx2Kernels = {
    nullptr,
    &Avx2Tile4x8,
    {nullptr, &Avx2AlongS<1>, &Avx2AlongS<2>, &Avx2AlongS<3>, &Avx2AlongS<4>,
     &Avx2AlongS<5>, &Avx2AlongS<6>, &Avx2AlongS<7>}};

constexpr SimdKernels kIfmaKernels = {
    &IfmaTile<16>,
    &IfmaTile<8>,
    {nullptr, &IfmaAlongS<1>, &IfmaAlongS<2>, &IfmaAlongS<3>, &IfmaAlongS<4>,
     &IfmaAlongS<5>, &IfmaAlongS<6>, &IfmaAlongS<7>}};

// The AVX2 and AVX-512 tiers. Full groups of 16 queries go to tile16,
// then a remainder of 8-15 to one tile8, then the last 1-7 queries to one
// pass along s, so every query group makes one pass over the rows. Tiled
// queries meet the last block's up-to-3 rows left over by the 4-row tiles
// on the scalar tile.
void GemmSimd(const SimdKernels& kernels, const int32_t* data, size_t n,
              size_t s, const int32_t* queries, size_t num_queries,
              uint64_t* out) {
  const size_t tiled16 =
      kernels.tile16 != nullptr ? num_queries / 16 * 16 : 0;
  const size_t tiled = tiled16 + (num_queries - tiled16) / 8 * 8;
  std::vector<uint64_t> packed(num_queries * s);
  for (size_t q = 0; q < tiled16; q += 16) {
    PackTile(queries, s, q, 16, packed.data());
  }
  for (size_t q = tiled16; q < tiled; q += 8) {
    PackTile(queries, s, q, 8, packed.data());
  }
  for (size_t q = tiled; q < num_queries; ++q) {
    PackTile(queries, s, q, 1, packed.data());
  }
  const uint64_t* qpk = packed.data();
  const Kernel remainder = kernels.remainder[num_queries - tiled];

  for (size_t vb = 0; vb < n; vb += kObjectBlock) {
    const size_t vend = std::min(n, vb + kObjectBlock);
    const size_t vend4 = vb + (vend - vb) / 4 * 4;
    for (size_t q = 0; q < tiled16; q += 16) {
      kernels.tile16(data, s, vb, vend4, n, qpk + q * s, q, out);
    }
    for (size_t q = tiled16; q < tiled; q += 8) {
      kernels.tile8(data, s, vb, vend4, n, qpk + q * s, q, out);
    }
    ScalarTiles(data, s, vend4, vend, n, queries, 0, tiled, out);
    if (remainder != nullptr) {
      remainder(data, s, vb, vend, n, qpk + tiled * s, tiled, out);
    }
  }
}

#endif  // PIMINE_GEMM_X86

}  // namespace

std::string_view GemmTierName(GemmTier tier) {
  switch (tier) {
    case GemmTier::kScalar:
      return "scalar";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool GemmTierSupported(GemmTier tier) {
  switch (tier) {
    case GemmTier::kScalar:
      return true;
#if defined(PIMINE_GEMM_X86)
    case GemmTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case GemmTier::kAvx512:
      // A batch whose products could reach 2^52 runs on AVX2 instead.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512ifma") != 0 &&
             __builtin_cpu_supports("avx2") != 0;
#else
    case GemmTier::kAvx2:
    case GemmTier::kAvx512:
      return false;
#endif
  }
  return false;
}

GemmTier BestGemmTier() {
  static const GemmTier best = [] {
    for (GemmTier tier : {GemmTier::kAvx512, GemmTier::kAvx2}) {
      if (GemmTierSupported(tier)) return tier;
    }
    return GemmTier::kScalar;
  }();
  return best;
}

GemmTier GemmTierFor(uint32_t data_max, uint32_t query_max) {
  return ExactTier(BestGemmTier(), data_max, query_max);
}

GemmTier DotProductGemm(const int32_t* data, size_t n, size_t s,
                        uint32_t data_max, const int32_t* queries,
                        size_t num_queries, uint32_t query_max,
                        uint64_t* out) {
  return DotProductGemm(BestGemmTier(), data, n, s, data_max, queries,
                        num_queries, query_max, out);
}

GemmTier DotProductGemm(GemmTier tier, const int32_t* data, size_t n,
                        size_t s, uint32_t data_max, const int32_t* queries,
                        size_t num_queries, uint32_t query_max,
                        uint64_t* out) {
  PIMINE_DCHECK(GemmTierSupported(tier)) << GemmTierName(tier);
  tier = ExactTier(tier, data_max, query_max);
  switch (tier) {
#if defined(PIMINE_GEMM_X86)
    case GemmTier::kAvx512:
      GemmSimd(kIfmaKernels, data, n, s, queries, num_queries, out);
      return tier;
    case GemmTier::kAvx2:
      GemmSimd(kAvx2Kernels, data, n, s, queries, num_queries, out);
      return tier;
#else
    case GemmTier::kAvx512:
    case GemmTier::kAvx2:
#endif
    case GemmTier::kScalar:
      GemmScalar(data, n, s, queries, num_queries, out);
      return GemmTier::kScalar;
  }
  return tier;
}

}  // namespace pimine
