#include "pim/dot_gemm.h"

#include <algorithm>
#include <memory>
#include <vector>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

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
// silence the warnings for the AVX-512 and AMX kernels only.
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

// The AMX tier is the paper's bit-sliced crossbar (Fig. 2) with 8-bit
// slices. tdpbuud adds four products of unsigned bytes into each int32 lane
// of a C tile:
//
//   C[m][c] += sum_k sum_{i<4} A[m][4k + i] * B[k][4c + i].
//
// A little-endian int32 holds its four 8-bit slices in its four bytes, so an
// A tile is 16 programmed rows x 16 dimensions loaded where the rows already
// are. Column c of a B tile belongs to (query p, weight w) and holds, at
// byte i, the query's slice w - i (zero outside its slices). Lane C[m][c]
// then sums every slice pair of weight 2^(8w) over the tile's dimensions,
// and the combine step adds uint64(C) << 8w mod 2^64: the crossbar's
// shift-and-add. An operand below 2^24 has 3 slices, else 4, so a query
// takes 5 columns when both operand maxima are below 2^24 (3 queries per
// tile) and 6 or 7 otherwise (2 queries per tile).

// Data rows per A tile and dimensions per tile row (64 bytes).
constexpr size_t kAmxRows = 16;
constexpr size_t kAmxDims = 16;
// One weight's lane adds at most 4 byte pairs per dimension, each below
// 255^2, so the int32 sums are combined at least every 8,192 dimensions:
// 4 * 255^2 * 8,192 < 2^31.
constexpr size_t kAmxFlushChunks = 8192 / kAmxDims;
// A narrower batch whose products IFMA adds exactly runs on IFMA. AMX
// takes as long for 1 or 2 queries as for a full tile of 3: at 512 x 420
// one tile took 38 us, where IFMA ran 1 and 2 queries in 25 and 35 us
// (BM_GemmTier).
constexpr size_t kAmxMinQueries = 3;
// Tile registers: tmm0 holds an A tile, tmm1 a B tile and tmm2-tmm7 up to
// six C tiles. A row of s >= 16 dimensions ends in a K tail of s mod 16:
// its chunk re-reads the row's last 16 dimensions, and the B rows of those
// already counted are zero, so no tile load reads past a row. A row of
// s < 16 is one chunk, and the A and B tiles take the shape of s
// dimensions.
constexpr size_t kAmxMaxCTiles = 6;
// A pass packs as many query tiles as fit in this many bytes (at least
// one) and runs them over the rows; wider batches take more passes. The
// bound keeps the pack below glibc's default mmap threshold (128 KiB): a
// larger one is mmapped, and freeing it raises the threshold, after which
// each thread's arena keeps such buffers.
constexpr size_t kAmxPackBytes = 112 * 1024;
// With more than one pass, the passes take the rows in blocks of about
// this many bytes, so that the second pass reads them from L2 rather than
// from memory; each block packs every pass again.
constexpr size_t kAmxRowBlockBytes = 1024 * 1024;

// A B tile: 16 rows of 16 words.
constexpr size_t kAmxTileWords = 256;

// The tile configuration ldtilecfg reads (palette 1).
struct alignas(64) AmxConfig {
  uint8_t palette = 1;
  uint8_t start_row = 0;
  uint8_t reserved[14] = {};
  uint16_t colsb[16] = {};
  uint8_t rows[16] = {};
};

size_t Slices(uint32_t max) { return max < (1u << 24) ? 3 : 4; }

// Packs the queries into 64-byte aligned B tiles, chunk-major: the tile
// of queries [t * per_tile, (t + 1) * per_tile) in chunk c starts at word
// (c * tiles + t) * 256. Each B row is one dimension; lane p * weights + w
// holds query p's slices in reverse byte order, shifted so that byte i
// holds slice w - i.
__attribute__((target("avx512f,avx512bw"))) void AmxPackQueries(
    const int32_t* queries, size_t s, size_t num_queries, size_t weights,
    size_t per_tile, size_t tiles, uint32_t* rows) {
  alignas(64) uint32_t pick[16], right[16], left[16];
  __mmask16 third = 0;
  for (uint32_t c = 0; c < 16; ++c) {
    const uint32_t p = c / weights, w = c % weights;
    const bool used = p < per_tile;
    // Query 0 or 1 comes from the pair (x[0], x[1]), query 2 from x[2].
    pick[c] = 16 * (p & 1);
    if (used && p == 2) third = static_cast<__mmask16>(third | (1u << c));
    // A shift by 32 clears a lane: word = (r >> right) | (r << left).
    right[c] = used && w <= 3 ? 8 * (3 - w) : 32;
    left[c] = used && w >= 3 ? 8 * (w - 3) : 32;
  }
  const __m512i reverse = _mm512_broadcast_i32x4(
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
  const __m512i right_v = _mm512_load_si512(right);
  const __m512i left_v = _mm512_load_si512(left);
  const __m512i one = _mm512_set1_epi32(1);
  const size_t full = s / kAmxDims;
  const size_t chunks = (s + kAmxDims - 1) / kAmxDims;
  for (size_t c = 0; c < chunks; ++c) {
    // Chunk c's B rows are dimensions [j0, j0 + len), those in `dims`.
    size_t j0 = c * kAmxDims, len = kAmxDims;
    __mmask16 dims = 0xFFFF;
    if (c == full && s >= kAmxDims) {
      j0 = s - kAmxDims;
      dims = static_cast<__mmask16>(0xFFFFu << (kAmxDims - s % kAmxDims));
    } else if (c == full) {
      len = s;
      dims = static_cast<__mmask16>((1u << s) - 1);
    }
    for (size_t t = 0; t < tiles; ++t) {
      const size_t q0 = t * per_tile;
      const size_t count = std::min(per_tile, num_queries - q0);
      __m512i x[3] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512()};
      for (size_t p = 0; p < count; ++p) {
        x[p] = _mm512_shuffle_epi8(
            _mm512_maskz_loadu_epi32(dims, queries + (q0 + p) * s + j0),
            reverse);
      }
      uint32_t* tile = rows + (c * tiles + t) * kAmxTileWords;
      __m512i idx = _mm512_load_si512(pick);
      for (size_t k = 0; k < len; ++k) {
        __m512i r = _mm512_permutex2var_epi32(x[0], idx, x[1]);
        r = _mm512_mask_permutexvar_epi32(r, third, idx, x[2]);
        _mm512_store_si512(tile + 16 * k,
                           _mm512_or_si512(_mm512_srlv_epi32(r, right_v),
                                           _mm512_sllv_epi32(r, left_v)));
        idx = _mm512_add_epi32(idx, one);
      }
    }
  }
}

// Transposes 16 x 16 32-bit values held one row per register.
__attribute__((target("avx512f"))) inline void Transpose16(__m512i (&r)[16]) {
  __m512i t[16];
  for (size_t i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  for (size_t i = 0; i < 16; i += 4) {
    r[i] = _mm512_unpacklo_epi64(t[i], t[i + 2]);
    r[i + 1] = _mm512_unpackhi_epi64(t[i], t[i + 2]);
    r[i + 2] = _mm512_unpacklo_epi64(t[i + 1], t[i + 3]);
    r[i + 3] = _mm512_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  for (size_t i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0x88);
    t[i + 4] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0xdd);
    t[i + 8] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0x88);
    t[i + 12] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0xdd);
  }
  for (size_t i = 0; i < 8; ++i) {
    r[i] = _mm512_shuffle_i32x4(t[i], t[i + 8], 0x88);
    r[i + 8] = _mm512_shuffle_i32x4(t[i], t[i + 8], 0xdd);
  }
}

// The shift-and-add: query p's sums over the 16 rows of one C tile are
// sum_w uint64(c[m][p * weights + w]) << 8w. They are written to out for
// rows [v, v + 16), or added there after a flush.
__attribute__((target("avx512f"))) void AmxCombine(
    const int32_t (*c)[16], size_t weights, size_t count, size_t v, size_t n,
    size_t q, bool add, uint64_t* out) {
  __m512i col[16];
  for (size_t m = 0; m < 16; ++m) col[m] = _mm512_load_si512(c[m]);
  Transpose16(col);
  for (size_t p = 0; p < count; ++p) {
    __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
    for (size_t w = 0; w < weights; ++w) {
      const __m512i x = col[p * weights + w];
      const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * w));
      lo = _mm512_add_epi64(
          lo, _mm512_sll_epi64(
                  _mm512_cvtepu32_epi64(_mm512_castsi512_si256(x)), shift));
      hi = _mm512_add_epi64(
          hi, _mm512_sll_epi64(
                  _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(x, 1)),
                  shift));
    }
    uint64_t* dst = out + (q + p) * n + v;
    if (add) {
      lo = _mm512_add_epi64(lo, _mm512_loadu_si512(dst));
      hi = _mm512_add_epi64(hi, _mm512_loadu_si512(dst + 8));
    }
    _mm512_storeu_si512(dst, lo);
    _mm512_storeu_si512(dst + 8, hi);
  }
}

// The intrinsics name tile registers by literal, so C tile t (tmm2 + t) is
// reached through a switch that each unrolled loop folds.
#define PIMINE_AMX_ON_C(t, op) \
  switch (t) {                 \
    case 0:                    \
      op(2);                   \
      break;                   \
    case 1:                    \
      op(3);                   \
      break;                   \
    case 2:                    \
      op(4);                   \
      break;                   \
    case 3:                    \
      op(5);                   \
      break;                   \
    case 4:                    \
      op(6);                   \
      break;                   \
    default:                   \
      op(7);                   \
      break;                   \
  }
#define PIMINE_AMX_ZERO(reg) _tile_zero(reg)
#define PIMINE_AMX_DP(reg) _tile_dpbuud(reg, 0, 1)
#define PIMINE_AMX_STORE(reg) _tile_stored(reg, sums[t], 64)

// One pass: `tiles` packed B tiles per chunk holding queries [q0, q0 +
// num_queries), `per_tile` to a tile, `weights` columns each.
struct AmxPass {
  const uint32_t* bpk;
  size_t tiles;
  size_t weights;
  size_t per_tile;
  size_t q0;
  size_t num_queries;
};

// kTiles C tiles (the pass's B tiles [t0, t0 + kTiles) of each chunk)
// against the 16 rows at `row`, whose sums go to rows [v, v + 16) of out.
template <size_t kTiles>
__attribute__((target("amx-tile,amx-int8,avx512f"))) void AmxRowBlock(
    const int32_t* row, size_t s, const AmxPass& pass, size_t t0, size_t v,
    size_t n, uint64_t* out) {
  const size_t stride = s * sizeof(int32_t);
  const size_t full = s / kAmxDims;
  const size_t chunks = (s + kAmxDims - 1) / kAmxDims;
  const size_t tail = s >= kAmxDims ? s - kAmxDims : 0;
  alignas(64) int32_t sums[kTiles][16][16];
  for (size_t c0 = 0; c0 < chunks; c0 += kAmxFlushChunks) {
    const size_t c1 = std::min(chunks, c0 + kAmxFlushChunks);
#pragma GCC unroll 6
    for (size_t t = 0; t < kTiles; ++t) PIMINE_AMX_ON_C(t, PIMINE_AMX_ZERO)
    for (size_t c = c0; c < c1; ++c) {
      _tile_loadd(0, row + (c < full ? c * kAmxDims : tail), stride);
      const uint32_t* b = pass.bpk + (c * pass.tiles + t0) * kAmxTileWords;
#pragma GCC unroll 6
      for (size_t t = 0; t < kTiles; ++t) {
        _tile_loadd(1, b + t * kAmxTileWords, 64);
        PIMINE_AMX_ON_C(t, PIMINE_AMX_DP)
      }
    }
#pragma GCC unroll 6
    for (size_t t = 0; t < kTiles; ++t) PIMINE_AMX_ON_C(t, PIMINE_AMX_STORE)
    for (size_t t = 0; t < kTiles; ++t) {
      const size_t q = (t0 + t) * pass.per_tile;
      AmxCombine(sums[t], pass.weights,
                 std::min(pass.per_tile, pass.num_queries - q), v, n,
                 pass.q0 + q, c0 > 0, out);
    }
  }
}

#undef PIMINE_AMX_STORE
#undef PIMINE_AMX_DP
#undef PIMINE_AMX_ZERO
#undef PIMINE_AMX_ON_C

// AmxRowBlock<t + 1> for t + 1 C tiles.
constexpr decltype(&AmxRowBlock<1>) kAmxRowBlocks[kAmxMaxCTiles] = {
    &AmxRowBlock<1>, &AmxRowBlock<2>, &AmxRowBlock<3>,
    &AmxRowBlock<4>, &AmxRowBlock<5>, &AmxRowBlock<6>};

// The AMX tier over rows [0, n / 16 * 16); the caller runs the rest.
__attribute__((target("amx-tile,amx-int8,avx512f"))) void GemmAmx(
    const int32_t* data, size_t n, size_t s, uint32_t data_max,
    const int32_t* queries, size_t num_queries, uint32_t query_max,
    uint64_t* out) {
  const size_t weights = Slices(data_max) + Slices(query_max) - 1;
  const size_t per_tile = 16 / weights;
  const size_t tiles = (num_queries + per_tile - 1) / per_tile;
  const size_t chunks = (s + kAmxDims - 1) / kAmxDims;
  const size_t tile_bytes = chunks * kAmxTileWords * sizeof(uint32_t);
  const size_t pass_tiles =
      std::clamp<size_t>(kAmxPackBytes / tile_bytes, 1, tiles);
  // Aligned by hand: 64-byte aligned allocations fragmented glibc's
  // thread arenas (pimbench serve-mixed's peak RSS read 35.9-37.1 MB
  // against 31.8). The pack writes every word a tile load reads.
  const auto storage = std::make_unique_for_overwrite<uint32_t[]>(
      chunks * pass_tiles * kAmxTileWords + 15);
  uint32_t* const packed =
      storage.get() +
      (-reinterpret_cast<uintptr_t>(storage.get()) / sizeof(uint32_t) % 16);

  // tmm0 is an A tile of k dimensions, tmm1 a B tile of k rows.
  AmxConfig config;
  const size_t k = std::min(s, kAmxDims);
  for (size_t reg = 0; reg < 8; ++reg) {
    config.colsb[reg] = static_cast<uint16_t>(reg == 0 ? 4 * k : 64);
    config.rows[reg] = static_cast<uint8_t>(reg == 1 ? k : 16);
  }
  // ldtilecfg reads all 64 bytes; the "m" operand says so (the intrinsic's
  // operand covers only the first eight).
  __asm__ volatile("ldtilecfg %0" : : "m"(config));
  const size_t rows = n / kAmxRows * kAmxRows;
  const size_t block_rows =
      pass_tiles == tiles
          ? rows
          : std::max(kAmxRows, kAmxRowBlockBytes / (s * sizeof(int32_t)) /
                                   kAmxRows * kAmxRows);
  for (size_t v0 = 0; v0 < rows; v0 += block_rows) {
    for (size_t g = 0; g < tiles; g += pass_tiles) {
      const size_t g_tiles = std::min(pass_tiles, tiles - g);
      const size_t q0 = g * per_tile;
      const AmxPass pass = {packed, g_tiles, weights, per_tile, q0,
                            std::min(num_queries - q0, g_tiles * per_tile)};
      AmxPackQueries(queries + pass.q0 * s, s, pass.num_queries, weights,
                     per_tile, pass.tiles, packed);
      // The tile loads read `packed` through asm that names no memory.
      __asm__ volatile("" : : : "memory");
      for (size_t v = v0; v < std::min(rows, v0 + block_rows);
           v += kAmxRows) {
        const int32_t* row = data + v * s;
        for (size_t t0 = 0; t0 < pass.tiles; t0 += kAmxMaxCTiles) {
          kAmxRowBlocks[std::min(kAmxMaxCTiles, pass.tiles - t0) - 1](
              row, s, pass, t0, v, n, out);
        }
      }
    }
  }
  _tile_release();
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

// The AVX2 and AVX-512 tiers over rows [first_row, n). Full groups of 16
// queries go to tile16, then a remainder of 8-15 to one tile8, then the
// last 1-7 queries to one pass along s, so every query group makes one
// pass over the rows. Tiled queries meet the last block's up-to-3 rows
// left over by the 4-row tiles on the scalar tile.
void GemmSimd(const SimdKernels& kernels, const int32_t* data, size_t n,
              size_t s, const int32_t* queries, size_t num_queries,
              uint64_t* out, size_t first_row = 0) {
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

  for (size_t vb = first_row; vb < n; vb += kObjectBlock) {
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

// The tier DotProductGemm runs for `tier` on this batch. AVX-512 gives way
// to AVX2 where a product of operands up to these maxima could reach 2^52:
// the IFMA kernels add only a product's low 52 bits. AMX gives way to the
// best tier below it on fewer than 16 rows, and to IFMA on a batch
// narrower than kAmxMinQueries.
GemmTier TierThatRuns(GemmTier tier, size_t n, size_t num_queries,
                      uint32_t data_max, uint32_t query_max) {
  const bool ifma_exact = uint64_t{data_max} * query_max < (uint64_t{1} << 52);
#if defined(PIMINE_GEMM_X86)
  if (tier == GemmTier::kAmx) {
    const GemmTier below =
        ifma_exact && GemmTierSupported(GemmTier::kAvx512) ? GemmTier::kAvx512
                                                           : GemmTier::kAvx2;
    const bool narrow =
        num_queries < kAmxMinQueries && below == GemmTier::kAvx512;
    return n < kAmxRows || narrow ? below : tier;
  }
#endif
  return tier == GemmTier::kAvx512 && !ifma_exact ? GemmTier::kAvx2 : tier;
}

#if defined(PIMINE_GEMM_X86) && defined(__linux__)
// Linux hands out the AMX tile state only on request, once per process
// (arch_prctl ARCH_REQ_XCOMP_PERM for XFEATURE_XTILEDATA).
bool AmxPermitted() {
  static const bool permitted = [] {
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) ==
           0;
  }();
  return permitted;
}
#endif

}  // namespace

std::string_view GemmTierName(GemmTier tier) {
  switch (tier) {
    case GemmTier::kScalar:
      return "scalar";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
    case GemmTier::kAmx:
      return "amx";
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
    case GemmTier::kAmx:
#if defined(__linux__)
      // Narrow batches and the rows left over by the 16-row tiles run on
      // AVX-512 or AVX2; the queries are packed with AVX-512BW.
      return __builtin_cpu_supports("amx-tile") != 0 &&
             __builtin_cpu_supports("amx-int8") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx2") != 0 && AmxPermitted();
#else
      return false;
#endif
#else
    case GemmTier::kAvx2:
    case GemmTier::kAvx512:
    case GemmTier::kAmx:
      return false;
#endif
  }
  return false;
}

GemmTier BestGemmTier() {
  static const GemmTier best = [] {
    for (GemmTier tier :
         {GemmTier::kAmx, GemmTier::kAvx512, GemmTier::kAvx2}) {
      if (GemmTierSupported(tier)) return tier;
    }
    return GemmTier::kScalar;
  }();
  return best;
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
  // A forced AMX tier also needs the permission GemmTierSupported asks for.
  PIMINE_CHECK(GemmTierSupported(tier)) << GemmTierName(tier);
  tier = TierThatRuns(tier, n, num_queries, data_max, query_max);
  switch (tier) {
#if defined(PIMINE_GEMM_X86)
    case GemmTier::kAmx: {
      GemmAmx(data, n, s, data_max, queries, num_queries, query_max, out);
      // The rows left over by the 16-row tiles.
      const GemmTier rest =
          TierThatRuns(tier, 0, num_queries, data_max, query_max);
      GemmSimd(rest == GemmTier::kAvx512 ? kIfmaKernels : kAvx2Kernels, data,
               n, s, queries, num_queries, out, n / kAmxRows * kAmxRows);
      return tier;
    }
    case GemmTier::kAvx512:
      GemmSimd(kIfmaKernels, data, n, s, queries, num_queries, out);
      return tier;
    case GemmTier::kAvx2:
      GemmSimd(kAvx2Kernels, data, n, s, queries, num_queries, out);
      return tier;
#else
    case GemmTier::kAmx:
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
