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

#if defined(PIMINE_GEMM_X86)

// The SIMD tiers read queries from one packed buffer of num_queries * s
// u64 lanes, each value zero-extended. The tile of width W starting at
// query q occupies packed[q * s, (q + W) * s) lane-transposed, as
// packed[q * s + j * W + t] = query (q + t), dimension j; a tile of width
// 1 is just the query itself. vpmuludq multiplies the low 32 bits of
// each 64-bit lane into the full 64-bit product and vpaddq wraps mod
// 2^64, so every vector kernel is exact.
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
void StoreBlock(const uint64_t (&acc)[4][kWidth], size_t v, size_t n,
                size_t q, uint64_t* out) {
  for (size_t t = 0; t < kWidth; ++t) {
    uint64_t* dst = out + (q + t) * n + v;
    dst[0] = acc[0][t];
    dst[1] = acc[1][t];
    dst[2] = acc[2][t];
    dst[3] = acc[3][t];
  }
}

// 4 data rows x 8 queries: each step loads the 8 query lanes once (two
// registers) and broadcasts each row's value as a 32-bit lane — vpmuludq
// reads only the low dword of every 64-bit lane, so no zero-extension is
// needed. Eight accumulators, two query registers and the broadcasts fit
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

// kQ queries (each a width-1 tile) against rows [v0, v1), SIMD along the
// dimension: four data values are zero-extended into u64 lanes once per
// step and multiplied against every query's matching lanes.
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
#pragma GCC unroll 4
    for (size_t t = 0; t < kQ; ++t) acc[t] = _mm256_setzero_si256();
    for (size_t j = 0; j < s4; j += 4) {
      const __m256i d = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j)));
#pragma GCC unroll 4
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
// GCC 12's avx512fintrin.h implements _mm512_mul_epu32 with an
// _mm512_undefined_epi32() passthrough operand, which -Wmaybe-uninitialized
// misreports as a read of uninitialized memory (and -Werror turns into a
// build failure). The operand is never read; silence the warning for the
// AVX-512 kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// 4 data rows x 16 queries: the AVX2 tile widened to 512-bit lanes. Eight
// accumulators, two query registers and the 32-bit broadcasts stay well
// inside the 32 zmm registers. Rows [v0, v1) must be a multiple of 4.
__attribute__((target("avx512f"))) void Avx512Tile4x16(
    const int32_t* data, size_t s, size_t v0, size_t v1, size_t n,
    const uint64_t* qpk, size_t q, uint64_t* out) {
  for (size_t v = v0; v < v1; v += 4) {
    const int32_t* r0 = data + v * s;
    const int32_t* r1 = r0 + s;
    const int32_t* r2 = r1 + s;
    const int32_t* r3 = r2 + s;
    __m512i a00 = _mm512_setzero_si512(), a01 = _mm512_setzero_si512();
    __m512i a10 = _mm512_setzero_si512(), a11 = _mm512_setzero_si512();
    __m512i a20 = _mm512_setzero_si512(), a21 = _mm512_setzero_si512();
    __m512i a30 = _mm512_setzero_si512(), a31 = _mm512_setzero_si512();
    for (size_t j = 0; j < s; ++j) {
      const __m512i q0 = _mm512_loadu_si512(qpk + j * 16);
      const __m512i q1 = _mm512_loadu_si512(qpk + j * 16 + 8);
      const __m512i d0 = _mm512_set1_epi32(r0[j]);
      a00 = _mm512_add_epi64(a00, _mm512_mul_epu32(d0, q0));
      a01 = _mm512_add_epi64(a01, _mm512_mul_epu32(d0, q1));
      const __m512i d1 = _mm512_set1_epi32(r1[j]);
      a10 = _mm512_add_epi64(a10, _mm512_mul_epu32(d1, q0));
      a11 = _mm512_add_epi64(a11, _mm512_mul_epu32(d1, q1));
      const __m512i d2 = _mm512_set1_epi32(r2[j]);
      a20 = _mm512_add_epi64(a20, _mm512_mul_epu32(d2, q0));
      a21 = _mm512_add_epi64(a21, _mm512_mul_epu32(d2, q1));
      const __m512i d3 = _mm512_set1_epi32(r3[j]);
      a30 = _mm512_add_epi64(a30, _mm512_mul_epu32(d3, q0));
      a31 = _mm512_add_epi64(a31, _mm512_mul_epu32(d3, q1));
    }
    uint64_t acc[4][16];
    _mm512_storeu_si512(acc[0], a00);
    _mm512_storeu_si512(acc[0] + 8, a01);
    _mm512_storeu_si512(acc[1], a10);
    _mm512_storeu_si512(acc[1] + 8, a11);
    _mm512_storeu_si512(acc[2], a20);
    _mm512_storeu_si512(acc[2] + 8, a21);
    _mm512_storeu_si512(acc[3], a30);
    _mm512_storeu_si512(acc[3] + 8, a31);
    StoreBlock(acc, v, n, q, out);
  }
}

// Avx2AlongS with eight dimensions per step.
template <size_t kQ>
__attribute__((target("avx512f"))) void Avx512AlongS(const int32_t* data,
                                                     size_t s, size_t v0,
                                                     size_t v1, size_t n,
                                                     const uint64_t* qz,
                                                     size_t q, uint64_t* out) {
  const size_t s8 = s / 8 * 8;
  for (size_t v = v0; v < v1; ++v) {
    const int32_t* row = data + v * s;
    __m512i acc[kQ];
#pragma GCC unroll 4
    for (size_t t = 0; t < kQ; ++t) acc[t] = _mm512_setzero_si512();
    for (size_t j = 0; j < s8; j += 8) {
      const __m512i d = _mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j)));
#pragma GCC unroll 4
      for (size_t t = 0; t < kQ; ++t) {
        acc[t] = _mm512_add_epi64(
            acc[t], _mm512_mul_epu32(d, _mm512_loadu_si512(qz + t * s + j)));
      }
    }
    for (size_t t = 0; t < kQ; ++t) {
      // Not _mm512_reduce_add_epi64: GCC implements it with signed scalar
      // additions, which overflow (undefined behaviour) once the sums wrap.
      uint64_t lanes[8];
      _mm512_storeu_si512(lanes, acc[t]);
      uint64_t sum = 0;
      for (uint64_t lane : lanes) sum += lane;
      for (size_t j = s8; j < s; ++j) {
        sum += static_cast<uint64_t>(static_cast<uint32_t>(row[j])) *
               qz[t * s + j];
      }
      out[(q + t) * n + v] = sum;
    }
  }
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

template <bool kAvx512, size_t kQ>
void AlongS(const int32_t* data, size_t s, size_t v0, size_t v1, size_t n,
            const uint64_t* qz, size_t q, uint64_t* out) {
  if constexpr (kAvx512) {
    Avx512AlongS<kQ>(data, s, v0, v1, n, qz, q, out);
  } else {
    Avx2AlongS<kQ>(data, s, v0, v1, n, qz, q, out);
  }
}

// The AVX2 and AVX-512 tiers. Queries go to the widest tile that fits
// (16 on AVX-512, then 8); the rest, fewer than 8, run SIMD along s in
// groups of 4, 2 and 1. Tiled queries meet the last block's up-to-3 rows
// left over by the 4-row tiles on the scalar tile.
template <bool kAvx512>
void GemmWide(const int32_t* data, size_t n, size_t s, const int32_t* queries,
              size_t num_queries, uint64_t* out) {
  std::vector<uint64_t> packed(num_queries * s);
  size_t tiled = 0;
  if constexpr (kAvx512) {
    for (; tiled + 16 <= num_queries; tiled += 16) {
      PackTile(queries, s, tiled, 16, packed.data());
    }
  }
  for (; tiled + 8 <= num_queries; tiled += 8) {
    PackTile(queries, s, tiled, 8, packed.data());
  }
  for (size_t q = tiled; q < num_queries; ++q) {
    PackTile(queries, s, q, 1, packed.data());
  }
  const uint64_t* qpk = packed.data();

  for (size_t vb = 0; vb < n; vb += kObjectBlock) {
    const size_t vend = std::min(n, vb + kObjectBlock);
    const size_t vend4 = vb + (vend - vb) / 4 * 4;
    size_t q = 0;
    if constexpr (kAvx512) {
      for (; q + 16 <= num_queries; q += 16) {
        Avx512Tile4x16(data, s, vb, vend4, n, qpk + q * s, q, out);
      }
    }
    for (; q + 8 <= num_queries; q += 8) {
      Avx2Tile4x8(data, s, vb, vend4, n, qpk + q * s, q, out);
    }
    ScalarTiles(data, s, vend4, vend, n, queries, 0, tiled, out);
    for (; q + 4 <= num_queries; q += 4) {
      AlongS<kAvx512, 4>(data, s, vb, vend, n, qpk + q * s, q, out);
    }
    for (; q + 2 <= num_queries; q += 2) {
      AlongS<kAvx512, 2>(data, s, vb, vend, n, qpk + q * s, q, out);
    }
    for (; q < num_queries; ++q) {
      AlongS<kAvx512, 1>(data, s, vb, vend, n, qpk + q * s, q, out);
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
      // The AVX-512 tier hands the queries it cannot tile to AVX2 tiles.
      return __builtin_cpu_supports("avx512f") != 0 &&
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

void DotProductGemm(const int32_t* data, size_t n, size_t s,
                    const int32_t* queries, size_t num_queries,
                    uint64_t* out) {
  DotProductGemm(BestGemmTier(), data, n, s, queries, num_queries, out);
}

void DotProductGemm(GemmTier tier, const int32_t* data, size_t n, size_t s,
                    const int32_t* queries, size_t num_queries,
                    uint64_t* out) {
  PIMINE_DCHECK(GemmTierSupported(tier)) << GemmTierName(tier);
  switch (tier) {
#if defined(PIMINE_GEMM_X86)
    case GemmTier::kAvx512:
      GemmWide<true>(data, n, s, queries, num_queries, out);
      return;
    case GemmTier::kAvx2:
      GemmWide<false>(data, n, s, queries, num_queries, out);
      return;
#else
    case GemmTier::kAvx512:
    case GemmTier::kAvx2:
#endif
    case GemmTier::kScalar:
      GemmScalar(data, n, s, queries, num_queries, out);
      return;
  }
}

}  // namespace pimine
