#ifndef PIMINE_PIM_DOT_GEMM_H_
#define PIMINE_PIM_DOT_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pimine {

/// Host-side kernel behind PimDevice::DotProductBatch: the exact
/// wraparound integer GEMM
///
///   out[q * n + v] = sum_j data[v * s + j] * queries[q * s + j]  (mod 2^64)
///
/// with every operand read as an unsigned 32-bit value (the device stores
/// non-negative operands). uint64 addition is associative mod 2^64, so
/// every tier and tiling below returns bit-identical results.
///
/// The widest tier the host supports is chosen at runtime from
/// __builtin_cpu_supports; no -march flag is needed to reach it. Each SIMD
/// tier runs full groups of 16 queries on its 16-query tile (AVX-512
/// only), a remainder of 8-15 on one 8-query tile, and the last 1-7
/// queries in one pass along the dimension.
enum class GemmTier {
  /// Portable register-tiled loops (hosts without AVX2).
  kScalar,
  /// 4 data rows x 8 queries in AVX2 (vpmuludq + vpaddq): exact for any
  /// operands.
  kAvx2,
  /// 4 data rows x 16 or 8 queries in AVX-512F + IFMA, one vpmadd52luq per
  /// multiply-add. IFMA adds the low 52 bits of each product, so this tier
  /// runs only while data_max * query_max < 2^52; a batch that could
  /// reach 2^52 runs on AVX2 instead.
  kAvx512,
};

std::string_view GemmTierName(GemmTier tier);

/// True when this build and this host can run `tier`.
bool GemmTierSupported(GemmTier tier);

/// The widest supported tier.
GemmTier BestGemmTier();

/// The tier DotProductGemm runs for operands no larger than `data_max` and
/// `query_max`: BestGemmTier(), or AVX2 where that is AVX-512 and a
/// product could reach 2^52.
GemmTier GemmTierFor(uint32_t data_max, uint32_t query_max);

/// The GEMM on the widest supported tier that is exact for these operands.
/// `data_max` and `query_max` bound every value of `data` and `queries`.
/// Returns the tier that ran.
GemmTier DotProductGemm(const int32_t* data, size_t n, size_t s,
                        uint32_t data_max, const int32_t* queries,
                        size_t num_queries, uint32_t query_max,
                        uint64_t* out);

/// The GEMM forced onto `tier`, which must be supported; AVX-512 still
/// gives way to AVX2 when a product could reach 2^52 (the tier test
/// compares each one against a plain triple loop). Returns the tier that
/// ran.
GemmTier DotProductGemm(GemmTier tier, const int32_t* data, size_t n,
                        size_t s, uint32_t data_max, const int32_t* queries,
                        size_t num_queries, uint32_t query_max,
                        uint64_t* out);

}  // namespace pimine

#endif  // PIMINE_PIM_DOT_GEMM_H_
