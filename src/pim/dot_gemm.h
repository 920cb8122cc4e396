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
/// __builtin_cpu_supports; no -march flag is needed to reach it.
enum class GemmTier {
  /// Portable register-tiled loops (hosts without AVX2).
  kScalar,
  /// 4 data rows x 8 queries in AVX2; queries left below 8 run SIMD along
  /// the dimension.
  kAvx2,
  /// 4 data rows x 16 queries in AVX-512F, then the AVX2 tiles for what
  /// is left.
  kAvx512,
};

std::string_view GemmTierName(GemmTier tier);

/// True when this build and this host can run `tier`.
bool GemmTierSupported(GemmTier tier);

/// The widest supported tier: the one DotProductGemm dispatches to.
GemmTier BestGemmTier();

/// The GEMM on the widest supported tier.
void DotProductGemm(const int32_t* data, size_t n, size_t s,
                    const int32_t* queries, size_t num_queries, uint64_t* out);

/// The GEMM forced onto `tier`, which must be supported (the tier test
/// compares each one against a plain triple loop).
void DotProductGemm(GemmTier tier, const int32_t* data, size_t n, size_t s,
                    const int32_t* queries, size_t num_queries, uint64_t* out);

}  // namespace pimine

#endif  // PIMINE_PIM_DOT_GEMM_H_
