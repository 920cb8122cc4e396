#ifndef PIMINE_CORE_QUANTIZE_H_
#define PIMINE_CORE_QUANTIZE_H_

#include <cstdint>
#include <span>

namespace pimine {

/// §V-B quantization (Eq. 5-6): values normalized into [0, 1] are scaled by
/// alpha and truncated to their integer part, producing the non-negative
/// integer vectors ReRAM crossbars require. The paper's default scaling
/// factor is alpha = 1e6 (§VI-B); Theorem 3 bounds the error this induces.
class Quantizer {
 public:
  explicit Quantizer(double alpha = 1e6);

  double alpha() const { return alpha_; }

  /// floor(alpha * v) for one value. Precondition: v in [0, 1].
  int32_t QuantizeValue(float v) const;

  /// Quantizes one normalized row into `out`.
  void QuantizeRow(std::span<const float> in, std::span<int32_t> out) const;

  /// Phi(p-bar) of Theorem 1 for one normalized row:
  ///   sum_i (alpha*p_i)^2 - 2 * sum_i floor(alpha*p_i).
  double PhiEd(std::span<const float> normalized_row) const;

  /// Phi(p-hat) of Theorem 2 for one vector's scaled segment statistics:
  ///   sum mu^2 + sum sigma^2 - 2*sum floor(mu) - 2*sum floor(sigma),
  /// where mu/sigma are the *scaled* (by alpha) segment stats. Pass the
  /// unscaled stats; scaling happens here.
  double PhiFnn(std::span<const float> seg_means,
                std::span<const float> seg_stds) const;

  /// Phi for the means-only segment bound (PIM-aware LB_SM):
  ///   sum mu^2 - 2*sum floor(mu) over the *scaled* segment means.
  double PhiSm(std::span<const float> seg_means) const;

  /// sum_i floor(alpha * p_i) — the offline term of the CS/PCC dot-product
  /// upper bound.
  double SumFloors(std::span<const float> normalized_row) const;

 private:
  double alpha_;
};

/// Theorem 3: upper bound on LB_PIM-ED's gap to the exact squared ED.
double LbPimEdErrorBound(int64_t dims, double alpha);

}  // namespace pimine

#endif  // PIMINE_CORE_QUANTIZE_H_
