#ifndef PIMINE_KNN_OST_PIM_KNN_H_
#define PIMINE_KNN_OST_PIM_KNN_H_

#include <span>
#include <vector>

#include "knn/pim_knn_base.h"

namespace pimine {

/// OST-PIM: OST with the prefix part of LB_OST offloaded to PIM. The bound
/// decomposes (Table 3/4) as
///   LB_OST = [ partial ED on the d0-dim prefix ] + (|p_sfx| - |q_sfx|)^2;
/// the prefix term is itself a PIM-aware ED, so PIM supplies a Theorem 1
/// lower bound on it while the suffix-norm term stays exact on the host
/// (one precomputed scalar per object). The result is a valid lower bound
/// on LB_OST and hence on ED.
class OstPimKnn : public PimKnnBase {
 public:
  /// `prefix_divisor` sets d0 = max(1, d / prefix_divisor), matching OstKnn.
  explicit OstPimKnn(EngineOptions options, int64_t prefix_divisor = 4);

  std::string_view name() const override { return "OST-PIM"; }
  Status Prepare(const FloatMatrix& data) override;

  /// Mutation mirroring: inserts append the d0-dim prefixes to the fleet
  /// and extend the suffix-norm table; compaction compacts both.
  Status OnInsert(const FloatMatrix& rows) override;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  uint64_t OfflineBytesWritten() const override {
    return PimKnnBase::OfflineBytesWritten() +
           suffix_norms_.size() * sizeof(double);
  }
  int64_t prefix_dims() const { return d0_; }

 protected:
  /// The fleet holds the d0-dim prefixes, which are not contiguous across
  /// query rows: gathers them into `s.operands`.
  std::span<const float> DeviceOperands(const FloatMatrix& queries,
                                        size_t begin, size_t end,
                                        BatchScratch& s) const override;
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s,
                                    SearchSlot& slot) const override;
  /// Adds the suffix-norm table to the bound array and its ordering.
  uint64_t HostTableBytes() const override {
    return data_->rows() * sizeof(double) * 3;
  }

 private:
  int64_t prefix_divisor_;
  int64_t d0_ = 0;
  std::vector<double> suffix_norms_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_OST_PIM_KNN_H_
