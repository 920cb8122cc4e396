#include "knn/pim_knn_base.h"

#include <algorithm>

namespace pimine {

Status PimKnnBase::OnInsert(const FloatMatrix& rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->AppendRows(rows);
}

Status PimKnnBase::OnDelete(size_t row) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->DeleteRow(row);
}

Status PimKnnBase::OnCompact(const std::vector<uint32_t>& /*live*/) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->Compact();
}

uint64_t PimKnnBase::FootprintBytes(uint64_t exact_count,
                                    size_t num_queries) const {
  return HostTableBytes() +
         (exact_count / std::max<uint64_t>(1, num_queries)) * data_->cols() *
             sizeof(float);
}

}  // namespace pimine
