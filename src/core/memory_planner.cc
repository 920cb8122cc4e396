#include "core/memory_planner.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "pim/crossbar_math.h"

namespace pimine {

std::string MemoryPlan::ToString() const {
  std::ostringstream os;
  os << "s=" << s << " copies=" << copies << " ndata=" << data_crossbars
     << " ngather=" << gather_crossbars
     << (compressed ? " (compressed)" : " (full dimensionality)");
  return os.str();
}

Result<MemoryPlan> PlanPimLayout(int64_t n, int64_t original_dim,
                                 int operand_bits, int copies,
                                 const PimConfig& config) {
  if (n <= 0 || original_dim <= 0 || copies <= 0) {
    return Status::InvalidArgument("n, dim and copies must be positive");
  }
  // `copies` equally sized matrices are equivalent to one matrix of
  // copies*n vectors for capacity purposes.
  PIMINE_ASSIGN_OR_RETURN(
      const int64_t s,
      MaxCompressedDim(copies * n, operand_bits, original_dim, config));
  MemoryPlan plan;
  plan.s = s;
  plan.copies = copies;
  plan.compressed = s < original_dim;
  plan.data_crossbars = NumDataCrossbars(copies * n, operand_bits, s,
                                         config.crossbar_dim,
                                         config.cell_bits);
  plan.gather_crossbars = NumGatherCrossbars(copies * n, operand_bits, s,
                                             config.crossbar_dim,
                                             config.cell_bits);
  return plan;
}

PimConfig ScalePimArrayForDataset(int64_t paper_n, int64_t scaled_n,
                                  const PimConfig& base) {
  PIMINE_CHECK(paper_n > 0 && scaled_n > 0);
  PimConfig scaled = base;
  const double ratio =
      static_cast<double>(scaled_n) / static_cast<double>(paper_n);
  scaled.num_crossbars = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(base.num_crossbars) *
                              ratio));
  return scaled;
}

}  // namespace pimine
