#include "core/hamming_engine.h"

#include <sstream>

#include "common/logging.h"
#include "core/pim_bounds.h"
#include "pim/crossbar_math.h"
#include "util/bits.h"

namespace pimine {

PimHammingEngine::PimHammingEngine(BitMatrix codes, const PimConfig& config)
    : codes_(std::move(codes)), config_(config), timing_(config) {}

Result<std::unique_ptr<PimHammingEngine>> PimHammingEngine::Build(
    const BitMatrix& codes, const PimConfig& config) {
  if (codes.rows() == 0 || codes.bits() == 0) {
    return Status::InvalidArgument("empty code matrix");
  }
  PIMINE_RETURN_IF_ERROR(config.Validate());
  // Codes + complements are two 1-bit-operand matrices (Theorem 4).
  const int64_t n = static_cast<int64_t>(codes.rows());
  const int64_t bits = static_cast<int64_t>(codes.bits());
  if (!FitsInPimArray(2 * n, /*operand_bits=*/1, bits, config)) {
    std::ostringstream os;
    os << "code matrix (" << n << " x " << bits
       << " bits, plus complements) exceeds the PIM array";
    return Status::CapacityExceeded(os.str());
  }
  auto engine = std::unique_ptr<PimHammingEngine>(
      new PimHammingEngine(codes, config));
  const int64_t ndata = NumDataCrossbars(2 * n, 1, bits, config.crossbar_dim,
                                         config.cell_bits) +
                        NumGatherCrossbars(2 * n, 1, bits,
                                           config.crossbar_dim,
                                           config.cell_bits);
  engine->offline_ns_ = engine->timing_.ProgramLatencyNs(
      static_cast<uint64_t>(ndata) * config.crossbar_dim);
  return engine;
}

Status PimHammingEngine::ComputeDistances(
    std::span<const uint64_t> query_words, std::vector<int32_t>* out) {
  PIMINE_CHECK(out != nullptr);
  if (query_words.size() != codes_.words_per_row()) {
    return Status::InvalidArgument("query code width mismatch");
  }
  const size_t n = codes_.rows();
  const int64_t d = static_cast<int64_t>(codes_.bits());
  out->resize(n);

  // Bits of the last word beyond `d` must be ignored in the complement dot.
  const size_t full_words = codes_.bits() / 64;
  const uint64_t tail_mask =
      (codes_.bits() % 64 == 0) ? 0 : ((1ULL << (codes_.bits() % 64)) - 1);

  for (size_t i = 0; i < n; ++i) {
    const auto row = codes_.row(i);
    // PIM batch 1: p.q = popcount(p AND q);
    // PIM batch 2: p~.q~ = popcount(NOT p AND NOT q) within d bits.
    // Functionally exact emulation of the 1-bit crossbar dot products.
    uint32_t code_dot = 0;
    uint32_t comp_dot = 0;
    for (size_t w = 0; w < full_words; ++w) {
      code_dot += static_cast<uint32_t>(PopCount(row[w] & query_words[w]));
      comp_dot += static_cast<uint32_t>(PopCount(~row[w] & ~query_words[w]));
    }
    if (tail_mask != 0) {
      const size_t w = full_words;
      code_dot += static_cast<uint32_t>(
          PopCount(row[w] & query_words[w] & tail_mask));
      comp_dot += static_cast<uint32_t>(
          PopCount(~row[w] & ~query_words[w] & tail_mask));
    }
    (*out)[i] = static_cast<int32_t>(HdPim(code_dot, comp_dot, d));
  }
  ChargeBounds(kHdPimCost, n);

  // Two batch dot products (codes, complements) with 1-bit inputs.
  compute_ns_ += 2.0 * timing_.BatchDotLatencyNs(d, /*input_bits=*/1);
  result_bytes_ += n * sizeof(uint64_t);  // two 32-bit results per object.
  return Status::OK();
}

void PimHammingEngine::ResetOnlineStats() {
  compute_ns_ = 0.0;
  result_bytes_ = 0;
}

}  // namespace pimine
