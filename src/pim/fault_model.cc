#include "pim/fault_model.h"

#include "common/logging.h"

namespace pimine {
namespace {

// SplitMix64 finalizer over a combined key: a full-avalanche stateless hash,
// so every (seed, salt, index) triple gets an independent uniform draw.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

// Uniform double in [0, 1) from the hash's top 53 bits.
double U01(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr uint64_t kTransientSalt = 0x7A1151E47ULL;

}  // namespace

std::string_view VerifyModeName(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kHostExact:
      return "host-exact";
    case VerifyMode::kBoundSlack:
      return "bound-slack";
    case VerifyMode::kFailOp:
      return "fail-op";
    case VerifyMode::kNone:
      return "none";
  }
  return "?";
}

FaultModel::FaultModel(const FaultConfig& config) : config_(config) {
  PIMINE_CHECK_OK(config.Validate());
}

bool FaultModel::CellStuck(uint64_t salt, uint64_t index, int cell_bits,
                           uint8_t* level) const {
  return CellStuckAtRate(salt, index, config_.cell_rate, cell_bits, level);
}

bool FaultModel::CellStuckAtRate(uint64_t salt, uint64_t index, double rate,
                                 int cell_bits, uint8_t* level) const {
  const uint64_t h = Mix(config_.seed ^ salt, index);
  if (U01(h) >= rate) return false;
  // Stuck-at-0 or stuck-at-full with equal probability, decided by a bit of
  // the same draw (independent of the rate threshold bits).
  const uint8_t mask = static_cast<uint8_t>((1u << cell_bits) - 1);
  *level = (h & 1) ? mask : 0;
  return true;
}

uint64_t FaultModel::TransientMask(uint64_t nonce, uint64_t result_index,
                                   int value_bits) const {
  if (config_.transient_rate <= 0.0) return 0;
  const uint64_t h =
      Mix(config_.seed ^ kTransientSalt, Mix(nonce, result_index));
  if (U01(h) >= config_.transient_rate) return 0;
  const int bit =
      static_cast<int>(Mix(h, 0x17) % static_cast<uint64_t>(value_bits));
  return uint64_t{1} << bit;
}

}  // namespace pimine
