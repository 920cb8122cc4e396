#ifndef PIMINE_PIM_FAULT_MODEL_H_
#define PIMINE_PIM_FAULT_MODEL_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/status.h"
#include "obs/stat_fields.h"

namespace pimine {

/// Fault-process parameters for the ReRAM device model. All processes are
/// seeded and counter-based (stateless hashing of (seed, position/op)), so
/// the same configuration reproduces the same fault pattern regardless of
/// call order: a stuck cell is stuck in every run, and op k's transient
/// draws depend only on k.
struct FaultConfig {
  /// Probability that a cell is stuck at a fixed conductance level
  /// (stuck-at-0 or stuck-at-full, chosen per cell). Permanent: affects
  /// every operation that reads the cell until the row group is remapped.
  double cell_rate = 0.0;
  /// Per-result probability that one operation's digitized value suffers a
  /// single-bit flip in a shifted partial sum. Transient: a retry redraws.
  double transient_rate = 0.0;
  uint64_t seed = 0x5EEDF417u;

  /// Write-endurance model: a physical row slot that has been programmed
  /// more than `endurance_limit` times is "worn", and each of its cells is
  /// stuck (at a level drawn like cell_rate stuck-ats, from the wear salt)
  /// with probability `wear_stuck_rate`. 0 disables the wear process.
  uint64_t endurance_limit = 0;
  double wear_stuck_rate = 0.0;

  bool wear_enabled() const {
    return endurance_limit > 0 && wear_stuck_rate > 0.0;
  }

  /// True when any fault process can fire. With enabled() == false the
  /// device takes the exact pre-fault code paths (bit-identical results,
  /// latencies and stats).
  bool enabled() const {
    return cell_rate > 0.0 || transient_rate > 0.0 || wear_enabled();
  }

  Status Validate() const {
    const auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
    if (!rate_ok(cell_rate) || !rate_ok(transient_rate) ||
        !rate_ok(wear_stuck_rate)) {
      return Status::InvalidArgument("fault rates must be in [0, 1]");
    }
    return Status::OK();
  }
};

/// What the device does with a result group the checksum still flags after
/// retries and remapping are exhausted.
enum class VerifyMode {
  /// Re-read the affected rows over the internal bus and recompute the dot
  /// products on the host: every detected anomaly is resolved exactly, so
  /// downstream results are bit-identical to the fault-free run.
  kHostExact,
  /// Hand the possibly-corrupt values to the caller with a per-result
  /// suspect flag; the engine widens the affected bounds to their trivial
  /// worst case so pruning stays admissible (exact top-k / assignments).
  kBoundSlack,
  /// Fail the operation with StatusCode::kDeviceFault.
  kFailOp,
  /// Disable detection entirely (faulty values flow through unchecked).
  kNone,
};

std::string_view VerifyModeName(VerifyMode mode);

/// How the device recovers from checksum mismatches.
struct RecoveryPolicy {
  /// Re-issue the flagged group's pass up to this many times (fresh
  /// transient draws each time; each retry charges one pipeline pass).
  int max_retries = 2;
  /// After retries fail, re-program the group onto spare rows (clears its
  /// stuck cells; charged as row writes via PimTimingModel) and retry once
  /// more. Each group is remapped at most once.
  bool remap_on_permanent = true;
  VerifyMode verify_mode = VerifyMode::kHostExact;
};

/// Accounting of the fault and recovery processes. Counters are per result
/// value (one dot product or one checksum read) and per recovery action.
/// Invariant: injected == detected + escaped — every corrupted value was
/// either flagged by its group's checksum or slipped through.
struct FaultStats {
  /// Corrupted result values produced across all passes (retries re-count:
  /// each pass is a new operation).
  uint64_t injected = 0;
  /// Corrupted values in passes the checksum flagged.
  uint64_t detected = 0;
  /// Corrupted values the checksum missed (multi-fault cancellation
  /// mod 2^16 - 1) or that flowed through with verification off.
  uint64_t escaped = 0;
  /// Checksum comparisons performed (one per group pass).
  uint64_t checksum_checks = 0;
  /// (query, group) episodes that were flagged at least once.
  uint64_t groups_flagged = 0;
  /// Retry passes issued.
  uint64_t retries = 0;
  /// Crossbar rows re-programmed by remapping.
  uint64_t remapped_rows = 0;
  /// Result values escalated past device recovery: host re-read under
  /// kHostExact, suspect-flagged under kBoundSlack, or recomputed by the
  /// fleet's fail-over after a kFailOp DeviceFault (counted there only).
  uint64_t escalated_to_host = 0;
  /// Stuck cells sampled while programming (harmful or latent).
  uint64_t stuck_cells = 0;
  /// Modeled time spent on recovery (retry passes + remap writes + host
  /// re-reads), ns. Charged on top of the fault-free compute_ns.
  double recovery_ns = 0.0;

  bool Any() const;
  void Merge(const FaultStats& other);

  std::string ToString() const {
    std::ostringstream os;
    os << "injected=" << injected << " detected=" << detected
       << " escaped=" << escaped << " checks=" << checksum_checks
       << " flagged=" << groups_flagged << " retries=" << retries
       << " remapped_rows=" << remapped_rows
       << " escalated=" << escalated_to_host << " stuck_cells=" << stuck_cells
       << " recovery=" << recovery_ns / 1e6 << "ms";
    return os.str();
  }
};

/// FaultStats' fields; the exported ones are per fleet shard.
inline constexpr obs::StatField<FaultStats> kFaultStatsFields[] = {
    {&FaultStats::injected, "pimine_fleet_shard_faults_injected_total",
     "Transient faults injected into this shard's devices."},
    {&FaultStats::detected, "pimine_fleet_shard_faults_detected_total",
     "Faults caught by checksum verification on this shard."},
    {&FaultStats::escaped, "pimine_fleet_shard_faults_escaped_total",
     "Faults that escaped verification on this shard."},
    {&FaultStats::checksum_checks},
    {&FaultStats::groups_flagged},
    {&FaultStats::retries, "pimine_fleet_shard_fault_retries_total",
     "Recovery retries performed on this shard."},
    {&FaultStats::remapped_rows, "pimine_fleet_shard_fault_remapped_rows_total",
     "Rows remapped to spare crossbar rows on this shard."},
    {&FaultStats::escalated_to_host},
    {&FaultStats::stuck_cells},
    {&FaultStats::recovery_ns, "pimine_fleet_shard_fault_recovery_ns",
     "Modeled fault-recovery time spent on this shard."},
};

inline bool FaultStats::Any() const {
  return obs::AnyField(kFaultStatsFields, *this);
}

inline void FaultStats::Merge(const FaultStats& other) {
  obs::AddFields(kFaultStatsFields, other, this);
}

/// Seeded source of the three fault processes (stuck cells, transient flips
/// and wear). Owns no device state: the device (or crossbar) maps its own
/// cell/result indices onto the model's stateless draws. `salt` separates independent fault domains sharing one
/// seed (data cells vs. checksum cells vs. a second crossbar).
class FaultModel {
 public:
  /// Salts for the standard fault domains.
  static constexpr uint64_t kDataCellSalt = 0xDA7ACE11u;
  static constexpr uint64_t kChecksumCellSalt = 0xC5C5CE11u;
  static constexpr uint64_t kCrossbarCellSalt = 0xCB0CE11u;
  static constexpr uint64_t kWearCellSalt = 0x3EA2CE11u;

  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  /// True iff cell `index` of domain `salt` is stuck; `*level` receives the
  /// stuck conductance level (0 or the all-ones level for `cell_bits`-bit
  /// cells). Deterministic in (seed, salt, index).
  bool CellStuck(uint64_t salt, uint64_t index, int cell_bits,
                 uint8_t* level) const;

  /// Like CellStuck but at an explicit rate — used for the wear process,
  /// whose per-cell stuck probability (`wear_stuck_rate`) is independent of
  /// the manufacturing-defect `cell_rate`.
  bool CellStuckAtRate(uint64_t salt, uint64_t index, double rate,
                       int cell_bits, uint8_t* level) const;

  /// Fresh per-operation nonce. Atomic: serial call sequences reproduce the
  /// same nonce order; concurrent batches may interleave differently, which
  /// changes which ops draw transients but never the recovered results.
  uint64_t NextOpNonce() { return op_counter_.fetch_add(1); }

  /// XOR mask (0 = no fault) flipping one bit of result `result_index` of
  /// op `nonce`; the flipped bit is uniform in [0, value_bits).
  uint64_t TransientMask(uint64_t nonce, uint64_t result_index,
                         int value_bits = 64) const;

 private:
  FaultConfig config_;
  std::atomic<uint64_t> op_counter_{0};
};

}  // namespace pimine

#endif  // PIMINE_PIM_FAULT_MODEL_H_
