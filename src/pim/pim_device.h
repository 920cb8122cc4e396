#ifndef PIMINE_PIM_PIM_DEVICE_H_
#define PIMINE_PIM_PIM_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "pim/fault_model.h"
#include "pim/pim_config.h"
#include "pim/timing.h"

namespace pimine {

/// Accumulated accounting for one PimDevice.
struct PimDeviceStats {
  // Layout of the programmed dataset (Theorem 4 quantities).
  int64_t programmed_vectors = 0;
  int64_t programmed_dims = 0;
  int64_t data_crossbars = 0;
  int64_t gather_crossbars = 0;
  // Offline costs.
  double program_ns = 0.0;
  uint64_t programming_events = 0;  // full-array programs (endurance).
  uint64_t aux_bytes_stored = 0;    // Φ values kept in the memory array.
  // Mutation accounting (all cumulative/monotone; zero on a static device).
  uint64_t compactions = 0;          // CompactRows passes.
  uint64_t compacted_rows = 0;       // vectors rewritten by compactions.
  uint64_t row_writes = 0;           // per-slot write events (wear model).
  uint64_t worn_rows = 0;            // slots past the endurance limit.
  // Online costs. Device batches group Q >= 1 queries into one operation;
  // every field except `batch_ops`, `queries_per_batch` and `pipelined_ns`
  // is invariant under the grouping: running the same queries at any
  // device-batch size (and from any number of host threads) produces
  // bit-identical values.
  /// Batched operations issued (one per DotProductBatch).
  uint64_t batch_ops = 0;
  /// Total queries matched across all batches.
  uint64_t queries_processed = 0;
  /// How many batches carried exactly Q queries, keyed by Q.
  std::map<int64_t, uint64_t> queries_per_batch;
  /// Serial-equivalent modeled time: every query charged the full
  /// single-query pass latency. Invariant under batching — this is the
  /// figure the paper's single-query experiments report.
  double compute_ns = 0.0;
  /// Modeled device-occupancy time with batch pipelining
  /// (PimTimingModel::BatchDotLatencyNs(s, bits, Q) per batch), summed per
  /// batch size Q and then over the sizes in ascending Q, so the order the
  /// batches complete in cannot change it. Equals compute_ns bit-for-bit
  /// when every batch has Q = 1; smaller when queries stream back-to-back.
  double pipelined_ns = 0.0;
  /// Modeled crossbar + ADC energy of the batches (picojoules). Energy is
  /// proportional to work, so it is not amortized by batching.
  double compute_energy_pj = 0.0;
  uint64_t results_produced = 0;
  uint64_t result_bytes_to_host = 0;
  /// Fault-injection and recovery accounting (all zero — and omitted from
  /// ToString — when the device runs fault-free).
  FaultStats fault;

  std::string ToString() const;
};

/// Facade over the ReRAM-based memory bank of Fig. 4(b): memory array
/// (plain storage), PIM array (the programmed dataset + dot-product
/// engine) and controller (this class).
///
/// Functional behaviour is bit-exact integer arithmetic: `DotProductBatch`
/// returns sum_i data[v][i] * query[i] for every query, truncated to the
/// least-significant 64 bits, the paper's overflow rule (§VI-B). Timing is
/// accumulated from the PimTimingModel. Cross-checked against the
/// cycle-level `Crossbar` model in tests.
class PimDevice {
 public:
  /// `fault_config` enables the ReRAM fault model (stuck cells, transient
  /// flips, wear) and `recovery` the checksum-based recovery path
  /// (see fault_model.h). The defaults keep the device fault-free and
  /// bit-identical to the pre-fault-model behaviour.
  explicit PimDevice(const PimConfig& config = PimConfig(),
                     const FaultConfig& fault_config = FaultConfig(),
                     const RecoveryPolicy& recovery = RecoveryPolicy());

  /// Programs a quantized dataset (one vector per row; all values must be
  /// non-negative and fit `operand_bits`). Fails with CapacityExceeded when
  /// Theorem 4's condition is violated — callers are expected to compress
  /// the dataset first (core/memory_planner). Programming an
  /// already-programmed device is an InvalidArgument: overwriting a live
  /// corpus silently was a footgun, so re-programs must go through
  /// ReprogramDataset (explicit, endurance-counted) or ProgramDelta
  /// (incremental append).
  Status ProgramDataset(const IntMatrix& data, int operand_bits = 32);

  /// Explicit full re-program: replaces whatever is programmed (if
  /// anything) with `data`, charged at full program cost and counted
  /// against write endurance. Fault state is rebuilt for the new contents
  /// (per-slot wear counters persist — the physical rows are the same
  /// cells). The memory array's auxiliary store is released too: its
  /// terms described the replaced vectors, and the caller stores the new
  /// ones (StoreAux).
  Status ReprogramDataset(const IntMatrix& data, int operand_bits = 32);

  /// Appends `rows` (same dimensionality and operand width as the
  /// programmed dataset) after the programmed rows: each appended vector
  /// is one incremental row-parallel write charged at ProgramLatencyNs(1),
  /// so any grouping of appends accumulates bit-identical program time.
  /// Fails with CapacityExceeded when the grown dataset would violate
  /// Theorem 4. Not safe concurrently with in-flight DotProductBatch
  /// calls — callers quiesce queries around mutations (the engines do).
  /// The device keeps no record of deletes: every programmed row computes
  /// until a compaction drops it (DESIGN.md section 13).
  Status ProgramDelta(const IntMatrix& rows);

  /// Rewrites the rows `live` (strictly ascending physical indices, at
  /// least one) into a fresh base in one compaction pass, charged at full
  /// program cost; each surviving vector's new slot gets one endurance
  /// write.
  Status CompactRows(std::span<const uint32_t> live);

  /// True once a dataset is programmed.
  bool programmed() const { return !data_.empty(); }
  /// Times physical slot `slot` has been programmed (base programs, delta
  /// appends and compaction rewrites all count once per touched slot).
  uint64_t RowWrites(size_t slot) const {
    return slot < row_writes_.size() ? row_writes_[slot] : 0;
  }
  /// True when slot `slot` has exceeded FaultConfig::endurance_limit.
  bool RowWorn(size_t slot) const {
    return slot < worn_.size() && worn_[slot] != 0;
  }

  /// Matches `num_queries` queries (row-major in `queries`, each
  /// data_.cols() values, all non-negative) against every programmed
  /// vector in one device operation. `out` is resized to num_queries * N;
  /// query q's dot products occupy out[q*N, (q+1)*N). Functionally
  /// bit-identical to num_queries one-query batches (uint64 wraparound per
  /// object is associative, so the tiled kernel cannot change any result);
  /// stats are charged once per batch under the stats mutex, with
  /// compute/energy/result accounting equal to one-query batches and the
  /// pipelined batch latency recorded in stats.pipelined_ns. Safe to call
  /// concurrently from several host threads once programmed: the per-batch
  /// charges are identical regardless of interleaving, so the modeled
  /// totals match a serial run exactly. The host-side kernel is the
  /// cache-blocked, register-tiled integer GEMM of pim/dot_gemm.h (objects
  /// x queries), which picks the host's widest tier (AMX-INT8, AVX-512
  /// IFMA, AVX2 or scalar) at runtime; no build flag is needed to reach
  /// it. AMX reads the programmed int32 rows in place, each row's four
  /// bytes being its 8-bit slices, so the device keeps one operand layout.
  /// The IFMA tier runs while the largest programmed operand times the
  /// batch's largest query operand stays below 2^52.
  /// With the fault model enabled, every result group (the logical columns
  /// of one data-crossbar set) carries a mod-(2^16 - 1) residue checksum
  /// column; flagged groups are retried / remapped / escalated per the
  /// RecoveryPolicy, with recovery time charged to stats.fault.recovery_ns.
  /// `suspect` (optional) is sized num_queries * N and set to 1 for results
  /// that remain possibly corrupt (VerifyMode::kBoundSlack only; required
  /// in that mode). Fault-free devices leave `suspect` empty. A pass that
  /// fails the op (VerifyMode::kFailOp) is charged before its DeviceFault
  /// returns.
  Status DotProductBatch(std::span<const int32_t> queries, size_t num_queries,
                         std::vector<uint64_t>* out,
                         std::vector<uint8_t>* suspect = nullptr);

  /// Host-exact fallback for a device that cannot serve DotProductBatch —
  /// the fleet fail-over path when a shard surfaces a DeviceFault under
  /// VerifyMode::kFailOp. The host re-reads the programmed operands over
  /// the internal bus and recomputes the exact wraparound dot products,
  /// bypassing the fault model entirely. Charges only fault-recovery
  /// accounting (stats.fault.escalated_to_host, stats.fault.recovery_ns):
  /// it runs no crossbar pass.
  Status HostRecomputeBatch(std::span<const int32_t> queries,
                            size_t num_queries, std::vector<uint64_t>* out);

  /// Auxiliary storage in the ReRAM memory array (pre-computed Φ values).
  Status StoreAux(uint64_t bytes);

  /// Remaining full-array reprograms before the endurance budget (the
  /// conservative 1e8 writes/cell) is exhausted.
  double EnduranceRemainingFraction() const;

  const PimDeviceStats& stats() const { return stats_; }
  /// Copy of stats_ taken under the stats mutex — the accessor telemetry
  /// exporters use while DotProductBatch calls may be in flight (stats()
  /// returns an unguarded reference and is only safe quiescent).
  PimDeviceStats StatsSnapshot() const;
  void ResetOnlineStats();

  /// Serial-equivalent modeled time one query spends on the device: the full
  /// single-query pass latency over the programmed dataset, identical for
  /// every query regardless of device-batch grouping (the per-query figure
  /// stats_.compute_ns accumulates). 0 before a dataset is programmed.
  double SerialDotNsPerQuery() const;

  /// Modeled pipelined occupancy of ONE DotProductBatch carrying
  /// `num_queries` queries (PimTimingModel::BatchDotLatencyNs over the
  /// programmed geometry). Pure — charges nothing; the figure the serving
  /// scheduler uses as the virtual-clock service time of a dispatch.
  /// 0 before a dataset is programmed.
  double BatchDotNs(size_t num_queries) const;

  const PimConfig& config() const { return config_; }
  const PimTimingModel& timing() const { return timing_; }
  const FaultConfig& fault_config() const { return fault_config_; }

 private:
  /// One stuck cell's aggregate effect on a stored operand: reading
  /// dimension `dim` yields value + delta instead of value.
  struct StuckDelta {
    uint32_t dim;
    int64_t delta;
  };

  /// Shared tail of ProgramDataset / ReprogramDataset / CompactRows:
  /// validates operands, installs `data` as the fresh base, charges the
  /// full row-parallel program and per-slot endurance writes, and rebuilds
  /// fault state.
  Status ProgramInternal(const IntMatrix& data, int operand_bits);

  /// Sets the layout fields of stats_ (vectors, dims, data and gather
  /// crossbars) from the programmed rows; ProgramInternal and ProgramDelta
  /// call it once the rows are in place.
  void RecordLayout();

  /// Bumps the per-slot write counters for physical slots
  /// [first, first + count) and marks slots that crossed the endurance
  /// limit as worn (wear model enabled only).
  void ChargeRowWrites(size_t first, size_t count);

  /// Sparse stuck-cell deltas for object `v` against its current operands:
  /// manufacturing stuck-ats (kDataCellSalt at cell_rate) plus, for worn
  /// slots, wear stuck-ats (kWearCellSalt at wear_stuck_rate).
  std::vector<StuckDelta> ComputeObjectStuck(size_t v, uint64_t* stuck_cells)
      const;

  /// Recomputes group `g`'s checksum column against the current operands
  /// and redraws its stuck cells (skipped for remapped groups — they live
  /// on clean spare rows). `count_cells` guards double-counting draws that
  /// were already tallied when the group first existed.
  void RebuildGroupChecksum(size_t g, bool count_cells,
                            uint64_t* stuck_cells);

  /// Samples stuck cells for rows [first_row, data_.rows()) and rebuilds
  /// the checksum columns of the groups they touch (fault model enabled
  /// only). A full program passes 0, which drops the old state first;
  /// ProgramDelta passes the old row count. The draws are position-
  /// deterministic, so appending rows in any grouping leaves the state a
  /// full program of the merged rows builds.
  void BuildFaultState(size_t first_row);

  /// The argument checks DotProductBatch and HostRecomputeBatch (`op`)
  /// share, then the batch's exact wraparound dot products into `out`.
  Status ExactDots(const char* op, std::span<const int32_t> queries,
                   size_t num_queries, std::vector<uint64_t>* out) const;

  /// Fault phase of DotProductBatch: perturbs, verifies and recovers the
  /// true dot products in `out` group by group. Appends this batch's fault
  /// accounting to `local` (merged into stats_ under stats_mu_ later), up
  /// to the group that fails the op under VerifyMode::kFailOp.
  Status ApplyFaultsAndRecover(std::span<const int32_t> queries,
                               size_t num_queries, std::vector<uint64_t>* out,
                               std::vector<uint8_t>* suspect,
                               FaultStats* local);

  PimConfig config_;
  PimTimingModel timing_;
  IntMatrix data_;
  /// The largest operand in data_ (base and delta rows): with the batch's
  /// largest query operand it bounds the GEMM's products.
  uint32_t data_max_ = 0;
  int operand_bits_ = 32;
  /// Per-physical-slot write counters + worn flags. Never reset: the same
  /// physical rows back every (re)program, so wear accumulates for life.
  std::vector<uint32_t> row_writes_;
  std::vector<uint8_t> worn_;
  PimDeviceStats stats_;
  /// stats_.pipelined_ns's partial sum of each batch size Q, keyed by Q.
  std::map<int64_t, double> pipelined_by_size_;
  /// Guards stats_ and pipelined_by_size_ against concurrent
  /// DotProductBatch calls.
  mutable std::mutex stats_mu_;

  // Fault model state (empty / null when fault_config_ is disabled).
  FaultConfig fault_config_;
  RecoveryPolicy recovery_;
  std::unique_ptr<FaultModel> faults_;
  /// Objects per checksum-protected result group (the logical columns of
  /// one data-crossbar set). 1 when no dataset is programmed.
  size_t fault_group_size_ = 1;
  std::vector<std::vector<StuckDelta>> stuck_;       // per object.
  std::vector<std::vector<StuckDelta>> csum_stuck_;  // per group checksum.
  std::vector<uint32_t> csum_;  // per group: column sums mod 2^16 - 1.
  std::vector<uint8_t> remapped_;  // per group: spare rows in use.
  /// Serializes the fault/recovery phase: remapping mutates stuck_ and
  /// remapped_, which concurrent batches also read.
  mutable std::mutex fault_mu_;
};

}  // namespace pimine

#endif  // PIMINE_PIM_PIM_DEVICE_H_
