#include "pim/pim_device.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "obs/obs.h"
#include "pim/crossbar_math.h"
#include "pim/dot_gemm.h"
#include "util/bits.h"

namespace pimine {

std::string PimDeviceStats::ToString() const {
  std::ostringstream os;
  os << "vectors=" << programmed_vectors << " dims=" << programmed_dims
     << " ndata=" << data_crossbars << " ngather=" << gather_crossbars
     << " program=" << program_ns / 1e6 << "ms"
     << " batches=" << batch_ops << " queries=" << queries_processed
     << " compute=" << compute_ns / 1e6 << "ms"
     << " pipelined=" << pipelined_ns / 1e6 << "ms"
     << " results=" << results_produced << " queries_per_batch={";
  bool first = true;
  for (const auto& [q, count] : queries_per_batch) {
    if (!first) os << ",";
    first = false;
    os << q << ":" << count;
  }
  os << "}";
  if (compactions != 0 || worn_rows != 0) {
    os << " compactions=" << compactions << " row_writes=" << row_writes
       << " worn=" << worn_rows;
  }
  if (fault.Any()) os << " faults={" << fault.ToString() << "}";
  return os.str();
}

PimDevice::PimDevice(const PimConfig& config, const FaultConfig& fault_config,
                     const RecoveryPolicy& recovery)
    : config_(config),
      timing_(config),
      fault_config_(fault_config),
      recovery_(recovery) {
  PIMINE_CHECK_OK(config.Validate());
  PIMINE_CHECK_OK(fault_config.Validate());
  if (fault_config_.enabled()) {
    faults_ = std::make_unique<FaultModel>(fault_config_);
  }
}

Status PimDevice::ProgramDataset(const IntMatrix& data, int operand_bits) {
  if (programmed()) {
    return Status::InvalidArgument(
        "ProgramDataset on an already-programmed device: use "
        "ReprogramDataset for an explicit full re-program or ProgramDelta "
        "to append");
  }
  return ProgramInternal(data, operand_bits);
}

Status PimDevice::ReprogramDataset(const IntMatrix& data, int operand_bits) {
  PIMINE_RETURN_IF_ERROR(ProgramInternal(data, operand_bits));
  stats_.aux_bytes_stored = 0;
  return Status::OK();
}

namespace {

// Also sets *max_operand to the largest of `rows`.
Status CheckOperands(const IntMatrix& rows, int operand_bits,
                     uint32_t* max_operand) {
  const int64_t limit =
      operand_bits >= 32 ? (1LL << 31) : (1LL << operand_bits);
  int32_t max = 0;
  for (size_t i = 0; i < rows.rows(); ++i) {
    for (int32_t v : rows.row(i)) {
      if (v < 0 || static_cast<int64_t>(v) >= limit) {
        return Status::InvalidArgument(
            "PIM operands must be non-negative integers fitting operand_bits");
      }
      max = std::max(max, v);
    }
  }
  *max_operand = static_cast<uint32_t>(max);
  return Status::OK();
}

}  // namespace

void PimDevice::RecordLayout() {
  const int64_t n = static_cast<int64_t>(data_.rows());
  const int64_t s = static_cast<int64_t>(data_.cols());
  stats_.programmed_vectors = n;
  stats_.programmed_dims = s;
  stats_.data_crossbars = NumDataCrossbars(n, operand_bits_, s,
                                           config_.crossbar_dim,
                                           config_.cell_bits);
  stats_.gather_crossbars = NumGatherCrossbars(n, operand_bits_, s,
                                               config_.crossbar_dim,
                                               config_.cell_bits);
}

Status PimDevice::ProgramInternal(const IntMatrix& data, int operand_bits) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot program an empty dataset");
  }
  if (operand_bits <= 0 || operand_bits > 32) {
    return Status::InvalidArgument("operand_bits must be in [1, 32]");
  }
  const int64_t n = static_cast<int64_t>(data.rows());
  const int64_t s = static_cast<int64_t>(data.cols());
  if (!FitsInPimArray(n, operand_bits, s, config_)) {
    std::ostringstream os;
    os << "dataset (" << n << " x " << s << ", " << operand_bits
       << "-bit) exceeds PIM array capacity of " << config_.num_crossbars
       << " crossbars; compress the dataset first (Theorem 4)";
    return Status::CapacityExceeded(os.str());
  }
  uint32_t data_max = 0;
  PIMINE_RETURN_IF_ERROR(CheckOperands(data, operand_bits, &data_max));

  data_ = data;
  data_max_ = data_max;
  operand_bits_ = operand_bits;
  RecordLayout();
  // Row-parallel programming: every used crossbar row is written once.
  const uint64_t rows_written =
      static_cast<uint64_t>(stats_.data_crossbars + stats_.gather_crossbars) *
      config_.crossbar_dim;
  const double program_ns = timing_.ProgramLatencyNs(rows_written);
  stats_.program_ns += program_ns;
  ++stats_.programming_events;
  // Per-slot endurance: every vector slot of the fresh base is written
  // once. Wear marking must precede BuildFaultState so worn slots draw
  // their wear stuck-ats against the new contents.
  ChargeRowWrites(0, data_.rows());
  if (faults_ != nullptr) BuildFaultState(0);
  obs::AddCounter("pimine_device_programs_total", 1);
  if (obs::Obs* o = obs::Obs::Get()) {
    if (o->trace().options().device_events) {
      o->trace().Complete("device", "program", obs::kDeviceTrack, program_ns,
                          "vectors", static_cast<int64_t>(n), "dims",
                          static_cast<int64_t>(s));
    }
  }
  return Status::OK();
}

namespace {

/// Residue modulus of the checksum column: 2^16 == 1 (mod kResidue), so a
/// 16-bit-aligned single-bit flip shifts the residue by a nonzero
/// 2^(i mod 16) — every single-fault corruption is detected; only
/// multi-fault cancellations mod kResidue can escape.
constexpr uint64_t kResidue = 65535;  // 2^16 - 1.

uint64_t ResidueOf(uint64_t v) { return v % kResidue; }

}  // namespace

auto PimDevice::ComputeObjectStuck(size_t v, uint64_t* stuck_cells) const
    -> std::vector<StuckDelta> {
  // Stuck cells of the data crossbars, folded per object into sparse
  // (dimension, read delta) lists: a cell stuck at `level` instead of its
  // true slice shifts every read of that operand by
  // (level - true_slice) << (slice * cell_bits). Worn slots additionally
  // draw wear stuck-ats (own salt, own rate) for cells the manufacturing
  // process left healthy.
  std::vector<StuckDelta> deltas;
  const size_t s = data_.cols();
  const int cell_bits = config_.cell_bits;
  const int slices = NumSlices(operand_bits_, cell_bits);
  const bool worn = fault_config_.wear_enabled() && RowWorn(v);
  const auto row = data_.row(v);
  for (size_t j = 0; j < s; ++j) {
    const uint64_t cell_base = (v * s + j) * static_cast<uint64_t>(slices);
    int64_t delta = 0;
    bool any = false;
    for (int slice = 0; slice < slices; ++slice) {
      uint8_t level = 0;
      bool stuck = faults_->CellStuck(FaultModel::kDataCellSalt,
                                      cell_base + slice, cell_bits, &level);
      if (!stuck && worn) {
        stuck = faults_->CellStuckAtRate(
            FaultModel::kWearCellSalt, cell_base + slice,
            fault_config_.wear_stuck_rate, cell_bits, &level);
      }
      if (!stuck) continue;
      ++*stuck_cells;
      const int64_t truth = static_cast<int64_t>(
          ExtractSlice(static_cast<uint32_t>(row[j]), slice, cell_bits));
      const int64_t diff = static_cast<int64_t>(level) - truth;
      if (diff != 0) {
        delta += diff << (slice * cell_bits);
        any = true;
      }
    }
    if (any) {
      deltas.push_back({static_cast<uint32_t>(j), delta});
    }
  }
  return deltas;
}

void PimDevice::RebuildGroupChecksum(size_t g, bool count_cells,
                                     uint64_t* stuck_cells) {
  // Per-group checksum columns: column sums of the group's operands mod
  // 2^16 - 1, stored as one extra 16-bit logical column per crossbar set.
  // The checksum cells sit on the same die, so they get their own stuck
  // draws (in a separate salt domain).
  const size_t n = data_.rows();
  const size_t s = data_.cols();
  const int cell_bits = config_.cell_bits;
  const int csum_slices = NumSlices(16, cell_bits);
  const size_t v0 = g * fault_group_size_;
  const size_t v1 = std::min(n, v0 + fault_group_size_);
  for (size_t j = 0; j < s; ++j) {
    uint64_t sum = 0;
    for (size_t v = v0; v < v1; ++v) {
      sum += static_cast<uint32_t>(data_.row(v)[j]);
    }
    csum_[g * s + j] = static_cast<uint32_t>(ResidueOf(sum));
  }
  // A remapped group's checksum lives on clean spare rows: keep it clear.
  if (g < remapped_.size() && remapped_[g]) return;
  csum_stuck_[g].clear();
  for (size_t j = 0; j < s; ++j) {
    const uint64_t cell_base = (g * s + j) * static_cast<uint64_t>(csum_slices);
    int64_t delta = 0;
    bool any = false;
    for (int slice = 0; slice < csum_slices; ++slice) {
      uint8_t level = 0;
      if (!faults_->CellStuck(FaultModel::kChecksumCellSalt, cell_base + slice,
                              cell_bits, &level)) {
        continue;
      }
      if (count_cells) ++*stuck_cells;
      const int64_t truth = static_cast<int64_t>(
          ExtractSlice(csum_[g * s + j], slice, cell_bits));
      const int64_t diff = static_cast<int64_t>(level) - truth;
      if (diff != 0) {
        delta += diff << (slice * cell_bits);
        any = true;
      }
    }
    if (any) {
      csum_stuck_[g].push_back({static_cast<uint32_t>(j), delta});
    }
  }
}

void PimDevice::BuildFaultState(size_t first_row) {
  const size_t n = data_.rows();
  const size_t s = data_.cols();
  if (first_row == 0) {
    // A full program: nothing of the old contents survives.
    const int slices = NumSlices(operand_bits_, config_.cell_bits);
    fault_group_size_ = std::max<size_t>(
        1, static_cast<size_t>(config_.crossbar_dim / slices));
    stuck_.clear();
    csum_.clear();
    csum_stuck_.clear();
    remapped_.clear();
  }
  const size_t old_groups =
      (first_row + fault_group_size_ - 1) / fault_group_size_;
  const size_t num_groups = (n + fault_group_size_ - 1) / fault_group_size_;

  // Position-deterministic draws: appending rows one at a time, in bulk, or
  // programming the merged dataset from scratch all land the same stuck
  // cells on the same (object, dim, slice) coordinates.
  stuck_.resize(n);
  uint64_t stuck_cells = 0;
  for (size_t v = first_row; v < n; ++v) {
    const size_t g = v / fault_group_size_;
    // Appends into a remapped group land on its clean spare rows.
    if (g < remapped_.size() && remapped_[g]) continue;
    stuck_[v] = ComputeObjectStuck(v, &stuck_cells);
  }
  csum_.resize(num_groups * s, 0);
  csum_stuck_.resize(num_groups);
  remapped_.resize(num_groups, 0);
  // The partial group the first new row lands in changes content (its
  // checksum column is rewritten in place — draws already counted); groups
  // past old_groups are brand new.
  for (size_t g = first_row / fault_group_size_; g < num_groups; ++g) {
    RebuildGroupChecksum(g, /*count_cells=*/g >= old_groups, &stuck_cells);
  }
  stats_.fault.stuck_cells += stuck_cells;
}

void PimDevice::ChargeRowWrites(size_t first, size_t count) {
  if (first + count > row_writes_.size()) {
    row_writes_.resize(first + count, 0);
    worn_.resize(first + count, 0);
  }
  const bool wear = fault_config_.wear_enabled();
  for (size_t v = first; v < first + count; ++v) {
    ++row_writes_[v];
    ++stats_.row_writes;
    if (wear && worn_[v] == 0 &&
        row_writes_[v] > fault_config_.endurance_limit) {
      worn_[v] = 1;
      ++stats_.worn_rows;
    }
  }
}

Status PimDevice::ProgramDelta(const IntMatrix& rows) {
  if (!programmed()) {
    return Status::FailedPrecondition(
        "program a base dataset before appending deltas");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot append an empty delta");
  }
  if (rows.cols() != data_.cols()) {
    return Status::InvalidArgument("delta dimensionality mismatch");
  }
  const int64_t s = static_cast<int64_t>(data_.cols());
  const int64_t new_n = static_cast<int64_t>(data_.rows() + rows.rows());
  if (!FitsInPimArray(new_n, operand_bits_, s, config_)) {
    return Status::CapacityExceeded(
        "delta append exceeds PIM array capacity (Theorem 4); compact or "
        "re-shard first");
  }
  uint32_t rows_max = 0;
  PIMINE_RETURN_IF_ERROR(CheckOperands(rows, operand_bits_, &rows_max));

  const size_t old_n = data_.rows();
  data_.AppendRows(rows);
  data_max_ = std::max(data_max_, rows_max);
  RecordLayout();
  // Incremental programming: each append slot is one row-parallel write.
  // Repeated addition keeps program_ns bit-identical across any grouping
  // of the same appends.
  double delta_ns = 0.0;
  for (size_t i = 0; i < rows.rows(); ++i) {
    const double row_ns = timing_.ProgramLatencyNs(1);
    stats_.program_ns += row_ns;
    delta_ns += row_ns;
  }
  ChargeRowWrites(old_n, rows.rows());
  if (faults_ != nullptr) BuildFaultState(old_n);
  obs::AddCounter("pimine_device_delta_programs_total", 1);
  obs::AddCounter("pimine_device_delta_vectors_total",
                  static_cast<int64_t>(rows.rows()));
  if (obs::Obs* o = obs::Obs::Get()) {
    if (o->trace().options().device_events) {
      o->trace().Complete("device", "program_delta", obs::kDeviceTrack,
                          delta_ns, "vectors",
                          static_cast<int64_t>(rows.rows()), "dims",
                          static_cast<int64_t>(s));
    }
  }
  return Status::OK();
}

Status PimDevice::CompactRows(std::span<const uint32_t> live) {
  if (!programmed()) {
    return Status::FailedPrecondition("no dataset programmed");
  }
  if (live.empty()) {
    return Status::InvalidArgument("compaction must keep at least one row");
  }
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i] >= data_.rows()) {
      return Status::InvalidArgument("compaction index out of range");
    }
    if (i > 0 && live[i] <= live[i - 1]) {
      return Status::InvalidArgument(
          "compaction indices must be strictly ascending");
    }
  }
  IntMatrix next(live.size(), data_.cols());
  for (size_t i = 0; i < live.size(); ++i) {
    const auto src = data_.row(live[i]);
    std::copy(src.begin(), src.end(), next.mutable_row(i).begin());
  }
  // A compaction is a full program of the fresh base: endurance-counted,
  // charged at ProgramLatencyNs over every written crossbar row, fault
  // state rebuilt.
  PIMINE_RETURN_IF_ERROR(ProgramInternal(next, operand_bits_));
  ++stats_.compactions;
  stats_.compacted_rows += live.size();
  obs::AddCounter("pimine_device_compactions_total", 1);
  return Status::OK();
}

Status PimDevice::ApplyFaultsAndRecover(std::span<const int32_t> queries,
                                        size_t num_queries,
                                        std::vector<uint64_t>* out,
                                        std::vector<uint8_t>* suspect,
                                        FaultStats* local) {
  const size_t n = data_.rows();
  const size_t s = data_.cols();
  const size_t num_groups = (n + fault_group_size_ - 1) / fault_group_size_;
  const bool verify = recovery_.verify_mode != VerifyMode::kNone;
  if (suspect != nullptr) suspect->assign(num_queries * n, 0);

  // Modeled recovery charges: a retry re-streams the query through the
  // group's pipeline; a remap re-programs the group's crossbar rows; a host
  // escalation re-reads the group's raw operands over the internal bus.
  const double retry_ns =
      timing_.BatchDotLatencyNs(static_cast<int64_t>(s), operand_bits_);
  const uint64_t group_rows =
      CeilDiv(static_cast<uint64_t>(s),
              static_cast<uint64_t>(config_.crossbar_dim)) *
      static_cast<uint64_t>(config_.crossbar_dim);
  const double remap_ns = timing_.ProgramLatencyNs(group_rows);

  std::vector<uint64_t> faulty(fault_group_size_);
  std::lock_guard<std::mutex> lock(fault_mu_);
  for (size_t q = 0; q < num_queries; ++q) {
    const int32_t* qv = queries.data() + q * s;
    uint64_t* true_dots = out->data() + q * n;
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t v0 = g * fault_group_size_;
      const size_t v1 = std::min(n, v0 + fault_group_size_);
      const size_t count = v1 - v0;

      // True checksum dot: dot(q, column sums mod 2^16-1). By linearity it
      // is congruent mod 2^16-1 to the sum of the group's true dots (as
      // long as no per-object dot wrapped past 2^64; a wrapped dot shows up
      // as a persistent mismatch and escalates, which stays exact).
      uint64_t csum_true = 0;
      const uint32_t* cs_col = csum_.data() + g * s;
      for (size_t j = 0; j < s; ++j) {
        csum_true += static_cast<uint64_t>(static_cast<uint32_t>(qv[j])) *
                     cs_col[j];
      }

      bool flagged_once = false;
      int attempts = 0;
      for (;;) {
        const uint64_t nonce = faults_->NextOpNonce();
        uint64_t corrupted = 0;
        for (size_t v = v0; v < v1; ++v) {
          uint64_t val = true_dots[v];
          for (const StuckDelta& sd : stuck_[v]) {
            val += static_cast<uint64_t>(sd.delta) *
                   static_cast<uint64_t>(static_cast<uint32_t>(qv[sd.dim]));
          }
          val ^= faults_->TransientMask(nonce, v - v0);
          faulty[v - v0] = val;
          if (val != true_dots[v]) ++corrupted;
        }
        uint64_t cs = csum_true;
        for (const StuckDelta& sd : csum_stuck_[g]) {
          cs += static_cast<uint64_t>(sd.delta) *
                static_cast<uint64_t>(static_cast<uint32_t>(qv[sd.dim]));
        }
        cs ^= faults_->TransientMask(nonce, count);
        if (cs != csum_true) ++corrupted;
        local->injected += corrupted;

        if (verify) ++local->checksum_checks;
        bool match = true;
        if (verify) {
          uint64_t residue = 0;
          for (size_t v = 0; v < count; ++v) {
            residue = ResidueOf(residue + ResidueOf(faulty[v]));
          }
          match = residue == ResidueOf(cs);
        }
        if (match) {
          // Accepted (clean pass, undetected corruption, or verification
          // off): the group's digitized values are what the host sees.
          local->escaped += corrupted;
          if (corrupted != 0) {
            std::copy(faulty.begin(), faulty.begin() + count, true_dots + v0);
          }
          break;
        }

        local->detected += corrupted;
        if (!flagged_once) {
          ++local->groups_flagged;
          flagged_once = true;
        }
        if (attempts < recovery_.max_retries) {
          ++attempts;
          ++local->retries;
          local->recovery_ns += retry_ns;
          continue;
        }
        if (recovery_.remap_on_permanent && !remapped_[g]) {
          // Re-program the group onto spare rows: its stuck cells (data and
          // checksum column) are gone from here on. Retry budget resets for
          // the post-remap passes.
          remapped_[g] = 1;
          for (size_t v = v0; v < v1; ++v) stuck_[v].clear();
          csum_stuck_[g].clear();
          local->remapped_rows += group_rows;
          local->recovery_ns += remap_ns;
          attempts = 0;
          continue;
        }

        // Unrecoverable on-device: escalate per the verify mode.
        switch (recovery_.verify_mode) {
          case VerifyMode::kHostExact:
            // Host re-reads the group's operands and recomputes the dots;
            // `out` already holds the true values, so just charge the
            // transfer (count rows of s operands over the internal bus).
            local->escalated_to_host += count;
            local->recovery_ns +=
                static_cast<double>(count * s * sizeof(int32_t)) /
                config_.internal_bus_gbps;
            break;
          case VerifyMode::kBoundSlack:
            // Hand over the corrupt values, flagged: the engine widens the
            // affected bounds to their trivial worst case.
            local->escalated_to_host += count;
            std::copy(faulty.begin(), faulty.begin() + count, true_dots + v0);
            for (size_t v = v0; v < v1; ++v) {
              (*suspect)[q * n + v] = 1;
            }
            break;
          case VerifyMode::kFailOp: {
            // Not an escalation here: the caller decides (the fleet's
            // host recompute counts the rows it re-reads).
            std::ostringstream os;
            os << "unrecoverable PIM fault: group " << g << " of query " << q
               << " (op nonce " << nonce << ")"
               << " still fails its residue checksum after "
               << recovery_.max_retries << " retries"
               << (recovery_.remap_on_permanent ? " and a remap" : "");
            return Status::DeviceFault(os.str());
          }
          case VerifyMode::kNone:
            break;  // unreachable: kNone always matches.
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status PimDevice::ExactDots(const char* op, std::span<const int32_t> queries,
                            size_t num_queries,
                            std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument(std::string(op) +
                                   " requires a non-null output vector");
  }
  if (!programmed()) {
    return Status::FailedPrecondition("no dataset programmed");
  }
  if (num_queries == 0) {
    return Status::InvalidArgument("empty query batch: " + std::string(op) +
                                   " requires num_queries >= 1");
  }
  if (queries.size() != num_queries * data_.cols()) {
    return Status::InvalidArgument("query batch dimensionality mismatch");
  }
  int32_t query_max = 0;
  for (int32_t v : queries) {
    if (v < 0) {
      return Status::InvalidArgument("PIM inputs must be non-negative");
    }
    query_max = std::max(query_max, v);
  }
  // Functional emulation of the analog dot-product: exact integer math with
  // natural uint64 wraparound (the least-significant-64-bit rule), computed
  // as one tiled GEMM over the whole batch.
  out->resize(num_queries * data_.rows());
  DotProductGemm(data_.data(), data_.rows(), data_.cols(), data_max_,
                 queries.data(), num_queries,
                 static_cast<uint32_t>(query_max), out->data());
  return Status::OK();
}

Status PimDevice::DotProductBatch(std::span<const int32_t> queries,
                                  size_t num_queries,
                                  std::vector<uint64_t>* out,
                                  std::vector<uint8_t>* suspect) {
  if (faults_ != nullptr && suspect == nullptr &&
      recovery_.verify_mode == VerifyMode::kBoundSlack) {
    return Status::FailedPrecondition(
        "VerifyMode::kBoundSlack requires a suspect buffer");
  }
  PIMINE_RETURN_IF_ERROR(ExactDots("DotProductBatch", queries, num_queries,
                                   out));
  const size_t n = data_.rows();

  // The pass ran, so it is charged below even when its fault phase fails
  // the op (kFailOp): the status is returned only after the charge.
  FaultStats local;
  Status fault_status;
  if (faults_ != nullptr) {
    fault_status =
        ApplyFaultsAndRecover(queries, num_queries, out, suspect, &local);
  } else if (suspect != nullptr) {
    suspect->clear();
  }

  const double query_ns = SerialDotNsPerQuery();
  const double batch_ns = BatchDotNs(num_queries);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batch_ops;
    stats_.queries_processed += num_queries;
    ++stats_.queries_per_batch[static_cast<int64_t>(num_queries)];
    // Per-query charges accumulate by repeated addition so the totals stay
    // bit-identical to num_queries single-query operations (one fused
    // `Q * x` add would round differently).
    const double query_pj = timing_.BatchDotEnergyPj(
        stats_.data_crossbars + stats_.gather_crossbars, operand_bits_);
    for (size_t q = 0; q < num_queries; ++q) {
      stats_.compute_ns += query_ns;
      stats_.compute_energy_pj += query_pj;
    }
    // Each partial sum repeats one constant, so completion order cannot
    // move it; a run of one batch size keeps a running sum's bits.
    pipelined_by_size_[static_cast<int64_t>(num_queries)] += batch_ns;
    stats_.pipelined_ns = 0.0;
    for (const auto& [size, ns] : pipelined_by_size_) stats_.pipelined_ns += ns;
    stats_.results_produced += num_queries * n;
    stats_.result_bytes_to_host += num_queries * n * sizeof(uint64_t);
    stats_.fault.Merge(local);
  }
  if (obs::Obs* o = obs::Obs::Get()) {
    // pimine_device_batch_ops_total legitimately varies with device_batch;
    // every other device counter is invariant under the grouping.
    o->metrics().GetCounter("pimine_device_batch_ops_total").Increment();
    o->metrics().GetCounter("pimine_device_queries_total").Add(num_queries);
    if (local.detected != 0) {
      o->metrics().GetCounter("pimine_faults_detected_total")
          .Add(local.detected);
    }
    if (local.retries != 0) {
      o->metrics().GetCounter("pimine_fault_retries_total").Add(local.retries);
    }
    if (o->trace().options().device_events) {
      o->trace().Complete("device", "dot_batch", obs::kDeviceTrack, batch_ns,
                          "queries", static_cast<int64_t>(num_queries),
                          "vectors", static_cast<int64_t>(n));
      if (local.recovery_ns > 0.0) {
        o->trace().Complete("device", "fault_recovery", obs::kDeviceTrack,
                            local.recovery_ns, "retries",
                            static_cast<int64_t>(local.retries),
                            "remapped_rows",
                            static_cast<int64_t>(local.remapped_rows));
      }
    }
  }
  return fault_status;
}

Status PimDevice::HostRecomputeBatch(std::span<const int32_t> queries,
                                     size_t num_queries,
                                     std::vector<uint64_t>* out) {
  PIMINE_RETURN_IF_ERROR(ExactDots("HostRecomputeBatch", queries, num_queries,
                                   out));
  std::lock_guard<std::mutex> lock(stats_mu_);
  // The same per-group escalation charge the recovery ladder applies
  // (VerifyMode::kHostExact), extended over every group of every query:
  // the host re-reads the full operand matrix per query over the internal
  // bus. Repeated per-query addition keeps the total bit-identical across
  // batch groupings.
  const size_t n = data_.rows();
  const double escalate_ns =
      static_cast<double>(n * data_.cols() * sizeof(int32_t)) /
      config_.internal_bus_gbps;
  for (size_t q = 0; q < num_queries; ++q) {
    stats_.fault.escalated_to_host += n;
    stats_.fault.recovery_ns += escalate_ns;
  }
  return Status::OK();
}

double PimDevice::SerialDotNsPerQuery() const {
  if (!programmed()) return 0.0;
  return timing_.BatchDotLatencyNs(static_cast<int64_t>(data_.cols()),
                                   operand_bits_);
}

double PimDevice::BatchDotNs(size_t num_queries) const {
  if (!programmed() || num_queries == 0) return 0.0;
  return timing_.BatchDotLatencyNs(static_cast<int64_t>(data_.cols()),
                                   operand_bits_,
                                   static_cast<int64_t>(num_queries));
}

Status PimDevice::StoreAux(uint64_t bytes) {
  if (stats_.aux_bytes_stored + bytes > config_.memory_array_bytes) {
    return Status::CapacityExceeded("ReRAM memory array full");
  }
  stats_.aux_bytes_stored += bytes;
  stats_.program_ns += static_cast<double>(bytes) /
                       static_cast<double>(config_.internal_bus_gbps);
  return Status::OK();
}

double PimDevice::EnduranceRemainingFraction() const {
  const double used = static_cast<double>(stats_.programming_events) /
                      config_.endurance_writes;
  return used >= 1.0 ? 0.0 : 1.0 - used;
}

PimDeviceStats PimDevice::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void PimDevice::ResetOnlineStats() {
  stats_.batch_ops = 0;
  stats_.queries_processed = 0;
  stats_.queries_per_batch.clear();
  stats_.compute_ns = 0.0;
  stats_.pipelined_ns = 0.0;
  pipelined_by_size_.clear();
  stats_.compute_energy_pj = 0.0;
  stats_.results_produced = 0;
  stats_.result_bytes_to_host = 0;
  // Fault counters are per-run; stuck_cells is a property of the programmed
  // array (offline), like program_ns.
  const uint64_t stuck_cells = stats_.fault.stuck_cells;
  stats_.fault = FaultStats();
  stats_.fault.stuck_cells = stuck_cells;
}

}  // namespace pimine
