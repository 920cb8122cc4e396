#ifndef PIMINE_CORE_ENGINE_H_
#define PIMINE_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/memory_planner.h"
#include "core/quantize.h"
#include "core/similarity.h"
#include "data/matrix.h"
#include "pim/fleet.h"
#include "pim/pim_config.h"
#include "pim/pim_device.h"

namespace pimine {

/// How the engine turns a similarity function into a PIM-aware bound.
enum class EngineMode {
  /// Theorem 1: LB_PIM-ED on the full (quantized) vectors.
  kDirectEd,
  /// Theorem 2: LB_PIM-FNN on segment means + stddevs (two PIM matrices).
  kSegmentFnn,
  /// Means-only segment bound (PIM-aware LB_SM; one PIM matrix).
  kSegmentSm,
  /// Upper bound on cosine similarity.
  kCosine,
  /// Upper bound on Pearson correlation.
  kPearson,
};

std::string_view EngineModeName(EngineMode mode);

/// Build-time knobs for PimEngine.
struct EngineOptions {
  /// Scaling factor of Eq. 5; the paper's default is 1e6 (§VI-B).
  double alpha = 1e6;
  /// PIM hardware description.
  PimConfig pim_config;
  /// Bit width of crossbar operands (the paper keeps 32, §VI-B).
  int operand_bits = 32;
  /// Bound family. ED queries default to automatic selection: direct when
  /// the dataset fits at full dimensionality, segment-FNN otherwise
  /// (Theorem 4 chooses s).
  enum class Bound { kAuto, kDirectEd, kSegmentFnn, kSegmentSm };
  Bound bound = Bound::kAuto;
  /// For segment modes: use exactly this many segments (0 = let Theorem 4
  /// maximize s).
  int64_t force_segments = 0;
  /// ReRAM fault injection for the engine's device(s); disabled by default
  /// (bit-identical to fault-free behaviour). A kSegmentFnn second device
  /// draws from a decorrelated seed.
  FaultConfig fault_config;
  /// Recovery policy the device(s) apply to checksum-flagged results.
  RecoveryPolicy recovery;
  /// Multi-device sharding (consumed by ShardedPimEngine; a plain PimEngine
  /// ignores it and always runs single-device). shard.shards == 1 keeps the
  /// exact single-device behaviour.
  ShardOptions shard;

  /// Checks what every engine build needs: alpha in [1, 2e9] (the
  /// Quantizer's range), PimConfig::Validate and FaultConfig::Validate.
  /// ResolveEngineGeometry runs it first.
  Status Validate() const;
};

/// The geometry PimEngine::Build picks for an n x d dataset: the mode, the
/// bound to force on a shard (kAuto for CS/PCC), the Theorem 4 plan and
/// the segment count (0 outside the segment modes).
struct EngineGeometry {
  EngineMode mode = EngineMode::kDirectEd;
  EngineOptions::Bound bound = EngineOptions::Bound::kAuto;
  MemoryPlan plan;
  int64_t segments = 0;
};

/// Resolves the geometry, failing with EngineOptions::Validate's errors,
/// then Build's bound and capacity errors.
Result<EngineGeometry> ResolveEngineGeometry(int64_t n, int64_t d,
                                             Distance distance,
                                             const EngineOptions& options);

/// The paper's framework in one object (§V): offline, it normalizes the
/// roles — quantize the dataset (Eq. 5-6), compress it to the Theorem 4
/// dimensionality if needed (§V-C), program the PIM array, and pre-compute
/// the Phi terms of the PIM-aware (bound) function; online, each query
/// costs one or two PIM batch dot-products plus O(1) host work per
/// candidate, transferring 3*b bits instead of d*b (Fig. 8).
///
/// A PimEngine is one shard of a ShardedPimEngine, which is its query
/// front end (DESIGN.md section 9): the fleet calls PrepareBatch and
/// DeviceBatch (or a fail-over substitute) and routes BoundFor/BoundsFor.
///
/// For ED the produced values are *lower bounds on squared ED*; for CS/PCC
/// they are *upper bounds on similarity*. Guarantees (tested as invariants):
///   ED modes:  BoundFor(h, q, i) <= SquaredEuclidean(data[i], query q)
///   CS mode:   BoundFor(h, q, i) >= CosineSimilarity(data[i], query q)
///   PCC mode:  BoundFor(h, q, i) >= PearsonCorrelation(data[i], query q)
///
/// Input data and queries must already be normalized into [0, 1] per
/// dimension (use MinMaxScaler); Build rejects out-of-range data.
class PimEngine {
 public:
  /// The host-side terms of one vector's bound (Eq. 3, Table 4), offline
  /// for an object and online for a query; EncodeRow computes both the
  /// same way. Only the engine mode's fields are meaningful.
  struct BoundTerms {
    double phi = 0.0;        // PhiEd / PhiFnn / PhiSm.
    double sum_floor = 0.0;  // CS/PCC: sum of floor(alpha * v).
    double norm = 0.0;       // CS: |v|;  PCC: phi_a(v).
    double phi_b = 0.0;      // PCC.
  };

  /// Result of one *batched* PIM operation covering `num_queries` queries:
  /// one dot-product buffer per device matrix (query q's results occupy
  /// dots[k][q*stride, (q+1)*stride)) plus per-query scalar terms. Filled
  /// by PrepareBatch + DeviceBatch (the fleet's RunQueryBatch); consumed
  /// through BoundsFor (one query's span) or BoundFor (one object). Bound
  /// values do not depend on how queries are grouped into batches.
  struct QueryHandleBatch {
    size_t num_queries = 0;
    size_t stride = 0;  // == num_objects().
    std::vector<std::vector<uint64_t>> dots;  // One per device matrix.
    std::vector<BoundTerms> terms;            // One entry per query.
    /// Per-result fault flags, one list per device laid out like its dots
    /// (kBoundSlack only; a list is empty when its device verified clean).
    /// A flagged result's bound is the trivial worst-case bound, keeping
    /// pruning admissible.
    std::vector<std::vector<uint8_t>> suspect;
  };

  /// Reusable per-call working memory for PrepareBatch and DeviceBatch.
  /// Engines hold no mutable query state, so any number of host threads
  /// may run queries concurrently, each with its own scratch.
  struct QueryScratch {
    /// Device operands, one list per device matrix: num_queries *
    /// OperandWidth() values each.
    std::vector<std::vector<int32_t>> ops;
    std::vector<float> means;  // EncodeRow, segment modes.
    std::vector<float> stds;
  };

  /// Builds the offline state: plans the layout (Theorem 4), programs the
  /// PIM array, and pre-computes Phi for every object. `data` rows must be
  /// in [0, 1].
  static Result<std::unique_ptr<PimEngine>> Build(const FloatMatrix& data,
                                                  Distance distance,
                                                  const EngineOptions& options);

  /// Host half of a batched query: validates the `num_queries` queries
  /// packed row-major in `queries` (num_queries * dims() values in [0, 1])
  /// and encodes each one (EncodeRow, as Build encodes objects) into the
  /// batch's terms and its device operands in scratch->ops, charging the
  /// host-side quantize traffic and spans exactly once. The fleet
  /// (ShardedPimEngine::RunQueryBatch) calls it once on one shard and fans
  /// the prepared operands out to every shard, so the query-side work is
  /// never duplicated per shard.
  Status PrepareBatch(std::span<const float> queries, size_t num_queries,
                      QueryScratch* scratch, QueryHandleBatch* batch) const;

  /// Device half: matches the operands PrepareBatch left in `scratch`
  /// (from this engine or a geometry-identical sibling) against this
  /// engine's programmed dataset with a single PimDevice::DotProductBatch
  /// per device, sets batch->stride to num_objects() and sets the dots and
  /// suspect flags of every device (a reused handle needs no reset). Each
  /// device charges one batch_op (and the pipelined batch latency) instead
  /// of num_queries separate operations; bounds are bit-identical to
  /// one-query batches, and all modeled stats except batch_ops /
  /// queries_per_batch / pipelined_ns are too. Per-query trace spans are
  /// the fleet's to emit.
  Status DeviceBatch(const QueryScratch& scratch, size_t num_queries,
                     QueryHandleBatch* batch) const;

  /// Fail-over substitute for DeviceBatch: computes the same exact dot
  /// products on the host from the programmed operands
  /// (PimDevice::HostRecomputeBatch), bypassing the device fault model.
  /// Results are bit-identical to a fault-free DeviceBatch with empty
  /// suspect lists; only fault-escalation accounting is charged.
  Status HostRecomputeBatch(const QueryScratch& scratch, size_t num_queries,
                            QueryHandleBatch* batch) const;

  /// Degraded-mode substitute for DeviceBatch when no device path is
  /// reachable and the policy is to shed rather than stall: fills the
  /// batch with every result flagged suspect, so BoundFor returns the
  /// trivial admissible bound (0 for the ED family, 1 for CS/PCC) and the
  /// host refine stage still produces exact results — at host-exact cost
  /// for this engine's candidates (exact-after-refine, never wrong). No
  /// device or transfer accounting is charged: nothing moved.
  Status SlackFillBatch(size_t num_queries, QueryHandleBatch* batch) const;

  /// Appends `rows` (same dimensionality, values in [0, 1]) to the engine:
  /// encodes them as Build does, programs the device delta region(s)
  /// incrementally (ProgramLatencyNs per appended row), and extends the
  /// per-object offline terms. Appended objects take physical indices
  /// [num_objects(), num_objects() + rows.rows()). Bounds for the grown
  /// engine are bit-identical to an engine built from scratch on the
  /// merged dataset, since both go through ProgramRows one row at a time.
  /// Not safe concurrently with in-flight queries.
  Status AppendRows(const FloatMatrix& rows);

  /// Replaces every object with `rows` (as AppendRows takes them) in one
  /// full program of each device, charged and counted against endurance
  /// like Build's. Build's geometry stays, so bounds are bit-identical to
  /// an engine built on `rows` with it. Not safe concurrently with
  /// in-flight queries.
  Status Reprogram(const FloatMatrix& rows);

  /// Keeps only the objects `live` (strictly ascending indices, at least
  /// one) by rewriting them into a fresh base on every device, charged at
  /// full program cost (the background compaction pass); new index i
  /// holds old index live[i]. Post-compaction state is bit-identical to
  /// an engine freshly built on the surviving rows. The engine keeps no
  /// record of deletes: its fleet (ShardedPimEngine) does, and derives
  /// `live` from it.
  Status Compact(std::span<const uint32_t> live);

  /// The admissible never-refine bound the fleet substitutes for deleted
  /// rows: +inf for the ED family (sorts last under minimize), -inf for
  /// CS/PCC (sorts last once the search negates for maximize).
  double PruneBound() const;

  /// Lazy combine for `batch` query `query` against object `index`: O(1)
  /// host work, 3*b bits of transfer. For callers that inspect single
  /// objects (k-means' per-pair bounds, motif's per-pair test).
  double BoundFor(const QueryHandleBatch& batch, size_t query,
                  size_t index) const;

  /// Span combine: the bound of `batch` query `query` for every object.
  /// Object i lands in out[i], or in out[scatter[i]] when `scatter` (one
  /// entry per object) is given — the fleet passes each shard's
  /// local-to-global row map. A row the fleet's `deleted` flags (empty, or
  /// indexed like `out`) mark takes PruneBound(), every other row BoundFor's
  /// value, bit for bit, as the fleet's BoundFor gives them. The mode
  /// dispatch runs once per span; deleted and suspect objects are
  /// overwritten in a sparse second pass, and the traffic of exactly the
  /// objects combined is charged once, so the counters equal the
  /// per-object loop's.
  void BoundsFor(const QueryHandleBatch& batch, size_t query,
                 std::span<double> out,
                 std::span<const uint32_t> scatter = {},
                 std::span<const uint8_t> deleted = {}) const;

  EngineMode mode() const { return mode_; }
  const MemoryPlan& plan() const { return plan_; }
  size_t num_objects() const { return num_objects_; }
  size_t dims() const { return dims_; }
  int64_t num_segments() const { return num_segments_; }
  int64_t segment_length() const { return segment_length_; }
  double alpha() const { return quantizer_.alpha(); }
  /// Device operand values per vector and device matrix: one per segment
  /// in the segment modes, one per dimension otherwise.
  size_t OperandWidth() const {
    return num_segments_ > 0 ? static_cast<size_t>(num_segments_) : dims_;
  }

  /// Per-candidate data-transfer cost of this bound in bits (the T_cost(B)
  /// input to the Eq. 13 plan optimizer): 3 operands of b bits.
  double TransferBitsPerCandidate() const { return 3.0 * operand_bits_; }

  /// Online accounting of the engine's devices.
  struct DeviceTotals {
    uint64_t batch_ops = 0;
    uint64_t queries_processed = 0;
    double pim_ns = 0.0;        // serial-equivalent compute_ns (NVSim role).
    double pipelined_ns = 0.0;  // modeled occupancy with batch pipelining.
    FaultStats fault;           // all-zero without options.fault_config.
    uint64_t row_writes = 0;    // write endurance.
    uint64_t worn_rows = 0;
    double program_ns = 0.0;    // offline: programming + Phi store.
    void Add(const DeviceTotals& other);  // fault merges as FaultStats.
  };
  /// The one place the engine sums its devices' stats, in device order,
  /// each read through PimDevice::StatsSnapshot (a live scrape may call it
  /// while batches are in flight).
  DeviceTotals DeviceStatsTotal() const;
  /// Serial-equivalent modeled device time one query costs this engine
  /// (summed over its devices). Invariant across device batching and host
  /// threading — the per-query figure observability spans charge.
  double SerialDeviceNsPerQuery() const;
  /// Modeled pipelined occupancy one DeviceBatch of `num_queries` queries
  /// would charge (summed over its devices). Pure — the virtual-clock
  /// service time the serving scheduler charges per dispatch.
  double ModeledBatchNs(size_t num_queries) const;
  /// Modeled offline time: crossbar programming + Phi storage, in every
  /// mode.
  double OfflineNs() const { return offline_ns_; }
  /// Bytes written during the offline stage (programming + Phi terms).
  uint64_t OfflineBytesWritten() const { return offline_bytes_written_; }
  void ResetOnlineStats();

  /// The engine's device matrices: two in kSegmentFnn (segment means, then
  /// segment stds), one otherwise.
  size_t num_devices() const { return devices_.size(); }
  const PimDevice& device(size_t k) const { return *devices_[k]; }
  /// Device 0, and device 1 or null: kept for pimbench only; src and
  /// tests use num_devices() and device(k).
  const PimDevice& device1() const { return device(0); }
  const PimDevice* device2() const {
    return devices_.size() > 1 ? devices_[1].get() : nullptr;
  }

 private:
  PimEngine(EngineMode mode, const EngineOptions& options);

  /// Encodes one vector in [0, 1], an object or a query, for this mode:
  /// writes its operands for device k into scratch->ops[k] at offset `at`,
  /// OperandWidth() values each, and returns its bound terms. Segment
  /// modes use scratch->means/stds.
  BoundTerms EncodeRow(std::span<const float> row, size_t at,
                       QueryScratch* scratch) const;

  /// The device write of Build, Reprogram and AppendRows.
  enum class Program { kFirst, kReplace, kAppend };

  /// Encodes `rows` and programs them (ProgramDataset, ReprogramDataset or
  /// ProgramDelta, as `how` says), then stores their terms and charges the
  /// program time, the term store and the bytes of both to the offline
  /// totals.
  Status ProgramRows(const FloatMatrix& rows, Program how);

  /// Reprogram's and AppendRows' check: rows of this width in [0, 1].
  Status CheckRows(const FloatMatrix& rows) const;

  /// The checks DeviceBatch and HostRecomputeBatch (`op`) share: a handle
  /// to fill and operands PrepareBatch left for this geometry.
  Status CheckPrepared(const char* op, const QueryScratch& scratch,
                       size_t num_queries,
                       const QueryHandleBatch* batch) const;

  /// Sets `batch`'s stride to num_objects() and sizes its per-device dots
  /// and suspect lists; DeviceBatch, HostRecomputeBatch and SlackFillBatch
  /// then fill every entry, so a reused handle needs no reset.
  void ShapeHandle(QueryHandleBatch* batch) const;


  /// Worst-case admissible value substituted for suspect results: 0 for the
  /// ED family (a squared distance is never negative), 1 for CS/PCC (a
  /// cosine/correlation never exceeds 1).
  double TrivialBound() const;

  /// Calls `visit` with this mode's bound formula for `batch` query
  /// `query` — a pure callable from object index to bound — and returns
  /// what `visit` returns. BoundFor and BoundsFor both go through it, so
  /// they evaluate the same expression; the callers charge the traffic.
  template <typename Visit>
  auto WithBoundFormula(const QueryHandleBatch& batch, size_t query,
                        Visit visit) const;

  EngineMode mode_;
  Quantizer quantizer_;
  int operand_bits_;
  MemoryPlan plan_;
  size_t num_objects_ = 0;
  size_t dims_ = 0;
  int64_t num_segments_ = 0;
  int64_t segment_length_ = 1;

  /// One device per operand matrix; a later device's fault seed is
  /// decorrelated from device 0's.
  std::vector<std::unique_ptr<PimDevice>> devices_;

  std::vector<BoundTerms> terms_;  // One entry per object.

  double offline_ns_ = 0.0;
  uint64_t offline_bytes_written_ = 0;
};

/// PimEngine::DeviceTotals' fields; the exported ones are per fleet shard.
inline constexpr obs::StatField<PimEngine::DeviceTotals>
    kDeviceTotalsFields[] = {
        {&PimEngine::DeviceTotals::batch_ops,
         "pimine_fleet_shard_batch_ops_total",
         "Device batch operations issued on this shard."},
        {&PimEngine::DeviceTotals::queries_processed,
         "pimine_fleet_shard_queries_total",
         "Queries matched by this shard's devices."},
        {&PimEngine::DeviceTotals::pim_ns, "pimine_fleet_shard_pim_ns",
         "Serial-equivalent modeled device compute time of this shard."},
        {&PimEngine::DeviceTotals::pipelined_ns,
         "pimine_fleet_shard_pipelined_ns",
         "Modeled pipelined device occupancy of this shard."},
        {&PimEngine::DeviceTotals::row_writes},
        {&PimEngine::DeviceTotals::worn_rows},
        {&PimEngine::DeviceTotals::program_ns}};

}  // namespace pimine

#endif  // PIMINE_CORE_ENGINE_H_
