#ifndef PIMINE_CORE_SHARDED_ENGINE_H_
#define PIMINE_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "data/matrix.h"
#include "obs/stat_fields.h"
#include "pim/chaos.h"
#include "pim/fleet.h"
#include "sim/traffic.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pimine {

struct RunStats;

/// A fleet of PIM devices acting as one logical engine (DESIGN.md section
/// 9): the dataset is sharded across M per-shard PimEngines (ShardOptions
/// placement), each query batch is prepared once on the host, scattered to
/// every shard, matched in parallel, and the per-shard dot products are
/// gathered for the host's global combine. Only the device/transfer layer
/// is sharded — BoundFor routes one global object index to its shard's
/// results and BoundsFor scatters each shard's span into global order, so
/// the host pipeline above (bounds, sort, refine) is untouched
/// and every functional result and grouping-invariant counter is
/// bit-identical to the single-device run for every M. What legitimately
/// varies with M is the new FleetRunStats scatter/gather/reduce accounting
/// (and the per-shard device batch_ops, like device_batch already does).
/// M = 1 is no special case: it builds, dispatches and walks the failover
/// ladder like any other fleet.
///
/// The geometry (bound family, segment count) is always resolved on the
/// FULL dataset, exactly as PimEngine::Build would, then forced on every
/// shard — a smaller shard must not pick a different Theorem 4 plan, or
/// results would depend on M.
class ShardedPimEngine {
 public:
  using QueryScratch = PimEngine::QueryScratch;

  /// One per-shard QueryHandleBatch per fleet member; BoundFor routes
  /// global object indices into them. size() == shards().
  struct QueryHandleBatch {
    size_t num_queries = 0;
    std::vector<PimEngine::QueryHandleBatch> shards;
  };

  static Result<std::unique_ptr<ShardedPimEngine>> Build(
      const FloatMatrix& data, Distance distance,
      const EngineOptions& options);

  /// One batched fleet operation, the only query front end of the PIM
  /// engines: PrepareBatch once on the host (query-side scalars + quantized
  /// operands, charged exactly once), scatter the operands to every shard
  /// (one DeviceBatch per shard, fanned out under set_fanout_policy),
  /// gather the results, and emit one serial-equivalent set of per-query
  /// device spans. A shard whose replicas all fail with DeviceFault is
  /// escalated to a host-exact recompute of that shard.
  /// Bounds derived from the handle are bit-identical for every M. Fills a
  /// caller-owned handle (per-shard sub-handles and all their buffers are
  /// reused across calls), the zero-allocation steady-state path of the
  /// serving scheduler's dispatch loop.
  Status RunQueryBatch(std::span<const float> queries, size_t num_queries,
                       QueryScratch* scratch, QueryHandleBatch* out) const;

  /// As above, allocating scratch and handle internally.
  Result<QueryHandleBatch> RunQueryBatch(std::span<const float> queries,
                                         size_t num_queries) const;

  /// One walk of a shard's failover ladder for one device-batch chunk
  /// (DESIGN.md section 12): the replica that serves it, or a shed, and
  /// everything the walk charges.
  struct LadderPlan {
    /// Replica that serves the chunk; -1 when the op sheds off-device.
    int serving_replica = 0;
    /// serving_replica's strike count before the walk reset it, restored
    /// if a data-plane fault proves the attempt failed after all.
    uint32_t serving_strikes = 0;
    /// The walk's FailoverStats: outcome (injected/recovered/shed), failed
    /// attempts, strikes, strike-outs, retry re-scatter and backoff.
    FailoverStats charges;
    /// Modeled time the walk adds: backoff + re-scatter per retry.
    double extra_ns = 0.0;
  };

  /// Per-dispatch context of the failover ladder. The default value is the
  /// plain overloads' behaviour (no chaos instant, host-exact shedding).
  struct DispatchOptions {
    /// Dispatch instant on the caller's clock (virtual ns in replay) the
    /// chaos schedule is evaluated at.
    uint64_t now_ns = 0;
    /// Degraded mode: when every replica of a shard is exhausted, serve
    /// the shard as a bound-slack fill (exact-after-refine) instead of a
    /// host-exact recompute — shedding modeled device work, not accuracy.
    bool slack_on_exhaustion = false;
    /// Ladder budget: cumulative seeded backoff one dispatch may spend
    /// walking a shard's replicas before the op sheds. 0 = unbounded.
    uint64_t deadline_ns = 0;
    /// The ladder plan of every shard (size shards()), from PlanLadder.
    /// Empty: each shard plans its ladder against the live replica health.
    std::span<const LadderPlan> plans;
  };

  /// As the reusing overload, with explicit failover/chaos context. Each
  /// shard runs its plan; only a data-plane DeviceFault, which no plan
  /// foresees, continues the walk. Every transition of the ladder lands in
  /// FailoverStats (FleetStats().failover, injected == recovered + shed).
  Status RunQueryBatch(std::span<const float> queries, size_t num_queries,
                       QueryScratch* scratch, QueryHandleBatch* out,
                       const DispatchOptions& dispatch) const;

  /// Walks shard j's ladder for a chunk of `num_queries` at the dispatch
  /// instant: replicas in order (primary first), skipping struck-out ones;
  /// before each retry a seeded backoff (shedding instead if it would
  /// exceed dispatch.deadline_ns) and an operand re-scatter; a replica the
  /// chaos schedule has down takes a strike, and max_strikes consecutive
  /// strikes strike it out. The walk is pure in (schedule, ShardOptions,
  /// replica health, instant, chunk size) and advances the shard's replica
  /// health as if its plan runs: the serving replica's strikes reset.
  LadderPlan PlanLadder(size_t j, size_t num_queries,
                        const DispatchOptions& dispatch) const;

  // --- Chaos plane ------------------------------------------------------
  /// Installs a chaos schedule (owned by the caller, outliving the
  /// engine's use). nullptr (the default) disables availability faults
  /// entirely — bit-identical to the pre-chaos engine.
  void set_chaos(const ChaosSchedule* chaos) { chaos_ = chaos; }

  /// The bound for `batch` query `query` against GLOBAL object `index`:
  /// PruneBound() for a deleted row, else routed to shard_of(index) and
  /// combined there. Bit-identical to the single-device BoundFor.
  double BoundFor(const QueryHandleBatch& batch, size_t query,
                  size_t index) const;

  /// The bounds of `batch` query `query` for every GLOBAL object, into
  /// `out` (num_objects() values): one PimEngine::BoundsFor span per shard,
  /// scattered through ShardMap::rows_per_shard, with the deleted flags of
  /// a shard that holds deleted rows. Bit-identical to BoundFor on each
  /// object, with the same traffic totals.
  void BoundsFor(const QueryHandleBatch& batch, size_t query,
                 std::span<double> out) const;

  // --- Mutable datasets (DESIGN.md section 13) -------------------------
  // The fleet is the one record of row state (deleted_, shard_live_ and
  // delta_objects_ below); its devices and shard engines keep none of it.
  /// Appends `rows` to the fleet. Each appended row is assigned the next
  /// global id (num_objects() before the call + its position) and routed
  /// round-robin over the shards by append sequence; the row is delta-
  /// programmed onto EVERY replica of its target shard, so replicas keep
  /// holding identical shard datasets. Because appended global ids exceed
  /// all existing ids, shard-local layouts stay ascending in global id and
  /// BoundFor routing stays bit-identical to a merged re-build. Mutations
  /// must be externally serialized against queries, other mutations and
  /// FleetStats snapshots; on error the fleet may be left partially
  /// mutated and should be discarded.
  Status AppendRows(const FloatMatrix& rows);
  /// Records GLOBAL row `index` as deleted: its bound becomes PruneBound()
  /// (sorts last, never refined), so results are bit-identical to a fleet
  /// that never held the row, while its crossbar rows keep computing
  /// until Compact (a delete writes no cell). Fails with InvalidArgument
  /// when out of range or already deleted, and with FailedPrecondition
  /// when it would empty a shard (every shard keeps at least one live
  /// row); a refused delete changes nothing.
  Status DeleteRow(size_t index);
  /// Whether GLOBAL row `index` is deleted.
  bool IsDeleted(size_t index) const;
  /// Rewrites every shard's live rows into a fresh dense base (full
  /// re-program at program cost on every replica) and renumbers global ids
  /// densely in ascending old-id order — identical to the ids of a
  /// from-scratch build of the merged live dataset.
  Status Compact();
  /// Rows not deleted / appended since the last compaction / deleted.
  size_t live_objects() const;
  size_t delta_objects() const { return delta_objects_; }
  size_t tombstoned_objects() const { return num_objects_ - live_objects(); }

  // --- Fleet geometry -------------------------------------------------
  size_t shards() const { return engines_.size(); }
  ShardPlacement placement() const { return options_.shard.placement; }
  const ShardMap& shard_map() const { return map_; }
  int replicas() const { return options_.shard.replicas; }
  /// The shard-j PRIMARY engine (tests / stats inspection).
  const PimEngine& shard_engine(size_t j) const { return *engines_[j][0]; }
  /// Replica r of shard j (tests / stats inspection).
  const PimEngine& replica_engine(size_t j, size_t r) const {
    return *engines_[j][r];
  }

  // --- Replica health ---------------------------------------------------
  /// Replica that served shard j's most recent dispatch (0 = primary;
  /// replicas() = the op shed off-device).
  int serving_replica(size_t j) const;
  /// Shard j's most recent dispatch was served as a bound-slack fill.
  bool shard_slack_mode(size_t j) const;
  /// Consecutive-failure strike count of replica r of shard j.
  int replica_strikes(size_t j, size_t r) const;
  /// Replica r of shard j has been struck out (skipped by the ladder).
  bool replica_out(size_t j, size_t r) const;
  /// Shard j is degraded: serving off its primary replica, in bound-slack
  /// mode, or carrying a struck-out replica.
  bool shard_degraded(size_t j) const;
  /// Number of degraded shards (the pimine_fleet_degraded_shards gauge and
  /// the /healthz "degraded" body are derived from this).
  int DegradedShards() const;
  /// Readmits every struck-out replica and clears strike counts (operator
  /// action after repairing devices). Does not touch accounting.
  void ResetReplicaHealth();

  // --- Pass-through accessors (identical across shards) ---------------
  EngineMode mode() const { return primary(0).mode(); }
  /// The full-dataset memory plan the fleet geometry was resolved from.
  const MemoryPlan& plan() const { return plan_; }
  size_t num_objects() const { return num_objects_; }
  size_t dims() const { return primary(0).dims(); }
  int64_t num_segments() const { return primary(0).num_segments(); }
  int64_t segment_length() const { return primary(0).segment_length(); }
  double alpha() const { return primary(0).alpha(); }
  double TransferBitsPerCandidate() const {
    return primary(0).TransferBitsPerCandidate();
  }
  double SerialDeviceNsPerQuery() const {
    return primary(0).SerialDeviceNsPerQuery();
  }
  /// Modeled pipelined occupancy of one fleet dispatch of `num_queries`
  /// queries: the shards run concurrently and the crossbar pass latency is
  /// row-count independent, so the fleet figure equals any one shard's.
  double ModeledBatchNs(size_t num_queries) const {
    return primary(0).ModeledBatchNs(num_queries);
  }

  // --- Fleet-aggregated stats -----------------------------------------
  // The device figures read ShardHealthSnapshot, the one reduction of a
  // shard's device stats.
  /// Serial-equivalent modeled PIM time: the max over shards (they run
  /// concurrently) of ShardHealth::pim_ns. The pass latency is row-count
  /// independent, so a fault-free fleet equals the single device bit-for-bit.
  double PimComputeNs() const;
  /// Max over shards of ShardHealth::pipelined_ns.
  double PimPipelinedNs() const;
  /// ShardHealth::fault merged over the shards.
  FaultStats FaultStatsTotal() const;
  /// The engine half of a PIM run's epilogue (RunScope::Close, and live
  /// serving's snapshots): PimComputeNs, FaultStatsTotal and FleetStats
  /// into stats->pim_ns, fault and fleet, from one snapshot per shard.
  void CloseRun(RunStats* stats) const;
  /// Offline time: shards program concurrently, so the max over shards.
  double OfflineNs() const;
  /// Offline bytes written across the whole fleet (sum over shards).
  uint64_t OfflineBytesWritten() const;
  void ResetOnlineStats();

  /// Snapshot of the fleet accounting: the sum of ShardHealthSnapshot(j)
  /// over the shards (reduce_* stays fleet-level: a tree reduction has no
  /// single owning shard). The interconnect ns figures are derived from the
  /// summed integer counters (InterconnectNs), so they are identical for
  /// every thread interleaving; the interconnect counters are zero when
  /// shards == 1.
  FleetRunStats FleetStats() const;

  /// Health snapshot of one fleet member: its interconnect and ladder
  /// counters (the InterconnectStats base), and its devices' accounting —
  /// the DeviceTotals base, each replica's DeviceStatsTotal summed in
  /// replica order (a failed attempt's pass charges the replica it ran on).
  /// Safe to call while dispatches are in flight. Summing any integer field
  /// over all shards reproduces the corresponding FleetStats() aggregate
  /// exactly.
  struct ShardHealth : PimEngine::DeviceTotals, InterconnectStats {
    int serving_replica = 0;
    bool degraded = false;
  };
  ShardHealth ShardHealthSnapshot(size_t j) const;

  /// Writes one snapshot pass into `registry`: the per-shard rows of the
  /// interconnect, device, fault and failover tables labeled
  /// {shard="j"}, then the fleet-wide rows of FleetStats and the fleet
  /// geometry gauges. Totals across shards equal the FleetStats() /
  /// FaultStatsTotal() aggregates exactly.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  /// Charges one tree reduction of per-shard partials with `payload_bytes`
  /// per merge message (k-means centroid sums): ceil(log2 M) critical-path
  /// messages. No-op when shards == 1.
  void ChargeTreeReduction(uint64_t payload_bytes) const;

  /// Execution policy for the per-shard DeviceBatch fan-out. Default is
  /// serial (inline on the caller): RunQueryBatch is typically invoked
  /// from inside a ParallelChunks worker, where a nested parallel fan-out
  /// on the shared pool could deadlock. Coordinators that call from the
  /// main thread (k-means BeginIteration) may opt in to a parallel
  /// fan-out; functional results and stats are identical either way.
  void set_fanout_policy(const ExecPolicy& policy) {
    fanout_policy_ = policy;
  }

 private:
  ShardedPimEngine() = default;

  PimEngine& primary(size_t j) const { return *engines_[j][0]; }

  /// Ladder health of one replica. `strikes` counts CONSECUTIVE failed
  /// attempts (any success resets it); at max_strikes the replica is
  /// struck out and skipped until ResetReplicaHealth().
  struct ReplicaHealth {
    uint32_t strikes = 0;
    bool out = false;
  };
  ReplicaHealth HealthOf(size_t j, size_t r) const;

  /// Runs shard j's share of one dispatch: its plan (handed in or walked
  /// now), continuing the walk past a replica only on a data-plane
  /// DeviceFault, and escalating off-device when the plan sheds.
  Status DeviceBatchWithFailover(size_t j, const QueryScratch& scratch,
                                 size_t num_queries,
                                 PimEngine::QueryHandleBatch* handle,
                                 const DispatchOptions& dispatch) const;

  /// The ladder walk behind PlanLadder, from rung `from` on, against
  /// `health`; extends `plan` and re-decides its outcome.
  void WalkLadder(size_t j, size_t num_queries,
                  const DispatchOptions& dispatch, int from,
                  std::span<ReplicaHealth> health, LadderPlan* plan) const;

  /// Records a failed attempt on replica r: with a replica to fail over
  /// to, a strike, and at max_strikes consecutive ones a strike-out.
  void FailAttempt(std::span<ReplicaHealth> health, int r,
                   FailoverStats* charges) const;

  /// ShardHealthSnapshot of every shard, in shard order.
  std::vector<ShardHealth> ShardHealths() const;
  /// FleetStats over one snapshot pass.
  FleetRunStats FleetStatsOf(std::span<const ShardHealth> health) const;

  /// Modeled time of `messages` interconnect messages carrying `bytes`:
  /// PimTimingModel::TransferLatencyNs summed per message.
  double InterconnectNs(uint64_t messages, uint64_t bytes) const;

  /// Bytes of one operand re-scatter to a retry replica, computed from the
  /// fleet geometry (not from live scratch buffers), so a plan's figure
  /// does not depend on who executes it.
  uint64_t RetryOperandBytes(size_t num_queries) const;

  EngineOptions options_;
  MemoryPlan plan_;
  size_t num_objects_ = 0;
  ShardMap map_;
  /// engines_[j][r]: replica r of shard j. Replica 0 is the deterministic
  /// primary and keeps the exact pre-replica build (seed formula
  /// included), so no-fault runs are bit-identical to replicas == 1.
  std::vector<std::vector<std::unique_ptr<PimEngine>>> engines_;
  ExecPolicy fanout_policy_;  // default-constructed: serial.

  // Availability-fault plane: an installed schedule is consulted (purely,
  // by dispatch instant) before every replica attempt. Never owned.
  const ChaosSchedule* chaos_ = nullptr;

  // Fleet interconnect accounting, kept PER SHARD (heap-allocated: atomics
  // are immovable) so the telemetry plane can expose each member's health;
  // FleetStats() sums the shards. The ns figures are derived at snapshot.
  struct ShardCounters {
    obs::CounterArray<kInterconnectFields> counts;
    // Last-dispatch serving state (health reporting, not accounting).
    std::atomic<uint32_t> serving_replica{0};
    std::atomic<bool> slack_mode{false};
    // The shard's replica health (one entry per replica), advanced by
    // PlanLadder and data-plane faults, and the sum of the charges of the
    // plans it ran (order-independent integer sums).
    mutable std::mutex ladder_mu;
    std::vector<ReplicaHealth> health;
    FailoverStats failover;
  };
  mutable std::vector<std::unique_ptr<ShardCounters>> shard_counters_;
  // The fleet's own counters: tree reductions (which merge per-shard
  // partials pairwise, so no shard owns them) and the cumulative mutation
  // counters, atomic only so concurrent FleetStats / metrics snapshots stay
  // race-free (mutations themselves are externally serialized).
  mutable obs::CounterArray<kFleetFields> fleet_counters_;
  // Drives the round-robin row placement and survives compaction, so a
  // long insert stream keeps balancing the shards.
  uint64_t append_seq_ = 0;
  // The record of row state (see Mutable datasets above).
  std::vector<uint8_t> deleted_;    // 1 per deleted GLOBAL row.
  std::vector<size_t> shard_live_;  // each shard's rows not deleted.
  size_t delta_objects_ = 0;        // rows appended since the last Compact.
};

/// The open and close of every run's RunStats: kNN Search, k-means Run,
/// serving Replay, outlier Detect, motif Find and Hamming Search. One run
/// is one scope, so the run's wall time, its ledger (traffic, counts and
/// Fig. 6 profile) and its fleet's device figures cover the same work. The
/// ledger is the calling thread's delta, which RunSlotPass's slots fold
/// back into, so no other thread's work leaks into the run.
class RunScope {
 public:
  /// Resets `fleet`'s online stats (null for a host-only run), then opens
  /// the calling thread's ledger scope and the wall clock.
  explicit RunScope(ShardedPimEngine* fleet);

  /// The run's epilogue: wall_ms and the RunLedger fields since
  /// construction, and with a fleet CloseRun's pim_ns, fault and fleet.
  /// Call on the constructing thread after every worker of the run has
  /// finished; a charge made after Close is not part of the run.
  void Close(RunStats* stats) const;

 private:
  ShardedPimEngine* const fleet_;
  const traffic::AggregateScope ledger_;
  const Timer wall_;
};

}  // namespace pimine

#endif  // PIMINE_CORE_SHARDED_ENGINE_H_
