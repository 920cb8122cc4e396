#ifndef PIMINE_PIM_FLEET_H_
#define PIMINE_PIM_FLEET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "obs/stat_fields.h"

namespace pimine {

/// How dataset rows are distributed over the logical devices of a fleet.
/// Every placement produces balanced shards (sizes differ by at most one
/// row) and is deterministic in (n, shards) — re-building the same fleet
/// always yields the same map.
enum class ShardPlacement {
  /// Rows [0, n) split into contiguous ranges (shard 0 gets the first
  /// ceil(n/M) rows, ...). Preserves locality of pre-sorted datasets.
  kContiguous,
  /// Rows scattered pseudo-randomly (SplitMix64 of the row index orders the
  /// rows before the balanced split). Load-balances clustered datasets.
  kHash,
  /// Rows ordered by their per-dimension mean before the balanced split, so
  /// rows of similar magnitude (typically the same cluster for normalized
  /// clustered data) land on the same device.
  kClusterAware,
};

std::string_view ShardPlacementName(ShardPlacement placement);

/// Parses "contiguous" / "hash" / "cluster" (CLI spelling).
Result<ShardPlacement> ParseShardPlacement(std::string_view name);

/// Build-time knobs of a device fleet. The default (one shard) is the
/// single-device configuration: it returns a plain PimEngine's results and
/// fails over like any other fleet.
struct ShardOptions {
  /// Logical devices M the dataset is sharded across. Must satisfy
  /// 1 <= shards <= n (rejected with InvalidArgument otherwise).
  int shards = 1;
  ShardPlacement placement = ShardPlacement::kContiguous;
  /// Copies of every shard programmed onto independent devices, in
  /// [1, kMaxReplicas]. Replicas hold the identical shard dataset with
  /// decorrelated fault seeds; replica 0 is the deterministic primary, so
  /// results are bit-identical to single-replica runs while no fault
  /// fires. Each copy charges its own ProgramLatencyNs (offline bytes sum
  /// over copies; offline time is the max — copies program concurrently).
  int replicas = 1;
  /// Consecutive failed attempts after which a replica is marked unhealthy
  /// and skipped by the failover ladder (a successful attempt resets the
  /// count; ResetReplicaHealth() readmits struck-out replicas). Ignored
  /// when replicas == 1: with nothing to fail over to, a faulted op
  /// escalates directly — exactly the pre-replica ladder.
  int max_strikes = 3;

  static constexpr int kMaxReplicas = 8;

  /// Checks the replication knobs (replicas range, max_strikes >= 1).
  Status ValidateReplication() const;
};

/// Replica-failover accounting of one fleet run. The locked invariant:
/// injected == recovered + shed — every op (one shard's share of one
/// dispatch) that lost its primary device path is either served by another
/// replica or shed off-device (host-exact recompute / bound-slack fill);
/// nothing is dropped and nothing is double-counted. Integer counters are
/// mutated relaxed under concurrent dispatches; failover_ns is derived
/// from them at snapshot time, so it is identical for every interleaving.
struct FailoverStats {
  /// Ops that lost at least one device attempt (or found every replica
  /// already struck out).
  uint64_t injected = 0;
  /// ...of which served exactly by a later healthy replica.
  uint64_t recovered = 0;
  /// ...of which escalated off-device.
  uint64_t shed = 0;
  /// Individual failed replica attempts (chaos_denied + device_faults).
  uint64_t attempts_failed = 0;
  /// Attempts denied by the chaos schedule (replica or link down).
  uint64_t chaos_denied = 0;
  /// Attempts that returned DeviceFault from the replica's devices.
  uint64_t device_faults = 0;
  /// Strike marks recorded against replicas (replicas > 1 only).
  uint64_t strikes = 0;
  /// Replicas marked unhealthy after max_strikes consecutive failures.
  uint64_t struck_out = 0;
  /// Sheds served as bound-slack fills instead of host recompute.
  uint64_t slack_fills = 0;
  /// Operand re-scatter traffic to retry replicas.
  uint64_t retry_messages = 0;
  uint64_t retry_bytes = 0;
  /// Summed seeded-jitter backoff waits (integer ns).
  uint64_t backoff_ns = 0;
  /// Derived at snapshot: backoff + modeled retry re-scatter time.
  double failover_ns = 0.0;

  bool Balanced() const { return injected == recovered + shed; }
  bool Any() const;
  void Merge(const FailoverStats& other);
  std::string ToString() const;
};

/// FailoverStats' fields, exported per fleet shard.
inline constexpr obs::StatField<FailoverStats> kFailoverStatsFields[] = {
    {&FailoverStats::injected, "pimine_failover_injected_total",
     "Shard-dispatch ops that lost at least one replica attempt."},
    {&FailoverStats::recovered, "pimine_failover_recovered_total",
     "Injected ops completed on a later healthy replica."},
    {&FailoverStats::shed, "pimine_failover_shed_total",
     "Injected ops escalated off-device (host-exact or bound-slack)."},
    {&FailoverStats::attempts_failed, "pimine_failover_attempts_failed_total",
     "Individual replica attempts that failed on this shard."},
    {&FailoverStats::chaos_denied, "pimine_failover_chaos_denied_total",
     "Replica attempts denied by the chaos schedule."},
    {&FailoverStats::device_faults, "pimine_failover_device_faults_total",
     "Replica attempts lost to an unrecoverable device fault."},
    {&FailoverStats::strikes, "pimine_failover_strikes_total",
     "Strikes recorded against this shard's replicas."},
    {&FailoverStats::struck_out, "pimine_failover_struck_out_total",
     "Replicas struck out of this shard's ladder."},
    {&FailoverStats::slack_fills, "pimine_failover_slack_fills_total",
     "Shed ops served as bound-slack fills on this shard."},
    {&FailoverStats::retry_messages, "pimine_failover_retry_messages_total",
     "Operand re-scatter messages to retry replicas."},
    {&FailoverStats::retry_bytes, "pimine_failover_retry_bytes_total",
     "Operand re-scatter bytes to retry replicas."},
    {&FailoverStats::backoff_ns, "pimine_failover_backoff_ns_total",
     "Seeded backoff waited between replica attempts."},
    {&FailoverStats::failover_ns, "pimine_fleet_shard_failover_ns",
     "Modeled failover time of this shard (retry transfer + backoff)."},
};

/// The row <-> shard mapping of one fleet: rows_per_shard[j] lists the
/// global row ids of shard j in ascending order (the shard-local order),
/// and shard_of/local_of invert the map for O(1) routing.
struct ShardMap {
  std::vector<std::vector<uint32_t>> rows_per_shard;
  std::vector<uint32_t> shard_of;  // global row -> shard.
  std::vector<uint32_t> local_of;  // global row -> row within its shard.

  size_t shards() const { return rows_per_shard.size(); }
};

/// Builds the placement map for `data` under `options`. Fails with
/// InvalidArgument when options.shards < 1 or options.shards > data.rows().
Result<ShardMap> BuildShardMap(const FloatMatrix& data,
                               const ShardOptions& options);

/// Interconnect and escalation accounting of one fleet shard (ShardHealth)
/// or summed over the fleet (FleetRunStats). The integer counters are
/// exact for every host thread interleaving; the ns figures are derived
/// from them and the PimConfig interconnect parameters at snapshot time
/// (PimTimingModel::TransferLatencyNs per message; see DESIGN.md section
/// 9). The interconnect counters are zero when shards == 1.
struct InterconnectStats {
  /// Query broadcasts: one message per shard per device batch, carrying the
  /// batch's quantized operands.
  uint64_t scatter_messages = 0;
  uint64_t scatter_bytes = 0;
  /// Result gathers: one message per shard per device batch, carrying the
  /// shard's dot-product results.
  uint64_t gather_messages = 0;
  uint64_t gather_bytes = 0;
  /// Ops escalated off-device after the replica ladder was exhausted: the
  /// ladder sheds every such op, so this is failover.shed.
  uint64_t failovers = 0;
  uint64_t failed_over_queries = 0;
  double scatter_ns = 0.0;
  double gather_ns = 0.0;
  /// Replica-failover ladder accounting (all-zero when no fault fired).
  FailoverStats failover;
};

/// InterconnectStats' fields, exported per fleet shard.
inline constexpr obs::StatField<InterconnectStats> kInterconnectFields[] = {
    {&InterconnectStats::scatter_messages,
     "pimine_fleet_shard_scatter_messages_total",
     "Operand broadcast messages received by this shard."},
    {&InterconnectStats::scatter_bytes,
     "pimine_fleet_shard_scatter_bytes_total",
     "Operand bytes received by this shard."},
    {&InterconnectStats::gather_messages,
     "pimine_fleet_shard_gather_messages_total",
     "Result messages returned by this shard."},
    {&InterconnectStats::gather_bytes, "pimine_fleet_shard_gather_bytes_total",
     "Result bytes returned by this shard."},
    {&InterconnectStats::failovers, "pimine_fleet_shard_failovers_total",
     "Off-device escalations after the replica ladder was exhausted.",
     obs::kDerived},
    {&InterconnectStats::failed_over_queries,
     "pimine_fleet_shard_failed_over_queries_total",
     "Queries served off-device on this shard."},
    {&InterconnectStats::scatter_ns, "pimine_fleet_shard_scatter_ns",
     "Modeled scatter transfer time charged to this shard."},
    {&InterconnectStats::gather_ns, "pimine_fleet_shard_gather_ns",
     "Modeled gather transfer time charged to this shard."},
};

/// Interconnect/fleet accounting of one run over a sharded engine. Unlike
/// the grouping-invariant RunStats counters, these quantities legitimately
/// depend on the fleet geometry (shards, device_batch): they model the
/// host<->device traffic that sharded execution adds. The failover,
/// mutation and endurance counters are not zero when shards == 1.
struct FleetRunStats : InterconnectStats {
  int shards = 1;
  ShardPlacement placement = ShardPlacement::kContiguous;
  /// Shards currently off their primary replica or in bound-slack mode.
  int degraded_shards = 0;
  /// Tree reduction of k-means centroid partial sums: critical-path
  /// messages (one per tree level), their payloads and modeled time.
  uint64_t reduce_messages = 0;
  uint64_t reduce_bytes = 0;
  double reduce_ns = 0.0;
  /// Mutable-dataset accounting (see DESIGN.md section 13). Cumulative
  /// since build: mutations are maintenance work, so ResetOnlineStats
  /// leaves these untouched.
  uint64_t appended_rows = 0;   // rows appended via delta programming.
  uint64_t deleted_rows = 0;    // tombstones recorded.
  uint64_t compactions = 0;     // fleet-wide compaction passes.
  uint64_t compacted_rows = 0;  // live rows rewritten by compactions.
  /// Current un-compacted delta rows / deleted rows, from the fleet's one
  /// record of row state (a count per fleet, not per copy).
  uint64_t delta_rows = 0;
  uint64_t tombstoned_rows = 0;
  /// Write-endurance totals summed over every device copy (replicas are
  /// physical devices, so each copy wears independently).
  uint64_t row_writes = 0;
  uint64_t worn_rows = 0;

  double InterconnectNs() const { return scatter_ns + gather_ns + reduce_ns; }
  /// The run moved interconnect traffic or escalated an op off-device.
  bool Any() const;

  std::string ToString() const;
};

/// FleetRunStats' own fields, exported fleet-wide.
inline constexpr obs::StatField<FleetRunStats> kFleetFields[] = {
    {&FleetRunStats::reduce_messages, "pimine_fleet_reduce_messages_total",
     "Tree-reduction messages on the fleet critical path."},
    {&FleetRunStats::reduce_bytes, "pimine_fleet_reduce_bytes_total",
     "Tree-reduction payload bytes on the fleet critical path."},
    {&FleetRunStats::appended_rows, "pimine_mutation_appended_rows_total",
     "Rows appended to the fleet via delta programming.", obs::kLifetime},
    {&FleetRunStats::deleted_rows, "pimine_mutation_deleted_rows_total",
     "Rows tombstoned on the fleet.", obs::kLifetime},
    {&FleetRunStats::compactions, "pimine_mutation_compactions_total",
     "Fleet-wide compaction passes (base + delta rewritten).", obs::kLifetime},
    {&FleetRunStats::compacted_rows, "pimine_mutation_compacted_rows_total",
     "Live rows rewritten by compaction passes.", obs::kLifetime},
    {&FleetRunStats::delta_rows, "pimine_mutation_delta_rows",
     "Un-compacted delta rows currently programmed (primary copies).",
     obs::kGauge | obs::kDerived},
    {&FleetRunStats::tombstoned_rows, "pimine_mutation_tombstoned_rows",
     "Rows currently tombstoned (primary copies).",
     obs::kGauge | obs::kDerived},
    {&FleetRunStats::row_writes, "pimine_mutation_row_writes_total",
     "Row program operations summed over every device copy "
     "(write-endurance accounting).", obs::kDerived},
    {&FleetRunStats::worn_rows, "pimine_mutation_worn_rows",
     "Rows past the configured write-endurance limit over every "
     "device copy.",
     obs::kGauge | obs::kDerived},
};

}  // namespace pimine

#endif  // PIMINE_PIM_FLEET_H_
