#include "core/sharded_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "data/normalize.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "profiling/run_stats.h"
#include "util/random.h"

namespace pimine {
namespace {

/// Decorrelates replica r of shard j from the primary: each copy is its
/// own physical device with its own fault pattern. Replica 0 never gets a
/// replica salt, so the primary's build (and with it every no-fault run)
/// is bit-identical to a replicas == 1 fleet.
uint64_t ReplicaSeedSalt(uint64_t j, uint64_t r) {
  return Mix64(0x5eed0000ULL + j * ShardOptions::kMaxReplicas + r);
}

/// Token feeding the seeded backoff jitter: a pure mix of the dispatch
/// instant and the shard, so concurrent ladders of the same dispatch draw
/// identical waits regardless of thread interleaving.
uint64_t BackoffToken(uint64_t now_ns, uint64_t shard) {
  return Mix64(now_ns ^ Mix64(shard));
}

/// Rows `rows` of `data`, in that order.
FloatMatrix GatherRows(const FloatMatrix& data,
                       std::span<const uint32_t> rows) {
  FloatMatrix out(rows.size(), data.cols());
  for (size_t local = 0; local < rows.size(); ++local) {
    const auto src = data.row(rows[local]);
    std::copy(src.begin(), src.end(), out.mutable_row(local).begin());
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<ShardedPimEngine>> ShardedPimEngine::Build(
    const FloatMatrix& data, Distance distance, const EngineOptions& options) {
  auto fleet = std::unique_ptr<ShardedPimEngine>(new ShardedPimEngine());
  fleet->options_ = options;
  fleet->num_objects_ = data.rows();
  PIMINE_RETURN_IF_ERROR(options.shard.ValidateReplication());
  PIMINE_ASSIGN_OR_RETURN(fleet->map_, BuildShardMap(data, options.shard));
  // Resolve the geometry on the FULL dataset, then force it on every
  // shard: a shard's smaller plan must not change the bound function, or
  // results would depend on M.
  PIMINE_ASSIGN_OR_RETURN(
      const EngineGeometry geometry,
      ResolveEngineGeometry(static_cast<int64_t>(data.rows()),
                            static_cast<int64_t>(data.cols()), distance,
                            options));
  fleet->plan_ = geometry.plan;
  EngineOptions shard_options = options;
  shard_options.shard = ShardOptions();  // each member is one device.
  shard_options.bound = geometry.bound;
  shard_options.force_segments = geometry.segments;

  const size_t m = fleet->map_.shards();
  fleet->engines_.resize(m);
  for (size_t j = 0; j < m; ++j) {
    // One shard holds every row in order, so it programs `data` itself.
    const FloatMatrix part =
        m > 1 ? GatherRows(data, fleet->map_.rows_per_shard[j])
              : FloatMatrix();
    const FloatMatrix& shard_data = m > 1 ? part : data;
    // Every copy is its own physical device: shard j > 0 and replica r > 0
    // decorrelate their fault seeds, and each copy charges its own offline
    // programming pass.
    for (int r = 0; r < options.shard.replicas; ++r) {
      EngineOptions er = shard_options;
      if (j > 0) er.fault_config.seed ^= Mix64(j);
      if (r > 0) {
        er.fault_config.seed ^= ReplicaSeedSalt(j, static_cast<uint64_t>(r));
      }
      PIMINE_ASSIGN_OR_RETURN(std::unique_ptr<PimEngine> engine,
                              PimEngine::Build(shard_data, distance, er));
      fleet->engines_[j].push_back(std::move(engine));
    }
    fleet->shard_counters_.push_back(std::make_unique<ShardCounters>());
    fleet->shard_counters_.back()->health.resize(options.shard.replicas);
    fleet->shard_live_.push_back(fleet->map_.rows_per_shard[j].size());
  }
  fleet->deleted_.assign(data.rows(), 0);
  return fleet;
}

Result<ShardedPimEngine::QueryHandleBatch> ShardedPimEngine::RunQueryBatch(
    std::span<const float> queries, size_t num_queries) const {
  QueryScratch scratch;
  QueryHandleBatch out;
  PIMINE_RETURN_IF_ERROR(RunQueryBatch(queries, num_queries, &scratch, &out));
  return out;
}

Status ShardedPimEngine::RunQueryBatch(std::span<const float> queries,
                                       size_t num_queries,
                                       QueryScratch* scratch,
                                       QueryHandleBatch* result) const {
  return RunQueryBatch(queries, num_queries, scratch, result,
                       DispatchOptions());
}

Status ShardedPimEngine::RunQueryBatch(std::span<const float> queries,
                                       size_t num_queries,
                                       QueryScratch* scratch,
                                       QueryHandleBatch* result,
                                       const DispatchOptions& dispatch) const {
  if (result == nullptr) {
    return Status::InvalidArgument(
        "RunQueryBatch requires a non-null batch handle");
  }
  QueryHandleBatch& out = *result;
  out.num_queries = num_queries;
  out.shards.resize(engines_.size());
  // Query-side work (validation, scalars, quantization) happens ONCE on
  // shard 0's engine — every shard shares the quantizer and geometry, so
  // the prepared operands serve the whole fleet and the host traffic stays
  // identical to the single-device run.
  PIMINE_RETURN_IF_ERROR(
      primary(0).PrepareBatch(queries, num_queries, scratch, &out.shards[0]));
  const size_t m = engines_.size();
  for (size_t j = 1; j < m; ++j) {
    PimEngine::QueryHandleBatch& h = out.shards[j];
    h.num_queries = num_queries;
    h.terms = out.shards[0].terms;
  }

  // Scatter: every shard matches the same prepared operands against its
  // rows, walking its replica ladder on a fault.
  std::vector<Status> status(m, Status::OK());
  ParallelChunks(fanout_policy_, m, 1,
                 [&](size_t begin, size_t end, size_t /*slot*/) {
                   for (size_t j = begin; j < end; ++j) {
                     status[j] = DeviceBatchWithFailover(
                         j, *scratch, num_queries, &out.shards[j], dispatch);
                   }
                 });
  for (size_t j = 0; j < m; ++j) {
    PIMINE_RETURN_IF_ERROR(status[j]);
  }

  // Interconnect accounting (none within one device): every shard receives
  // one operand broadcast per device matrix and returns one result message
  // per device matrix carrying its own dot products, charged to the shard
  // each message terminates at.
  const uint64_t matrices = primary(0).num_devices();
  if (m > 1) {
    uint64_t operand_bytes = 0;
    for (const auto& ops : scratch->ops) {
      operand_bytes += ops.size() * sizeof(int32_t);
    }
    for (size_t j = 0; j < m; ++j) {
      uint64_t result_bytes = 0;
      for (const auto& dots : out.shards[j].dots) {
        result_bytes += dots.size() * sizeof(uint64_t);
      }
      auto& counts = shard_counters_[j]->counts;
      counts.Add<&InterconnectStats::scatter_messages>(matrices);
      counts.Add<&InterconnectStats::scatter_bytes>(operand_bytes);
      counts.Add<&InterconnectStats::gather_messages>(matrices);
      counts.Add<&InterconnectStats::gather_bytes>(result_bytes);
    }
  }

  // The one emitter of the per-query device spans, at every M, whichever
  // rung of the ladder served each shard: the shards run concurrently and
  // the pass latency is row-count independent, so the fleet's serial-
  // equivalent per-query device time is one pass of each device matrix —
  // the same at every device-batch size and shard count.
  if (obs::Obs* const o = obs::Obs::Get()) {
    for (size_t q = 0; q < num_queries; ++q) {
      const int64_t track = obs::TrackFor(static_cast<int64_t>(q));
      for (size_t k = 0; k < matrices; ++k) {
        o->trace().Complete("engine", k == 0 ? "pim_dot" : "pim_dot2", track,
                            primary(0).device(k).SerialDotNsPerQuery());
      }
    }
  }
  return Status::OK();
}

Status ShardedPimEngine::DeviceBatchWithFailover(
    size_t j, const QueryScratch& scratch, size_t num_queries,
    PimEngine::QueryHandleBatch* handle,
    const DispatchOptions& dispatch) const {
  ShardCounters& ctr = *shard_counters_[j];
  LadderPlan plan;
  if (dispatch.plans.empty()) {
    plan = PlanLadder(j, num_queries, dispatch);
  } else {
    PIMINE_DCHECK(dispatch.plans.size() == engines_.size());
    plan = dispatch.plans[j];
  }
  while (plan.serving_replica >= 0) {
    const int r = plan.serving_replica;
    const Status s = engines_[j][r]->DeviceBatch(scratch, num_queries, handle);
    if (s.ok()) break;
    if (s.code() != StatusCode::kDeviceFault) return s;
    // A data-plane fault, which no plan foresees: the attempt failed after
    // all, so the walk continues past r against the live replica health.
    std::lock_guard<std::mutex> lock(ctr.ladder_mu);
    ctr.health[r].strikes = plan.serving_strikes;
    ++plan.charges.device_faults;
    FailAttempt(ctr.health, r, &plan.charges);
    WalkLadder(j, num_queries, dispatch, r + 1, ctr.health, &plan);
  }
  const bool shed = plan.serving_replica < 0;
  if (shed && dispatch.slack_on_exhaustion) {
    plan.charges.slack_fills = 1;
  }
  if (plan.charges.injected != 0) {
    std::lock_guard<std::mutex> lock(ctr.ladder_mu);
    ctr.failover.Merge(plan.charges);
  }
  if (!shed) {
    ctr.serving_replica.store(static_cast<uint32_t>(plan.serving_replica),
                              std::memory_order_relaxed);
    ctr.slack_mode.store(false, std::memory_order_relaxed);
    return Status::OK();
  }

  // Every replica exhausted (struck out, denied, faulted, or priced out by
  // the ladder deadline): the op loses its device path and escalates.
  if (dispatch.slack_on_exhaustion) {
    // Degraded mode: serve the shard as a bound-slack fill — every bound
    // is the admissible trivial bound, so results stay exact after refine
    // while the shard sheds its modeled device work.
    PIMINE_RETURN_IF_ERROR(primary(j).SlackFillBatch(num_queries, handle));
  } else {
    PIMINE_RETURN_IF_ERROR(
        primary(j).HostRecomputeBatch(scratch, num_queries, handle));
  }
  ctr.slack_mode.store(dispatch.slack_on_exhaustion,
                       std::memory_order_relaxed);
  ctr.serving_replica.store(static_cast<uint32_t>(engines_[j].size()),
                            std::memory_order_relaxed);
  ctr.counts.Add<&InterconnectStats::failed_over_queries>(num_queries);
  return Status::OK();
}

ShardedPimEngine::LadderPlan ShardedPimEngine::PlanLadder(
    size_t j, size_t num_queries, const DispatchOptions& dispatch) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  ShardCounters& ctr = *shard_counters_[j];
  LadderPlan plan;
  std::lock_guard<std::mutex> lock(ctr.ladder_mu);
  WalkLadder(j, num_queries, dispatch, 0, ctr.health, &plan);
  return plan;
}

namespace {

// Seeded-jitter exponential backoff between replica attempts:
// kBackoffBaseNs * 2^(attempt-1) + hash % (kBackoffJitterNs + 1), the
// jitter a pure hash of (kBackoffSeed, dispatch instant, attempt); see
// FailoverBackoffNs in pim/chaos.h.
constexpr uint64_t kBackoffBaseNs = 2000;
constexpr uint64_t kBackoffJitterNs = 1000;
constexpr uint64_t kBackoffSeed = 0xBAC0FF;

}  // namespace

void ShardedPimEngine::WalkLadder(size_t j, size_t num_queries,
                                  const DispatchOptions& dispatch, int from,
                                  std::span<ReplicaHealth> health,
                                  LadderPlan* plan) const {
  const uint64_t now_ns = dispatch.now_ns;
  const bool chaos_on = chaos_ != nullptr && chaos_->enabled();
  const uint64_t matrices = primary(0).num_devices();
  const uint64_t retry_bytes = RetryOperandBytes(num_queries);
  const double retry_ns = InterconnectNs(matrices, retry_bytes);
  const uint32_t shard = static_cast<uint32_t>(j);
  FailoverStats& f = plan->charges;
  f.injected = f.recovered = f.shed = 0;
  bool skipped_out = false;
  for (int r = from; r < static_cast<int>(health.size()); ++r) {
    if (health[r].out) {
      skipped_out = true;
      continue;
    }
    if (f.attempts_failed > 0) {
      // Retry transition: seeded exponential backoff, then re-scatter the
      // operands to the new replica. The deadline is checked BEFORE the
      // wait is charged — an op that cannot afford the next rung sheds
      // immediately rather than burning budget it does not have.
      const uint64_t wait = FailoverBackoffNs(
          kBackoffBaseNs, kBackoffJitterNs, kBackoffSeed,
          BackoffToken(now_ns, j), static_cast<int>(f.attempts_failed));
      if (dispatch.deadline_ns != 0 &&
          f.backoff_ns + wait > dispatch.deadline_ns) {
        break;
      }
      f.backoff_ns += wait;
      f.retry_messages += matrices;
      f.retry_bytes += retry_bytes;
      plan->extra_ns += static_cast<double>(wait) + retry_ns;
    }
    if (chaos_on &&
        (chaos_->LinkDown(shard, now_ns) ||
         chaos_->ReplicaDown(shard, static_cast<uint32_t>(r), now_ns))) {
      // The chaos schedule denies this attempt outright: the replica (or
      // the shard's interconnect) is unavailable at the dispatch instant.
      ++f.chaos_denied;
      FailAttempt(health, r, &f);
      continue;
    }
    plan->serving_replica = r;
    plan->serving_strikes = health[r].strikes;
    health[r].strikes = 0;
    if (f.attempts_failed > 0 || skipped_out) f.injected = f.recovered = 1;
    return;
  }
  plan->serving_replica = -1;
  f.injected = f.shed = 1;
}

void ShardedPimEngine::FailAttempt(std::span<ReplicaHealth> health, int r,
                                   FailoverStats* charges) const {
  ++charges->attempts_failed;
  // With one replica there is nowhere to fail over to: no strikes, so a
  // faulted op escalates directly (the pre-replica ladder).
  if (health.size() == 1) return;
  ++charges->strikes;
  ReplicaHealth& h = health[r];
  if (++h.strikes >= static_cast<uint32_t>(options_.shard.max_strikes) &&
      !h.out) {
    h.out = true;
    ++charges->struck_out;
  }
}

double ShardedPimEngine::InterconnectNs(uint64_t messages,
                                        uint64_t bytes) const {
  const PimConfig& c = primary(0).device(0).config();
  return static_cast<double>(messages) * c.interconnect_hop_ns +
         static_cast<double>(bytes) / c.interconnect_gbps;
}

uint64_t ShardedPimEngine::RetryOperandBytes(size_t num_queries) const {
  const PimEngine& e = primary(0);
  return e.num_devices() * e.OperandWidth() *
         static_cast<uint64_t>(num_queries) * sizeof(int32_t);
}

double ShardedPimEngine::BoundFor(const QueryHandleBatch& batch, size_t query,
                                  size_t index) const {
  PIMINE_DCHECK(index < num_objects_);
  const uint32_t j = map_.shard_of[index];
  if (deleted_[index] != 0) return primary(j).PruneBound();
  return primary(j).BoundFor(batch.shards[j], query, map_.local_of[index]);
}

void ShardedPimEngine::BoundsFor(const QueryHandleBatch& batch, size_t query,
                                 std::span<double> out) const {
  PIMINE_CHECK(out.size() == num_objects_);
  for (size_t j = 0; j < engines_.size(); ++j) {
    // Only a shard holding deleted rows reads the flags.
    const std::span<const uint8_t> deleted =
        shard_live_[j] < map_.rows_per_shard[j].size()
            ? std::span<const uint8_t>(deleted_)
            : std::span<const uint8_t>();
    // One shard holds every row in global order: no scatter map needed.
    const std::span<const uint32_t> scatter =
        engines_.size() == 1 ? std::span<const uint32_t>()
                             : std::span<const uint32_t>(map_.rows_per_shard[j]);
    primary(j).BoundsFor(batch.shards[j], query, out, scatter, deleted);
  }
}

Status ShardedPimEngine::AppendRows(const FloatMatrix& rows) {
  if (rows.rows() == 0) {
    return Status::InvalidArgument("AppendRows requires at least one row");
  }
  if (rows.cols() != dims()) {
    return Status::InvalidArgument("appended row dimensionality mismatch");
  }
  // Validate the whole batch BEFORE mutating any shard, so a bad row
  // cannot leave some replicas appended and others not.
  PIMINE_RETURN_IF_ERROR(CheckUnitRange(rows.values(), "appended rows"));
  const size_t m = engines_.size();
  // Round-robin placement by append sequence: group the batch's rows by
  // target shard preserving order, so each shard's slice is appended in
  // ascending global id.
  std::vector<std::vector<uint32_t>> picks(m);
  for (size_t b = 0; b < rows.rows(); ++b) {
    picks[(append_seq_ + b) % m].push_back(static_cast<uint32_t>(b));
  }
  for (size_t j = 0; j < m; ++j) {
    if (picks[j].empty()) continue;
    const FloatMatrix part = GatherRows(rows, picks[j]);
    // Every replica is a physical copy of the shard: each one delta-
    // programs the slice (its own ProgramLatencyNs and endurance charge).
    for (const auto& e : engines_[j]) {
      PIMINE_RETURN_IF_ERROR(e->AppendRows(part));
    }
    shard_live_[j] += picks[j].size();
  }
  // Extend the global routing map. Appended ids exceed every existing id,
  // so pushing back keeps each shard's global-id list ascending — the
  // shard-local physical order the engines just programmed.
  for (size_t b = 0; b < rows.rows(); ++b) {
    const uint32_t j = static_cast<uint32_t>((append_seq_ + b) % m);
    map_.rows_per_shard[j].push_back(
        static_cast<uint32_t>(num_objects_ + b));
    map_.shard_of.push_back(j);
    map_.local_of.push_back(
        static_cast<uint32_t>(map_.rows_per_shard[j].size() - 1));
  }
  append_seq_ += rows.rows();
  num_objects_ += rows.rows();
  deleted_.resize(num_objects_, 0);
  delta_objects_ += rows.rows();
  fleet_counters_.Add<&FleetRunStats::appended_rows>(rows.rows());
  return Status::OK();
}

Status ShardedPimEngine::DeleteRow(size_t index) {
  if (index >= num_objects_) {
    return Status::InvalidArgument("DeleteRow index out of range");
  }
  if (deleted_[index] != 0) {
    return Status::InvalidArgument("row is already deleted");
  }
  const uint32_t j = map_.shard_of[index];
  if (shard_live_[j] <= 1) {
    return Status::FailedPrecondition("cannot delete the last live row");
  }
  deleted_[index] = 1;
  --shard_live_[j];
  fleet_counters_.Add<&FleetRunStats::deleted_rows>(1);
  return Status::OK();
}

bool ShardedPimEngine::IsDeleted(size_t index) const {
  PIMINE_DCHECK(index < num_objects_);
  return deleted_[index] != 0;
}

Status ShardedPimEngine::Compact() {
  const size_t m = engines_.size();
  // Each shard's survivors in shard-local order, which every replica of the
  // shard keeps.
  std::vector<std::vector<uint32_t>> live_local(m);
  for (size_t j = 0; j < m; ++j) {
    const std::vector<uint32_t>& rows = map_.rows_per_shard[j];
    for (size_t local = 0; local < rows.size(); ++local) {
      if (deleted_[rows[local]] == 0) {
        live_local[j].push_back(static_cast<uint32_t>(local));
      }
    }
    for (const auto& e : engines_[j]) {
      PIMINE_RETURN_IF_ERROR(e->Compact(live_local[j]));
    }
  }
  // Renumber survivors densely in ascending OLD global id — the ids a
  // from-scratch build of the merged live dataset would assign.
  std::vector<std::pair<uint32_t, uint32_t>> survivors;  // (old id, shard)
  for (size_t j = 0; j < m; ++j) {
    for (const uint32_t local : live_local[j]) {
      survivors.emplace_back(map_.rows_per_shard[j][local], j);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  ShardMap next;
  next.rows_per_shard.resize(m);
  next.shard_of.resize(survivors.size());
  next.local_of.resize(survivors.size());
  for (size_t id = 0; id < survivors.size(); ++id) {
    const uint32_t j = survivors[id].second;
    // The monotone renumber preserves each shard's ascending order, so the
    // new local index matches the position the shard engine's compaction
    // moved the row to.
    next.rows_per_shard[j].push_back(static_cast<uint32_t>(id));
    next.shard_of[id] = j;
    next.local_of[id] =
        static_cast<uint32_t>(next.rows_per_shard[j].size() - 1);
  }
  map_ = std::move(next);
  num_objects_ = survivors.size();
  deleted_.assign(num_objects_, 0);
  delta_objects_ = 0;
  fleet_counters_.Add<&FleetRunStats::compactions>(1);
  fleet_counters_.Add<&FleetRunStats::compacted_rows>(survivors.size());
  return Status::OK();
}

size_t ShardedPimEngine::live_objects() const {
  size_t live = 0;
  for (const size_t shard_live : shard_live_) live += shard_live;
  return live;
}

int ShardedPimEngine::serving_replica(size_t j) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  return static_cast<int>(
      shard_counters_[j]->serving_replica.load(std::memory_order_relaxed));
}

bool ShardedPimEngine::shard_slack_mode(size_t j) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  return shard_counters_[j]->slack_mode.load(std::memory_order_relaxed);
}

ShardedPimEngine::ReplicaHealth ShardedPimEngine::HealthOf(size_t j,
                                                         size_t r) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  const ShardCounters& ctr = *shard_counters_[j];
  PIMINE_DCHECK(r < ctr.health.size());
  std::lock_guard<std::mutex> lock(ctr.ladder_mu);
  return ctr.health[r];
}

int ShardedPimEngine::replica_strikes(size_t j, size_t r) const {
  return static_cast<int>(HealthOf(j, r).strikes);
}

bool ShardedPimEngine::replica_out(size_t j, size_t r) const {
  return HealthOf(j, r).out;
}

bool ShardedPimEngine::shard_degraded(size_t j) const {
  if (serving_replica(j) != 0 || shard_slack_mode(j)) return true;
  for (size_t r = 0; r < engines_[j].size(); ++r) {
    if (replica_out(j, r)) return true;
  }
  return false;
}

int ShardedPimEngine::DegradedShards() const {
  int degraded = 0;
  for (size_t j = 0; j < engines_.size(); ++j) {
    if (shard_degraded(j)) ++degraded;
  }
  return degraded;
}

void ShardedPimEngine::ResetReplicaHealth() {
  for (const auto& ctr : shard_counters_) {
    std::lock_guard<std::mutex> lock(ctr->ladder_mu);
    std::fill(ctr->health.begin(), ctr->health.end(), ReplicaHealth());
  }
}

namespace {

using ShardHealth = ShardedPimEngine::ShardHealth;

// A shard's replicas serve it one at a time (failed attempts serialize with
// the eventual success), so a shard's device time is the sum over its
// replicas; the shards run concurrently, so the fleet's is the max over
// shards. Clean runs charge only the primary — identical to the
// pre-replica fleet.
double MaxOverShards(std::span<const ShardHealth> health,
                     double PimEngine::DeviceTotals::*ns) {
  double max = 0.0;
  for (const ShardHealth& h : health) max = std::max(max, h.*ns);
  return max;
}

FaultStats FaultStatsOf(std::span<const ShardHealth> health) {
  FaultStats total;
  for (const ShardHealth& h : health) total.Merge(h.fault);
  return total;
}

}  // namespace

double ShardedPimEngine::PimComputeNs() const {
  return MaxOverShards(ShardHealths(), &ShardHealth::pim_ns);
}

double ShardedPimEngine::PimPipelinedNs() const {
  return MaxOverShards(ShardHealths(), &ShardHealth::pipelined_ns);
}

FaultStats ShardedPimEngine::FaultStatsTotal() const {
  return FaultStatsOf(ShardHealths());
}

void ShardedPimEngine::CloseRun(RunStats* stats) const {
  const std::vector<ShardHealth> health = ShardHealths();
  stats->pim_ns = MaxOverShards(health, &ShardHealth::pim_ns);
  stats->fault = FaultStatsOf(health);
  stats->fleet = FleetStatsOf(health);
}

namespace {

// Resets before RunScope's ledger scope and wall clock open (members
// initialize in declaration order).
ShardedPimEngine* ResetForRun(ShardedPimEngine* fleet) {
  if (fleet != nullptr) fleet->ResetOnlineStats();
  return fleet;
}

}  // namespace

RunScope::RunScope(ShardedPimEngine* fleet) : fleet_(ResetForRun(fleet)) {}

void RunScope::Close(RunStats* stats) const {
  stats->wall_ms = wall_.ElapsedMillis();
  static_cast<RunLedger&>(*stats) = ledger_.Delta();
  if (fleet_ != nullptr) fleet_->CloseRun(stats);
}

double ShardedPimEngine::OfflineNs() const {
  // Every copy (shard x replica) programs concurrently: max over all.
  double ns = 0.0;
  for (const auto& shard : engines_) {
    for (const auto& e : shard) ns = std::max(ns, e->OfflineNs());
  }
  return ns;
}

uint64_t ShardedPimEngine::OfflineBytesWritten() const {
  // Every replica is a physical copy: programming bytes sum over all.
  uint64_t bytes = 0;
  for (const auto& shard : engines_) {
    for (const auto& e : shard) bytes += e->OfflineBytesWritten();
  }
  return bytes;
}

void ShardedPimEngine::ResetOnlineStats() {
  for (const auto& shard : engines_) {
    for (const auto& e : shard) e->ResetOnlineStats();
  }
  for (const auto& ctr : shard_counters_) {
    ctr->counts.ResetRun();
    ctr->serving_replica.store(0, std::memory_order_relaxed);
    ctr->slack_mode.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(ctr->ladder_mu);
    ctr->failover = FailoverStats();
  }
  fleet_counters_.ResetRun();
}

std::vector<ShardedPimEngine::ShardHealth> ShardedPimEngine::ShardHealths()
    const {
  std::vector<ShardHealth> health;
  health.reserve(shards());
  for (size_t j = 0; j < shards(); ++j) {
    health.push_back(ShardHealthSnapshot(j));
  }
  return health;
}

FleetRunStats ShardedPimEngine::FleetStats() const {
  return FleetStatsOf(ShardHealths());
}

FleetRunStats ShardedPimEngine::FleetStatsOf(
    std::span<const ShardHealth> health) const {
  FleetRunStats s;
  s.shards = static_cast<int>(engines_.size());
  s.placement = options_.shard.placement;
  // Integer sums of the shard snapshots: identical for any charge
  // interleaving. Endurance sums over every device copy, since replicas
  // are physical devices, each wearing its own cells.
  for (const ShardHealth& h : health) {
    obs::AddFields(kInterconnectFields, h, &s);
    s.failover.Merge(h.failover);
    s.row_writes += h.row_writes;
    s.worn_rows += h.worn_rows;
    if (h.degraded) ++s.degraded_shards;
  }
  fleet_counters_.LoadInto(&s);
  s.scatter_ns = InterconnectNs(s.scatter_messages, s.scatter_bytes);
  s.gather_ns = InterconnectNs(s.gather_messages, s.gather_bytes);
  s.reduce_ns = InterconnectNs(s.reduce_messages, s.reduce_bytes);
  s.delta_rows = delta_objects();
  s.tombstoned_rows = tombstoned_objects();
  return s;
}

ShardedPimEngine::ShardHealth ShardedPimEngine::ShardHealthSnapshot(
    size_t j) const {
  PIMINE_DCHECK(j < engines_.size());
  ShardHealth h;
  const ShardCounters& ctr = *shard_counters_[j];
  ctr.counts.LoadInto(&h);
  for (const auto& e : engines_[j]) h.Add(e->DeviceStatsTotal());
  {
    std::lock_guard<std::mutex> lock(ctr.ladder_mu);
    h.failover = ctr.failover;
  }
  // Derived from the integer counters, like the interconnect classes.
  h.failover.failover_ns =
      InterconnectNs(h.failover.retry_messages, h.failover.retry_bytes) +
      static_cast<double>(h.failover.backoff_ns);
  h.failovers = h.failover.shed;
  h.scatter_ns = InterconnectNs(h.scatter_messages, h.scatter_bytes);
  h.gather_ns = InterconnectNs(h.gather_messages, h.gather_bytes);
  h.serving_replica =
      static_cast<int>(ctr.serving_replica.load(std::memory_order_relaxed));
  h.degraded = shard_degraded(j);
  return h;
}

void ShardedPimEngine::ExportMetrics(obs::MetricsRegistry* registry) const {
  constexpr obs::ExportMode kSet = obs::ExportMode::kSnapshot;
  const std::vector<ShardHealth> health = ShardHealths();
  for (size_t j = 0; j < health.size(); ++j) {
    const ShardHealth& h = health[j];
    const obs::MetricLabels labels = {{"shard", std::to_string(j)}};
    obs::ExportFields(kInterconnectFields, h, labels, kSet, registry);
    obs::ExportFields(kDeviceTotalsFields, h, labels, kSet, registry);
    obs::ExportFields(kFaultStatsFields, h.fault, labels, kSet, registry);
    obs::ExportFields(kFailoverStatsFields, h.failover, labels, kSet, registry);
    registry->ExportGauge("pimine_fleet_shard_serving_replica",
                          "Replica that served this shard's most recent "
                          "dispatch (replicas = off-device).",
                          h.serving_replica, labels);
  }
  const FleetRunStats fleet = FleetStatsOf(health);
  obs::ExportFields(kFleetFields, fleet, {}, kSet, registry);
  registry->ExportGauge("pimine_fleet_shards",
                        "Fleet members the dataset is sharded across.",
                        fleet.shards);
  registry->ExportGauge("pimine_fleet_replicas",
                        "Replica copies each shard is programmed onto.",
                        options_.shard.replicas);
  registry->ExportGauge("pimine_fleet_degraded_shards",
                        "Shards serving off-primary, in bound-slack mode, or "
                        "carrying a struck-out replica.",
                        fleet.degraded_shards);
}

void ShardedPimEngine::ChargeTreeReduction(uint64_t payload_bytes) const {
  // Critical path of a pairwise merge tree: ceil(log2 M) levels, one
  // payload-sized message per level (none at M = 1).
  uint64_t depth = 0;
  for (size_t width = engines_.size(); width > 1; width = (width + 1) / 2) {
    ++depth;
  }
  fleet_counters_.Add<&FleetRunStats::reduce_messages>(depth);
  fleet_counters_.Add<&FleetRunStats::reduce_bytes>(depth * payload_bytes);
}

}  // namespace pimine
