#include "pim/fleet.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/random.h"

namespace pimine {

std::string_view ShardPlacementName(ShardPlacement placement) {
  switch (placement) {
    case ShardPlacement::kContiguous:
      return "contiguous";
    case ShardPlacement::kHash:
      return "hash";
    case ShardPlacement::kClusterAware:
      return "cluster";
  }
  return "?";
}

Result<ShardPlacement> ParseShardPlacement(std::string_view name) {
  if (name == "contiguous") return ShardPlacement::kContiguous;
  if (name == "hash") return ShardPlacement::kHash;
  if (name == "cluster") return ShardPlacement::kClusterAware;
  return Status::InvalidArgument(
      "unknown placement '" + std::string(name) +
      "'; expected contiguous, hash or cluster");
}

Status ShardOptions::ValidateReplication() const {
  if (replicas < 1 || replicas > kMaxReplicas) {
    return Status::InvalidArgument(
        "shard replicas must be in [1, " + std::to_string(kMaxReplicas) +
        "] (got " + std::to_string(replicas) + ")");
  }
  if (max_strikes < 1) {
    return Status::InvalidArgument(
        "shard max_strikes must be >= 1 (got " + std::to_string(max_strikes) +
        ")");
  }
  return Status::OK();
}

bool FailoverStats::Any() const {
  return obs::AnyField(kFailoverStatsFields, *this);
}

void FailoverStats::Merge(const FailoverStats& other) {
  obs::AddFields(kFailoverStatsFields, other, this);
}

std::string FailoverStats::ToString() const {
  std::ostringstream os;
  os << "injected=" << injected << " recovered=" << recovered
     << " shed=" << shed << " (slack=" << slack_fills << ")"
     << " attempts_failed=" << attempts_failed << " (chaos=" << chaos_denied
     << " device=" << device_faults << ")"
     << " strikes=" << strikes << " struck_out=" << struck_out
     << " retry=" << retry_messages << "msg/" << retry_bytes << "B"
     << " backoff=" << backoff_ns << "ns"
     << " failover=" << failover_ns / 1e6 << "ms";
  return os.str();
}

Result<ShardMap> BuildShardMap(const FloatMatrix& data,
                               const ShardOptions& options) {
  const size_t n = data.rows();
  if (options.shards < 1) {
    return Status::InvalidArgument(
        "shards must be >= 1 (got " + std::to_string(options.shards) + ")");
  }
  if (static_cast<size_t>(options.shards) > n) {
    return Status::InvalidArgument(
        "shards (" + std::to_string(options.shards) +
        ") must not exceed the dataset size (" + std::to_string(n) +
        "): every shard needs at least one row");
  }
  const size_t m = static_cast<size_t>(options.shards);

  // Unified placement: order the rows by a placement key, split the order
  // into M balanced contiguous runs, then sort each shard's rows ascending
  // (the shard-local layout every engine programs).
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  switch (options.placement) {
    case ShardPlacement::kContiguous:
      break;  // identity key.
    case ShardPlacement::kHash:
      // Mix64 is stateless, so row -> shard assignment is reproducible
      // across runs and platforms.
      std::sort(order.begin(), order.end(), [](uint32_t a, uint32_t b) {
        const uint64_t ka = Mix64(a);
        const uint64_t kb = Mix64(b);
        if (ka != kb) return ka < kb;
        return a < b;
      });
      break;
    case ShardPlacement::kClusterAware: {
      std::vector<double> key(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (float v : data.row(i)) sum += v;
        key[i] = sum;
      }
      std::sort(order.begin(), order.end(),
                [&key](uint32_t a, uint32_t b) {
                  if (key[a] != key[b]) return key[a] < key[b];
                  return a < b;
                });
      break;
    }
  }

  ShardMap map;
  map.rows_per_shard.resize(m);
  map.shard_of.resize(n);
  map.local_of.resize(n);
  const size_t base = n / m;
  const size_t extra = n % m;  // first `extra` shards get one more row.
  size_t pos = 0;
  for (size_t j = 0; j < m; ++j) {
    const size_t count = base + (j < extra ? 1 : 0);
    std::vector<uint32_t>& rows = map.rows_per_shard[j];
    rows.assign(order.begin() + pos, order.begin() + pos + count);
    pos += count;
    std::sort(rows.begin(), rows.end());
    for (size_t local = 0; local < rows.size(); ++local) {
      map.shard_of[rows[local]] = static_cast<uint32_t>(j);
      map.local_of[rows[local]] = static_cast<uint32_t>(local);
    }
  }
  return map;
}

bool FleetRunStats::Any() const {
  return obs::AnyField(kInterconnectFields, *this) || reduce_messages != 0;
}

std::string FleetRunStats::ToString() const {
  std::ostringstream os;
  os << "shards=" << shards << " placement=" << ShardPlacementName(placement)
     << " scatter=" << scatter_messages << "msg/" << scatter_bytes << "B"
     << " gather=" << gather_messages << "msg/" << gather_bytes << "B"
     << " reduce=" << reduce_messages << "msg/" << reduce_bytes << "B"
     << " failovers=" << failovers << " interconnect="
     << InterconnectNs() / 1e6 << "ms";
  if (failover.Any()) {
    os << " | " << failover.ToString();
    if (degraded_shards > 0) os << " degraded_shards=" << degraded_shards;
  }
  if (appended_rows != 0 || deleted_rows != 0 || compactions != 0 ||
      delta_rows != 0 || tombstoned_rows != 0 || worn_rows != 0) {
    os << " | mutation: appended=" << appended_rows
       << " deleted=" << deleted_rows << " compactions=" << compactions
       << " (rows=" << compacted_rows << ")"
       << " delta=" << delta_rows << " tombstoned=" << tombstoned_rows
       << " row_writes=" << row_writes << " worn=" << worn_rows;
  }
  return os.str();
}

}  // namespace pimine
