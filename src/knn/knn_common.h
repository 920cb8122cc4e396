#ifndef PIMINE_KNN_KNN_COMMON_H_
#define PIMINE_KNN_KNN_COMMON_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "obs/histogram.h"
#include "profiling/run_stats.h"
#include "util/parallel.h"
#include "util/top_k.h"

namespace pimine {

/// Result of one kNN batch: per-query neighbour lists (sorted by distance
/// ascending, or similarity descending for CS/PCC) plus run accounting.
struct KnnRunResult {
  std::vector<std::vector<Neighbor>> neighbors;
  RunStats stats;
};

/// Interface shared by the four baseline algorithms of §VI-B (Standard,
/// OST, SM, FNN) and their PIM-optimized counterparts. The data matrix
/// passed to Prepare must outlive the algorithm (algorithms keep a
/// reference; datasets are large and are never copied).
class KnnAlgorithm {
 public:
  virtual ~KnnAlgorithm() = default;

  virtual std::string_view name() const = 0;

  /// Offline stage: builds statistics / programs PIM. Callers time this for
  /// the Fig. 17 pre-processing comparison.
  virtual Status Prepare(const FloatMatrix& data) = 0;

  /// Online stage: answers every row of `queries`.
  virtual Result<KnnRunResult> Search(const FloatMatrix& queries, int k) = 0;

  /// Modeled offline cost (device programming; 0 for pure-host baselines —
  /// their offline cost is the measured Prepare wall time).
  virtual double OfflineModeledNs() const { return 0.0; }

  /// Bytes written during Prepare (reduced vectors / programmed crossbars),
  /// the quantity behind the paper's "33.3% less write access" claim.
  virtual uint64_t OfflineBytesWritten() const { return 0; }

  /// Host-side execution policy for Search. Queries are independent, so
  /// batches are spread across `policy.num_threads` workers; neighbours and
  /// aggregated traffic counters are identical for every thread count (see
  /// DESIGN.md). The default policy is serial, preserving the paper's
  /// single-threaded measurement setup.
  void set_exec_policy(const ExecPolicy& policy) { exec_policy_ = policy; }
  const ExecPolicy& exec_policy() const { return exec_policy_; }

 protected:
  ExecPolicy exec_policy_;
};

/// Indices [0, n) sorted so values[out[0]] <= values[out[1]] <= ..., ties
/// (including -0.0 against +0.0) to the lower index. This is the reference
/// candidate order: FilterRefine walks a prefix of it without sorting all
/// n. Charges ChargeArgsortTraffic(n).
std::vector<uint32_t> ArgsortAscending(std::span<const double> values);

/// Charges the modeled cost of ordering n bounds to the thread-local
/// counters: one streaming read of the n doubles plus n*(floor(log2 n)+1)
/// comparisons, each an arithmetic op and a branch. It models the paper's
/// full sort, whatever the host does to order the candidates.
void ChargeArgsortTraffic(size_t n);

/// Extracts sorted neighbours from `topk` for a similarity measure run
/// where -similarity was pushed as "distance": flips the sign back and
/// reverses the order so the most similar object comes first.
std::vector<Neighbor> FinalizeSimilarityNeighbors(TopK& topk);

}  // namespace pimine

#endif  // PIMINE_KNN_KNN_COMMON_H_
