#include "profiling/run_stats.h"

#include "obs/obs.h"

namespace pimine {

void WorkerSlot::FoldInto(RunStats* stats) const {
  stats->exact_count += exact_count;
  stats->bound_count += bound_count;
  stats->profile.Merge(profile);
  stats->latency_hist.Merge(latency);
}

void PublishRunMetrics(const RunStats& stats, const char* latency_family) {
  obs::Obs* o = obs::Obs::Get();
  if (o == nullptr) return;
  o->metrics().GetCounter("pimine_exact_distances_total")
      .Add(stats.exact_count);
  o->metrics().GetCounter("pimine_bound_evaluations_total")
      .Add(stats.bound_count);
  o->metrics()
      .GetCounter("pimine_candidates_pruned_total")
      .Add(stats.bound_count > stats.exact_count
               ? stats.bound_count - stats.exact_count
               : 0);
  o->metrics().MergeHistogram(latency_family, stats.latency_hist);
}

}  // namespace pimine
