#include "profile_workloads.h"

#include <memory>

#include "common/logging.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "knn/fnn_knn.h"
#include "knn/ost_knn.h"
#include "knn/sm_knn.h"
#include "knn/standard_knn.h"

namespace pimine {
namespace bench {

std::vector<ProfiledRun> ProfileKnnAlgorithms(const BenchWorkload& workload,
                                              int k) {
  std::vector<std::unique_ptr<KnnAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<StandardKnn>());
  algorithms.push_back(std::make_unique<OstKnn>());
  algorithms.push_back(std::make_unique<SmKnn>());
  algorithms.push_back(std::make_unique<FnnKnn>());

  std::vector<ProfiledRun> runs;
  for (auto& algorithm : algorithms) {
    PIMINE_CHECK_OK(algorithm->Prepare(workload.data));
    auto result = algorithm->Search(workload.queries, k);
    PIMINE_CHECK(result.ok()) << result.status().ToString();
    ProfiledRun run;
    run.name = std::string(algorithm->name());
    run.wall_ms = result->stats.wall_ms;
    run.offloadable_ms =
        static_cast<double>(result->stats.profile.OffloadableNs()) / 1e6;
    run.stats = std::move(result->stats);
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<ProfiledRun> ProfileKmeansAlgorithms(const BenchWorkload& workload,
                                                 int k, int iterations) {
  std::vector<std::unique_ptr<KmeansAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<LloydKmeans>());
  algorithms.push_back(std::make_unique<ElkanKmeans>());
  algorithms.push_back(std::make_unique<DrakeKmeans>());
  algorithms.push_back(std::make_unique<YinyangKmeans>());

  KmeansOptions options;
  options.k = k;
  options.max_iterations = iterations;
  options.seed = kBenchSeed;

  std::vector<ProfiledRun> runs;
  for (auto& algorithm : algorithms) {
    auto result = algorithm->Run(workload.data, options);
    PIMINE_CHECK(result.ok()) << result.status().ToString();
    ProfiledRun run;
    run.name = std::string(algorithm->name());
    run.wall_ms = result->MeanIterationMs();
    run.offloadable_ms =
        static_cast<double>(result->stats.profile.OffloadableNs()) / 1e6 /
        result->iterations;
    run.stats = std::move(result->stats);
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace bench
}  // namespace pimine
