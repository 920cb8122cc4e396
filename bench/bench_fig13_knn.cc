// Figure 13: kNN classification execution time.
//   (a) vary dataset   — Standard vs Standard-PIM on ImageNet/MSD/Trevi/GIST
//   (b) vary algorithm — Standard/OST/SM/FNN and their PIM variants on MSD
//   (c) vary k         — Standard vs Standard-PIM vs PIM-oracle
//   (d) vary distance  — ED / CS / PCC
// Paper findings to reproduce: up to 453x speedup on (a), growing with d;
// weak gains on GIST (LB_FNN prunes poorly there); state-of-art algorithms
// improve from 3.9x (no PIM) to 40.8x (PIM) on (b); mild k sensitivity on
// (c); similar gaps across measures with PCC weakest on (d).

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"

namespace pimine {
namespace bench {
namespace {

void VaryDataset(const HostCostModel& model) {
  Banner("Figure 13(a): kNN time vs dataset (Standard vs Standard-PIM, "
         "k=10, ED)");
  TablePrinter table({"dataset", "N", "d", "s", "Standard model_ms",
                      "Standard-PIM model_ms", "speedup"});
  for (const char* name : {"ImageNet", "MSD", "Trevi", "GIST"}) {
    const BenchWorkload w = LoadWorkload(name);
    StandardKnn standard;
    PIMINE_CHECK_OK(standard.Prepare(w.data));
    const BenchPoint base = RunKnnPoint(standard, w.queries, 10, model);

    StandardPimKnn pim(Distance::kEuclidean, ScaledEngineOptions(w));
    PIMINE_CHECK_OK(pim.Prepare(w.data));
    const BenchPoint accel = RunKnnPoint(pim, w.queries, 10, model);

    table.AddRow({name, std::to_string(w.data.rows()),
                  std::to_string(w.data.cols()),
                  std::to_string(pim.engine()->num_segments() > 0
                                     ? pim.engine()->num_segments()
                                     : static_cast<int64_t>(w.data.cols())),
                  Fmt(base.model_ms), Fmt(accel.model_ms),
                  Fmt(base.model_ms / accel.model_ms, 1) + "x"});
  }
  table.Print();
}

void VaryAlgorithm(const HostCostModel& model) {
  Banner("Figure 13(b): kNN time vs algorithm (MSD, k=10, ED)");
  const BenchWorkload w = LoadWorkload("MSD");
  const EngineOptions options = ScaledEngineOptions(w);

  struct Pair {
    std::unique_ptr<KnnAlgorithm> base;
    std::unique_ptr<KnnAlgorithm> pim;
  };
  std::vector<Pair> pairs;
  pairs.push_back({std::make_unique<StandardKnn>(),
                   std::make_unique<StandardPimKnn>(Distance::kEuclidean,
                                                    options)});
  pairs.push_back(
      {std::make_unique<OstKnn>(),
       std::make_unique<OstPimKnn>(options)});
  pairs.push_back(
      {std::make_unique<SmKnn>(), std::make_unique<SmPimKnn>(options)});
  pairs.push_back({std::make_unique<FnnKnn>(),
                   std::make_unique<FnnPimKnn>(options, /*optimize=*/false)});

  TablePrinter table({"algorithm", "model_ms", "PIM model_ms", "speedup"});
  for (auto& pair : pairs) {
    PIMINE_CHECK_OK(pair.base->Prepare(w.data));
    PIMINE_CHECK_OK(pair.pim->Prepare(w.data));
    const BenchPoint base = RunKnnPoint(*pair.base, w.queries, 10, model);
    const BenchPoint accel = RunKnnPoint(*pair.pim, w.queries, 10, model);
    table.AddRow({base.label, Fmt(base.model_ms), Fmt(accel.model_ms),
                  Fmt(base.model_ms / accel.model_ms, 1) + "x"});
  }
  table.Print();
}

void VaryK(const HostCostModel& model) {
  Banner("Figure 13(c): kNN time vs k (MSD, ED; Standard vs Standard-PIM "
         "vs PIM-oracle)");
  const BenchWorkload w = LoadWorkload("MSD");
  const EngineOptions options = ScaledEngineOptions(w);
  TablePrinter table({"k", "Standard model_ms", "Standard-PIM model_ms",
                      "PIM-oracle model_ms", "speedup"});
  for (int k : {1, 10, 100}) {
    StandardKnn standard;
    PIMINE_CHECK_OK(standard.Prepare(w.data));
    const BenchPoint base = RunKnnPoint(standard, w.queries, k, model);
    // Oracle (Eq. 2): zero the offloadable (ED) share of the measured run,
    // projected onto modeled time.
    const double offloadable_ns =
        static_cast<double>(base.stats.profile.OffloadableNs());
    const double wall_ns = base.stats.wall_ms * 1e6;
    const double oracle_model_ms =
        base.model_ms *
        (wall_ns > 0 ? PimOracleNs(wall_ns, offloadable_ns) / wall_ns : 0.0);

    StandardPimKnn pim(Distance::kEuclidean, options);
    PIMINE_CHECK_OK(pim.Prepare(w.data));
    const BenchPoint accel = RunKnnPoint(pim, w.queries, k, model);

    table.AddRow({std::to_string(k), Fmt(base.model_ms), Fmt(accel.model_ms),
                  Fmt(oracle_model_ms),
                  Fmt(base.model_ms / accel.model_ms, 1) + "x"});
  }
  table.Print();
}

void VaryDistance(const HostCostModel& model) {
  Banner("Figure 13(d): kNN time vs distance function (MSD, k=10)");
  const BenchWorkload w = LoadWorkload("MSD");
  // CS/PCC have no compressed (segment) upper bound, so they need the
  // full-dimensionality dataset on PIM: use the full Table 5 array rather
  // than the scaled-down budget (it trivially fits at bench scale).
  const EngineOptions options;
  TablePrinter table({"distance", "Standard model_ms",
                      "Standard-PIM model_ms", "speedup"});
  for (Distance distance :
       {Distance::kEuclidean, Distance::kCosine, Distance::kPearson}) {
    StandardKnn standard(distance);
    PIMINE_CHECK_OK(standard.Prepare(w.data));
    const BenchPoint base = RunKnnPoint(standard, w.queries, 10, model);

    StandardPimKnn pim(distance, options);
    PIMINE_CHECK_OK(pim.Prepare(w.data));
    const BenchPoint accel = RunKnnPoint(pim, w.queries, 10, model);

    table.AddRow({std::string(DistanceName(distance)), Fmt(base.model_ms),
                  Fmt(accel.model_ms),
                  Fmt(base.model_ms / accel.model_ms, 1) + "x"});
  }
  table.Print();
}

void Run() {
  const HostCostModel model;
  VaryDataset(model);
  VaryAlgorithm(model);
  VaryK(model);
  VaryDistance(model);
  std::cout << "\nPaper reference: up to 453x on (a) with GIST weakest; "
               "3.9x -> 40.8x average on (b); 71.5/57.1/29.2x across k on "
               "(c); PCC weakest on (d).\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
