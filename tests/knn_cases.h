#ifndef PIMINE_TESTS_KNN_CASES_H_
#define PIMINE_TESTS_KNN_CASES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"

namespace pimine {
namespace testing_util {

struct KnnCase {
  std::string label;
  std::function<std::unique_ptr<KnnAlgorithm>()> make;
};

/// Every path on the shared kNN driver: the four host baselines (Standard
/// on ED, CS and PCC) and the four PIM paths (Standard-PIM on ED and CS),
/// at their default options.
inline std::vector<KnnCase> AllKnnCases() {
  std::vector<KnnCase> cases;
  cases.push_back({"Standard/ED", [] {
                     return std::make_unique<StandardKnn>();
                   }});
  cases.push_back({"Standard/CS", [] {
                     return std::make_unique<StandardKnn>(Distance::kCosine);
                   }});
  cases.push_back({"Standard/PCC", [] {
                     return std::make_unique<StandardKnn>(Distance::kPearson);
                   }});
  cases.push_back({"SM", [] { return std::make_unique<SmKnn>(); }});
  cases.push_back({"OST", [] { return std::make_unique<OstKnn>(); }});
  cases.push_back({"FNN", [] { return std::make_unique<FnnKnn>(); }});
  cases.push_back({"StandardPIM/ED", [] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kEuclidean, EngineOptions());
                   }});
  cases.push_back({"StandardPIM/CS", [] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kCosine, EngineOptions());
                   }});
  cases.push_back({"SmPIM", [] {
                     return std::make_unique<SmPimKnn>(EngineOptions());
                   }});
  cases.push_back({"OstPIM", [] {
                     return std::make_unique<OstPimKnn>(EngineOptions());
                   }});
  cases.push_back({"FnnPIM", [] {
                     return std::make_unique<FnnPimKnn>(EngineOptions(),
                                                        /*optimize=*/true);
                   }});
  return cases;
}

}  // namespace testing_util
}  // namespace pimine

#endif  // PIMINE_TESTS_KNN_CASES_H_
