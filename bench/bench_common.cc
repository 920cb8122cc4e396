#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/logging.h"
#include "data/generator.h"

namespace pimine {
namespace bench {

BenchWorkload LoadWorkload(const std::string& name, int64_t n,
                           int64_t num_queries) {
  auto spec = Catalog::Find(name);
  PIMINE_CHECK(spec.ok()) << "unknown dataset " << name;
  BenchWorkload workload;
  workload.spec = *spec;
  workload.data = DatasetGenerator::Generate(*spec, n, kBenchSeed);
  workload.queries = DatasetGenerator::GenerateQueries(
      *spec, workload.data, num_queries, kBenchSeed + 1);
  return workload;
}

EngineOptions ScaledEngineOptions(const BenchWorkload& workload) {
  EngineOptions options;
  options.pim_config = ScalePimArrayForDataset(
      workload.spec.paper_n, static_cast<int64_t>(workload.data.rows()),
      options.pim_config);
  return options;
}

EngineOptions CrossbarsFromFlags(const FlagParser& flags,
                                 const BenchWorkload& workload) {
  const int64_t crossbars = flags.GetInt("crossbars", 0);
  if (crossbars == 0) return ScaledEngineOptions(workload);
  EngineOptions options;
  options.pim_config.num_crossbars = crossbars;
  return options;
}

Result<Distance> DistanceFromFlags(const FlagParser& flags) {
  const std::string name = flags.GetString("distance", "ED");
  for (const Distance d :
       {Distance::kEuclidean, Distance::kCosine, Distance::kPearson}) {
    if (name == DistanceName(d)) return d;
  }
  return Status::InvalidArgument("unknown --distance '" + name +
                                 "' (want ED|CS|PCC)");
}

BenchPoint RunKnnPoint(KnnAlgorithm& algorithm, const FloatMatrix& queries,
                       int k, const HostCostModel& model) {
  auto result = algorithm.Search(queries, k);
  PIMINE_CHECK(result.ok()) << algorithm.name() << ": "
                            << result.status().ToString();
  BenchPoint point;
  point.label = std::string(algorithm.name());
  point.wall_ms = result->stats.wall_ms;
  point.model_ms = ComposeModeledTime(result->stats, model).total_ms();
  point.stats = std::move(result->stats);
  return point;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(const std::vector<std::string>& cells) {
  PIMINE_CHECK(cells.size() == headers_.size());
  rows_.push_back(cells);
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::cout << row[c];
      for (size_t pad = row[c].size(); pad < widths[c] + 2; ++pad) {
        std::cout << ' ';
      }
    }
    std::cout << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::cout << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  std::cout << std::flush;
}

std::string Fmt(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

void Banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace bench
}  // namespace pimine
