// pimbench: the pimine benchmark program.
//
//   pimbench --workload <knn-msd|kmeans-nuswide|serve-mixed> --seed <n>
//            --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics through the library's own
// entry points; --trace 1 is a separate run that times calls into each
// layer from this program and prints the per-layer metrics. Either way the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exit status is 1 when any operation failed or any answer
// disagreed with its oracle, 2 on a usage error.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "bench_util.h"

namespace {

int Usage(const char* why) {
  std::cerr << "pimbench: " << why
            << "\nusage: pimbench --workload <knn-msd|kmeans-nuswide|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pimbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return Usage("unknown flag");
    }
  }

  pimbench::Report report;
  if (args.workload == "knn-msd") {
    report = pimbench::RunKnnWorkload(args);
  } else if (args.workload == "kmeans-nuswide") {
    report = pimbench::RunKmeansWorkload(args);
  } else if (args.workload == "serve-mixed") {
    report = pimbench::RunServeWorkload(args);
  } else {
    return Usage("unknown --workload");
  }
  report.Set("peak_rss_mb", pimbench::PeakRssMb());
  pimbench::PrintReport(args, report);
  return report.failed == 0 ? 0 : 1;
}
