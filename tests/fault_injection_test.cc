// ReRAM fault-injection subsystem: seeded determinism of the fault model,
// checksum-based detection, retry/remap recovery with modeled latency
// charging, Status propagation for unrecoverable ops, and the headline
// guarantee — with recovery enabled, every PIM mining result is
// bit-identical to the fault-free run at every tested fault rate.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/engine.h"
#include "data/matrix.h"
#include "kmeans/elkan.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_pim_knn.h"
#include "pim/crossbar.h"
#include "pim/fault_model.h"
#include "pim/pim_device.h"
#include "pim/timing.h"
#include "test_helpers.h"
#include "util/bits.h"
#include "util/random.h"

namespace pimine {
namespace {

IntMatrix RandomIntMatrix(size_t rows, size_t cols, uint32_t limit,
                          uint64_t seed) {
  IntMatrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (int32_t& v : m.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(limit));
    }
  }
  return m;
}

std::vector<int32_t> RandomQueries(size_t count, size_t dims, uint32_t limit,
                                   uint64_t seed) {
  std::vector<int32_t> q(count * dims);
  Rng rng(seed);
  for (int32_t& v : q) v = static_cast<int32_t>(rng.NextBounded(limit));
  return q;
}

FaultConfig MakeFault(double cell_rate, double transient_rate,
                      uint64_t seed = 0x5EEDF417u) {
  FaultConfig fault;
  fault.cell_rate = cell_rate;
  fault.transient_rate = transient_rate;
  fault.seed = seed;
  return fault;
}

TEST(FaultModelTest, ConfigValidation) {
  EXPECT_TRUE(FaultConfig().Validate().ok());
  EXPECT_FALSE(MakeFault(-0.1, 0).Validate().ok());
  EXPECT_FALSE(MakeFault(0, 1.5).Validate().ok());
  EXPECT_FALSE(FaultConfig().enabled());
  EXPECT_TRUE(MakeFault(1e-3, 0).enabled());
}

TEST(FaultModelTest, StuckCellsAreDeterministicByPosition) {
  const FaultModel a(MakeFault(0.05, 0));
  const FaultModel b(MakeFault(0.05, 0));
  const FaultModel other_seed(MakeFault(0.05, 0, /*seed=*/99));
  int stuck = 0, differs = 0;
  for (uint64_t index = 0; index < 4096; ++index) {
    uint8_t la = 0, lb = 0, lo = 0;
    const bool sa = a.CellStuck(FaultModel::kDataCellSalt, index, 2, &la);
    const bool sb = b.CellStuck(FaultModel::kDataCellSalt, index, 2, &lb);
    const bool so =
        other_seed.CellStuck(FaultModel::kDataCellSalt, index, 2, &lo);
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(la, lb);
    if (sa) {
      ++stuck;
      EXPECT_TRUE(la == 0 || la == 3) << "2-bit cell stuck at level " << +la;
    }
    if (sa != so || la != lo) ++differs;
  }
  // ~205 expected at rate 0.05; determinism matters, the margin is loose.
  EXPECT_GT(stuck, 100);
  EXPECT_LT(stuck, 400);
  EXPECT_GT(differs, 0) << "different seeds must draw different cells";
}

TEST(FaultModelTest, TransientMasksDependOnNonce) {
  const FaultModel model(MakeFault(0, 0.5));
  int flips = 0, nonce_differs = 0;
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t m0 = model.TransientMask(/*nonce=*/0, i);
    const uint64_t m0_again = model.TransientMask(0, i);
    const uint64_t m1 = model.TransientMask(1, i);
    EXPECT_EQ(m0, m0_again);
    if (m0 != 0) {
      ++flips;
      EXPECT_EQ(m0 & (m0 - 1), 0u) << "mask must be a single bit";
    }
    if (m0 != m1) ++nonce_differs;
  }
  EXPECT_GT(flips, 100);
  EXPECT_GT(nonce_differs, 0) << "a retry (fresh nonce) must redraw faults";
}

TEST(FaultInjectionTest, CrossbarInjectionIsSeededAndDeterministic) {
  const int dim = 64, operand_bits = 8;
  Crossbar xbar(dim, 2);
  Rng rng(3);
  std::vector<uint32_t> operands(dim);
  for (int c = 0; c < xbar.NumLogicalColumns(operand_bits); ++c) {
    for (auto& v : operands) v = static_cast<uint32_t>(rng.NextBounded(256));
    ASSERT_TRUE(xbar.ProgramVector(c, operands, operand_bits).ok());
  }
  std::vector<uint32_t> input(dim);
  for (auto& v : input) v = static_cast<uint32_t>(rng.NextBounded(256));

  auto clean = xbar.DotProduct(input, operand_bits, operand_bits, 2);
  ASSERT_TRUE(clean.ok());

  // Two fresh models with the same seed start from the same op nonce, so
  // the injected outputs are bit-identical; a heavy rate must corrupt.
  FaultModel fa(MakeFault(0.02, 0.02));
  FaultModel fb(MakeFault(0.02, 0.02));
  auto faulty_a = xbar.DotProduct(input, operand_bits, operand_bits, 2, &fa);
  auto faulty_b = xbar.DotProduct(input, operand_bits, operand_bits, 2, &fb);
  ASSERT_TRUE(faulty_a.ok());
  ASSERT_TRUE(faulty_b.ok());
  EXPECT_EQ(faulty_a->values, faulty_b->values);
  EXPECT_NE(faulty_a->values, clean->values);

  // Disabled model: the fault path must be bit-identical to no model.
  FaultModel off{FaultConfig()};
  auto with_off = xbar.DotProduct(input, operand_bits, operand_bits, 2, &off);
  ASSERT_TRUE(with_off.ok());
  EXPECT_EQ(with_off->values, clean->values);
}

TEST(FaultInjectionTest, DisabledFaultsAreBitIdenticalToPlainDevice) {
  const size_t n = 40, s = 48;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 5);
  const std::vector<int32_t> queries = RandomQueries(4, s, 1 << 20, 6);

  PimDevice plain;
  PimDevice with_config{PimConfig(), FaultConfig(), RecoveryPolicy()};
  ASSERT_TRUE(plain.ProgramDataset(data).ok());
  ASSERT_TRUE(with_config.ProgramDataset(data).ok());

  std::vector<uint64_t> a, b;
  ASSERT_TRUE(plain.DotProductBatch(queries, 4, &a).ok());
  ASSERT_TRUE(with_config.DotProductBatch(queries, 4, &b).ok());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(with_config.stats().fault.Any());
  EXPECT_EQ(with_config.stats().compute_ns, plain.stats().compute_ns);
}

TEST(FaultInjectionTest, TransientFaultsAreRetriedToExactResults) {
  const size_t n = 64, s = 64, num_queries = 8;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 7);
  const std::vector<int32_t> queries =
      RandomQueries(num_queries, s, 1 << 20, 8);

  PimDevice clean;
  ASSERT_TRUE(clean.ProgramDataset(data).ok());
  std::vector<uint64_t> expected;
  ASSERT_TRUE(clean.DotProductBatch(queries, num_queries, &expected).ok());

  RecoveryPolicy recovery;
  recovery.max_retries = 16;  // transients re-draw; retries always converge.
  // 2e-2 per digitized result guarantees injections on this small workload.
  PimDevice device(PimConfig(), MakeFault(0, 2e-2), recovery);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());
  EXPECT_EQ(out, expected);

  const FaultStats& fs = device.stats().fault;
  EXPECT_GT(fs.injected, 0u);
  EXPECT_GT(fs.detected, 0u);
  EXPECT_EQ(fs.injected, fs.detected + fs.escaped);
  EXPECT_EQ(fs.escaped, 0u);
  EXPECT_EQ(fs.stuck_cells, 0u);
  EXPECT_EQ(fs.remapped_rows, 0u);
  EXPECT_GT(fs.retries, 0u);
  // Every retry replays one batched dot over the group, charged at the
  // device's modeled batch-dot latency.
  const PimTimingModel timing{PimConfig()};
  EXPECT_DOUBLE_EQ(fs.recovery_ns,
                   static_cast<double>(fs.retries) *
                       timing.BatchDotLatencyNs(static_cast<int64_t>(s), 32));
}

TEST(FaultInjectionTest, StuckCellsAreRemappedWithReprogramCharging) {
  const size_t n = 64, s = 64, num_queries = 4;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 9);
  const std::vector<int32_t> queries =
      RandomQueries(num_queries, s, 1 << 20, 10);

  PimDevice clean;
  ASSERT_TRUE(clean.ProgramDataset(data).ok());
  std::vector<uint64_t> expected;
  ASSERT_TRUE(clean.DotProductBatch(queries, num_queries, &expected).ok());

  PimDevice device(PimConfig(), MakeFault(1e-2, 0), RecoveryPolicy());
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  EXPECT_GT(device.stats().fault.stuck_cells, 0u);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());
  EXPECT_EQ(out, expected);

  const FaultStats fs = device.stats().fault;
  EXPECT_GT(fs.detected, 0u);
  EXPECT_EQ(fs.injected, fs.detected + fs.escaped);
  EXPECT_EQ(fs.escaped, 0u);
  EXPECT_GT(fs.remapped_rows, 0u);
  const PimTimingModel timing{PimConfig()};
  const uint64_t group_rows =
      CeilDiv(s, static_cast<uint64_t>(PimConfig().crossbar_dim)) *
      PimConfig().crossbar_dim;
  EXPECT_EQ(fs.remapped_rows % group_rows, 0u);
  // Retries + re-program writes are both charged into the recovery time.
  EXPECT_DOUBLE_EQ(
      fs.recovery_ns,
      static_cast<double>(fs.retries) *
              timing.BatchDotLatencyNs(static_cast<int64_t>(s), 32) +
          static_cast<double>(fs.remapped_rows / group_rows) *
              timing.ProgramLatencyNs(group_rows));

  // A remapped group stays clean: a second batch re-detects nothing new.
  const uint64_t detected_before = fs.detected;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(device.stats().fault.detected, detected_before);
}

TEST(FaultInjectionTest, SameSeedSameStatsDifferentSeedDiffers) {
  const size_t n = 48, s = 48, num_queries = 6;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 11);
  const std::vector<int32_t> queries =
      RandomQueries(num_queries, s, 1 << 20, 12);

  const auto run = [&](uint64_t seed) {
    PimDevice device(PimConfig(), MakeFault(1e-3, 1e-3, seed),
                     RecoveryPolicy());
    PIMINE_CHECK_OK(device.ProgramDataset(data));
    std::vector<uint64_t> out;
    PIMINE_CHECK_OK(device.DotProductBatch(queries, num_queries, &out));
    return std::make_pair(out, device.stats().fault);
  };
  const auto [out_a, fs_a] = run(1);
  const auto [out_b, fs_b] = run(1);
  const auto [out_c, fs_c] = run(2);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(fs_a.injected, fs_b.injected);
  EXPECT_EQ(fs_a.detected, fs_b.detected);
  EXPECT_EQ(fs_a.retries, fs_b.retries);
  EXPECT_EQ(fs_a.stuck_cells, fs_b.stuck_cells);
  EXPECT_DOUBLE_EQ(fs_a.recovery_ns, fs_b.recovery_ns);
  EXPECT_TRUE(fs_a.injected != fs_c.injected ||
              fs_a.stuck_cells != fs_c.stuck_cells ||
              fs_a.retries != fs_c.retries)
      << "seed 2 drew the exact same faults as seed 1";
}

TEST(FaultInjectionTest, FailOpPolicyPropagatesDeviceFaultStatus) {
  const size_t n = 64, s = 64;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 13);
  RecoveryPolicy recovery;
  recovery.max_retries = 0;
  recovery.remap_on_permanent = false;
  recovery.verify_mode = VerifyMode::kFailOp;
  PimDevice device(PimConfig(), MakeFault(5e-2, 0), recovery);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const std::vector<int32_t> queries = RandomQueries(2, s, 1 << 20, 14);
  std::vector<uint64_t> out;
  const Status status = device.DotProductBatch(queries, 2, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeviceFault) << status.ToString();

  // The same policy surfaces through the engine as a Status, not an abort.
  const FloatMatrix fdata = testing_util::RandomUnitMatrix(64, 32, 15);
  EngineOptions options;
  options.fault_config = MakeFault(5e-2, 0);
  options.recovery = recovery;
  auto engine = PimEngine::Build(fdata, Distance::kEuclidean, options);
  ASSERT_TRUE(engine.ok());
  PimEngine::QueryScratch scratch;
  PimEngine::QueryHandleBatch handle;
  ASSERT_TRUE((*engine)
                  ->PrepareBatch(testing_util::RandomUnitVector(32, 16), 1,
                                 &scratch, &handle)
                  .ok());
  const Status failed = (*engine)->DeviceBatch(scratch, 1, &handle);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kDeviceFault);
}

TEST(FaultInjectionTest, BoundSlackRequiresSuspectBuffer) {
  const size_t n = 16, s = 32;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 17);
  RecoveryPolicy recovery;
  recovery.verify_mode = VerifyMode::kBoundSlack;
  PimDevice device(PimConfig(), MakeFault(1e-3, 0), recovery);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const std::vector<int32_t> queries = RandomQueries(1, s, 1 << 20, 18);
  std::vector<uint64_t> out;
  const Status status = device.DotProductBatch(queries, 1, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::vector<uint8_t> suspect;
  EXPECT_TRUE(device.DotProductBatch(queries, 1, &out, &suspect).ok());
  EXPECT_EQ(suspect.size(), n);
}

TEST(FaultInjectionTest, BoundSlackFlagsEscalatedResults) {
  const size_t n = 64, s = 64;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 19);
  RecoveryPolicy recovery;
  recovery.max_retries = 0;
  recovery.remap_on_permanent = false;
  recovery.verify_mode = VerifyMode::kBoundSlack;
  PimDevice device(PimConfig(), MakeFault(1e-2, 0), recovery);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const std::vector<int32_t> queries = RandomQueries(2, s, 1 << 20, 20);
  std::vector<uint64_t> out;
  std::vector<uint8_t> suspect;
  ASSERT_TRUE(device.DotProductBatch(queries, 2, &out, &suspect).ok());
  uint64_t flagged = 0;
  for (uint8_t f : suspect) flagged += f;
  EXPECT_GT(flagged, 0u) << "stuck cells with no recovery must flag results";
  EXPECT_EQ(device.stats().fault.escalated_to_host, flagged);
}

// The headline guarantee of DESIGN.md §6: every PIM kNN path returns the
// exact top-k under injected faults, for both the host-exact and the
// bound-slack recovery modes, at every tested rate.
TEST(FaultInjectionTest, KnnTopKIsExactUnderFaultsForAllPimPaths) {
  const size_t n = 80, d = 64, num_queries = 3;
  const int k = 5;
  const FloatMatrix data = testing_util::RandomUnitMatrix(n, d, 23);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(num_queries, d, 24);

  const auto make_algorithms = [](const EngineOptions& options) {
    std::vector<std::unique_ptr<KnnAlgorithm>> algorithms;
    algorithms.push_back(
        std::make_unique<StandardPimKnn>(Distance::kEuclidean, options));
    algorithms.push_back(std::make_unique<OstPimKnn>(options));
    algorithms.push_back(std::make_unique<SmPimKnn>(options));
    algorithms.push_back(std::make_unique<FnnPimKnn>(options, false));
    return algorithms;
  };

  // Fault-free reference neighbors per algorithm.
  std::vector<std::vector<std::vector<Neighbor>>> reference;
  for (auto& algorithm : make_algorithms(EngineOptions())) {
    ASSERT_TRUE(algorithm->Prepare(data).ok());
    auto result = algorithm->Search(queries, k);
    ASSERT_TRUE(result.ok()) << algorithm->name();
    EXPECT_FALSE(result->stats.fault.Any()) << algorithm->name();
    reference.push_back(std::move(result->neighbors));
  }

  for (const double rate : {1e-4, 1e-3, 1e-2}) {
    for (const VerifyMode mode :
         {VerifyMode::kHostExact, VerifyMode::kBoundSlack}) {
      EngineOptions options;
      options.fault_config = MakeFault(rate, rate);
      options.recovery.verify_mode = mode;
      auto algorithms = make_algorithms(options);
      for (size_t a = 0; a < algorithms.size(); ++a) {
        ASSERT_TRUE(algorithms[a]->Prepare(data).ok());
        auto result = algorithms[a]->Search(queries, k);
        ASSERT_TRUE(result.ok()) << algorithms[a]->name();
        EXPECT_EQ(result->neighbors, reference[a])
            << algorithms[a]->name() << " diverged at rate " << rate
            << " mode " << VerifyModeName(mode);
        const FaultStats& fs = result->stats.fault;
        EXPECT_EQ(fs.injected, fs.detected + fs.escaped)
            << algorithms[a]->name();
        EXPECT_EQ(fs.escaped, 0u) << algorithms[a]->name() << " rate " << rate;
        if (rate == 1e-2) {
          EXPECT_GT(fs.detected, 0u) << algorithms[a]->name();
          EXPECT_GT(fs.recovery_ns, 0.0) << algorithms[a]->name();
        }
      }
    }
  }
}

TEST(FaultInjectionTest, KmeansAssignmentsAreExactUnderFaults) {
  const size_t n = 120, d = 24;
  const FloatMatrix data = testing_util::RandomUnitMatrix(n, d, 25);
  KmeansOptions base;
  base.k = 6;
  base.max_iterations = 4;
  base.use_pim = true;

  const auto run = [&](KmeansAlgorithm& algorithm,
                       const KmeansOptions& options) {
    auto result = algorithm.Run(data, options);
    PIMINE_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  };

  LloydKmeans lloyd;
  ElkanKmeans elkan;
  const KmeansResult lloyd_clean = run(lloyd, base);
  const KmeansResult elkan_clean = run(elkan, base);
  EXPECT_FALSE(lloyd_clean.stats.fault.Any());

  for (const double rate : {1e-3, 1e-2}) {
    KmeansOptions faulty = base;
    faulty.engine_options.fault_config = MakeFault(rate, rate);
    for (auto* pair : {&lloyd_clean, &elkan_clean}) {
      KmeansAlgorithm& algorithm =
          pair == &lloyd_clean ? static_cast<KmeansAlgorithm&>(lloyd)
                               : static_cast<KmeansAlgorithm&>(elkan);
      const KmeansResult result = run(algorithm, faulty);
      EXPECT_EQ(result.assignments, pair->assignments)
          << "rate " << rate << " " << algorithm.name();
      EXPECT_EQ(result.iterations, pair->iterations);
      EXPECT_DOUBLE_EQ(result.inertia, pair->inertia);
      const FaultStats& fs = result.stats.fault;
      EXPECT_EQ(fs.injected, fs.detected + fs.escaped);
      EXPECT_EQ(fs.escaped, 0u);
      if (rate == 1e-2) {
        EXPECT_GT(fs.detected, 0u);
      }
    }
  }
}

TEST(FaultInjectionTest, StatsResetPreservesStuckCellCount) {
  const size_t n = 64, s = 64;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 27);
  PimDevice device(PimConfig(), MakeFault(1e-2, 1e-3), RecoveryPolicy());
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const uint64_t stuck = device.stats().fault.stuck_cells;
  EXPECT_GT(stuck, 0u);
  const std::vector<int32_t> queries = RandomQueries(4, s, 1 << 20, 28);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, 4, &out).ok());
  EXPECT_GT(device.stats().fault.detected, 0u);
  device.ResetOnlineStats();
  EXPECT_EQ(device.stats().fault.detected, 0u);
  EXPECT_EQ(device.stats().fault.recovery_ns, 0.0);
  EXPECT_EQ(device.stats().fault.stuck_cells, stuck)
      << "stuck cells are an offline property and must survive the reset";
}

}  // namespace
}  // namespace pimine
