// Micro-benchmarks (google-benchmark) of the PIM substrate: cycle-level
// crossbar dot products, batched device matches at the workload shapes,
// span-wise vs per-row bound combines (ns per bound, per engine mode),
// layout math, and the crossbar-geometry ablations called out in
// DESIGN.md §7.
//
// `bench_micro_pim --batch_sweep [n] [s]` switches to a standalone
// batched-vs-single sweep (Q in {1, 4, 6, 7, 16, 64}) that emits one JSON
// document in the bench_micro_batch_kernels shape, with built-in
// bit-identity and modeled-stats self-checks. Default n=4096, s=256.
//
// `bench_micro_pim --fault_sweep [n] [s]` sweeps the ReRAM fault rate over
// {0, 1e-4, 1e-3, 1e-2} (stuck cells + transients, host-exact recovery) and
// emits one JSON document with throughput, recovery accounting, and a
// PIMINE_CHECKed bit-identity guarantee against the fault-free device.
//
// `bench_micro_pim --shard_sweep [n] [d]` sweeps the fleet size M over
// {1, 2, 4, 8} crossed with device batch Q in {1, 16} on a full
// ShardedPimEngine, PIMINE_CHECKs every span of bounds (BoundsFor,
// scattered across the shards) bit-identical to the single-device run,
// and emits a "pimine.bench.shard.v1" JSON document
// (stdout + BENCH_shard.json) with modeled queries/s and the
// interconnect-overhead fraction. Default n=4096, d=256.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "pim/crossbar.h"
#include "pim/crossbar_math.h"
#include "pim/dot_gemm.h"
#include "pim/pim_device.h"
#include "pim/timing.h"
#include "util/random.h"
#include "util/timer.h"

namespace pimine {
namespace {

void BM_CrossbarPipelineDotProduct(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int operand_bits = static_cast<int>(state.range(1));
  Crossbar xbar(dim, 2);
  Rng rng(1);
  const uint64_t limit = 1ULL << operand_bits;
  const int cols = xbar.NumLogicalColumns(operand_bits);
  std::vector<uint32_t> operands(dim);
  for (int c = 0; c < cols; ++c) {
    for (auto& v : operands) v = static_cast<uint32_t>(rng.NextBounded(limit));
    benchmark::DoNotOptimize(xbar.ProgramVector(c, operands, operand_bits));
  }
  std::vector<uint32_t> input(dim);
  for (auto& v : input) v = static_cast<uint32_t>(rng.NextBounded(limit));

  for (auto _ : state) {
    auto result = xbar.DotProduct(input, operand_bits, operand_bits, 2);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * dim * cols);
}
BENCHMARK(BM_CrossbarPipelineDotProduct)
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({256, 32});

// One DotProductBatch of Q queries; items are multiply-adds. The shapes
// are the workloads' device matrices: knn-msd's LB_PIM-FNN segments
// (20000 x 105), a kmeans-nuswide-sized matrix (1500 x 500) and a small
// direct-ED corpus (512 x 420).
void BM_DeviceBatchDotProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const size_t num_queries = static_cast<size_t>(state.range(2));
  constexpr uint32_t kLimit = 1 << 20;  // operands at alpha = 1e6
  IntMatrix data(n, d);
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t& v : data.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(kLimit));
    }
  }
  PimDevice device;
  if (!device.ProgramDataset(data).ok()) {
    state.SkipWithError("program failed");
    return;
  }
  std::vector<int32_t> queries(num_queries * d);
  for (auto& v : queries) v = static_cast<int32_t>(rng.NextBounded(kLimit));
  std::vector<uint64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device.DotProductBatch(queries, num_queries, &out));
  }
  state.SetItemsProcessed(state.iterations() * n * d * num_queries);
  // The tier these operands run on.
  state.SetLabel(
      std::string(GemmTierName(GemmTierFor(kLimit - 1, kLimit - 1))));
}
BENCHMARK(BM_DeviceBatchDotProduct)
    ->ArgNames({"n", "s", "Q"})
    ->ArgsProduct({{20000}, {105}, {1, 3, 5, 6, 7, 8, 16, 32}})
    ->ArgsProduct({{1500}, {500}, {1, 3, 5, 6, 7, 8, 16, 32}})
    ->ArgsProduct({{512}, {420}, {1, 3, 5, 6, 7, 8, 16, 32}});

// One query's bounds over a 20000-row corpus, per engine mode (0 = ED,
// 1 = FNN, 2 = SM, 3 = CS, 4 = PCC): span = 1 runs one
// ShardedPimEngine::BoundsFor, span = 0 the per-row BoundFor loop it
// replaced. Reports the time per bound.
void BM_BoundsForVsPerRow(benchmark::State& state) {
  struct Mode {
    Distance distance;
    EngineOptions::Bound bound;
  };
  const Mode modes[] = {
      {Distance::kEuclidean, EngineOptions::Bound::kDirectEd},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentSm},
      {Distance::kCosine, EngineOptions::Bound::kAuto},
      {Distance::kPearson, EngineOptions::Bound::kAuto},
  };
  const Mode& mode = modes[state.range(0)];
  const bool span = state.range(1) != 0;
  const size_t n = 20000, d = 64;
  Rng rng(3);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : data.mutable_row(i)) v = rng.NextFloat();
  }
  std::vector<float> query(d);
  for (float& v : query) v = rng.NextFloat();
  EngineOptions options;
  options.bound = mode.bound;
  auto engine = ShardedPimEngine::Build(data, mode.distance, options);
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  auto batch = (*engine)->RunQueryBatch(query, 1);
  PIMINE_CHECK(batch.ok()) << batch.status().ToString();
  std::vector<double> bounds(n);
  for (auto _ : state) {
    if (span) {
      (*engine)->BoundsFor(*batch, 0, bounds);
    } else {
      for (size_t i = 0; i < n; ++i) {
        bounds[i] = (*engine)->BoundFor(*batch, 0, i);
      }
    }
    benchmark::DoNotOptimize(bounds.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(EngineModeName((*engine)->mode())));
  // Seconds per bound; the console prints it with an SI prefix (e.g.
  // "per_bound=2.1ns").
  state.counters["per_bound"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BoundsForVsPerRow)
    ->ArgNames({"mode", "span"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// Ablation: modeled batch latency vs crossbar size and cell precision.
void BM_ModeledLatencyAblation(benchmark::State& state) {
  PimConfig config;
  config.crossbar_dim = static_cast<int>(state.range(0));
  config.cell_bits = static_cast<int>(state.range(1));
  config.dac_bits = config.cell_bits;
  PimTimingModel timing(config);
  double total = 0.0;
  for (auto _ : state) {
    total += timing.BatchDotLatencyNs(1024, 32);
    benchmark::DoNotOptimize(total);
  }
  state.counters["latency_ns"] = timing.BatchDotLatencyNs(1024, 32);
  state.counters["crossbars_per_pair"] =
      CrossbarsForPair(1024, config.crossbar_dim);
}
BENCHMARK(BM_ModeledLatencyAblation)
    ->Args({128, 2})
    ->Args({256, 2})
    ->Args({512, 2})
    ->Args({256, 4});

void BM_PlanLayout(benchmark::State& state) {
  PimConfig config;
  for (auto _ : state) {
    auto s = MaxCompressedDim(1'000'000, 32, 4096, config);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_PlanLayout);

// --- batched-vs-single device sweep (--batch_sweep) ----------------------

std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

double BestOfMs(int repetitions, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

/// Modeled-stat fields that must be invariant under batching, compared
/// bit-for-bit between a batched device and a single-query device.
bool InvariantStatsEqual(const PimDeviceStats& a, const PimDeviceStats& b) {
  return a.queries_processed == b.queries_processed &&
         a.compute_ns == b.compute_ns &&
         a.compute_energy_pj == b.compute_energy_pj &&
         a.results_produced == b.results_produced &&
         a.result_bytes_to_host == b.result_bytes_to_host;
}

int BatchSweep(size_t n, size_t s) {
  // 64 * 3 * 7, divisible by every swept Q.
  constexpr size_t kTotalQueries = 1344;
  Rng rng(7);
  IntMatrix data(n, s);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t& v : data.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(1 << 20));
    }
  }
  std::vector<int32_t> queries(kTotalQueries * s);
  for (int32_t& v : queries) {
    v = static_cast<int32_t>(rng.NextBounded(1 << 20));
  }

  // Single-query reference device: results for all kTotalQueries queries,
  // one one-query DotProductBatch each, and the modeled stats of 6 such
  // passes (each sweep point below runs a warm-up plus 5 timed passes).
  PimDevice single;
  PIMINE_CHECK_OK(single.ProgramDataset(data));
  std::vector<uint64_t> expected(kTotalQueries * n);
  std::vector<uint64_t> out;
  for (int rep = 0; rep < 6; ++rep) {
    for (size_t q = 0; q < kTotalQueries; ++q) {
      PIMINE_CHECK_OK(single.DotProductBatch(
          std::span<const int32_t>(queries).subspan(q * s, s), 1, &out));
      if (rep == 0) std::copy(out.begin(), out.end(), expected.begin() + q * n);
    }
  }

  std::cout << "{\n"
            << "  \"bench\": \"micro_pim_batch\",\n"
            << "  \"n\": " << n << ",\n"
            << "  \"s\": " << s << ",\n"
            << "  \"total_queries\": " << kTotalQueries << ",\n"
            << "  \"sweep\": [\n";

  double q1_ms = 0.0;
  bool first = true;
  for (size_t batch : {size_t{1}, size_t{4}, size_t{6}, size_t{7},
                       size_t{16}, size_t{64}}) {
    PimDevice device;
    PIMINE_CHECK_OK(device.ProgramDataset(data));
    std::vector<uint64_t> batch_out;

    const auto run_all = [&] {
      for (size_t q0 = 0; q0 < kTotalQueries; q0 += batch) {
        PIMINE_CHECK_OK(device.DotProductBatch(
            std::span<const int32_t>(queries).subspan(q0 * s, batch * s),
            batch, &batch_out));
      }
    };
    run_all();  // warm-up; also the copy checked for bit-identity below.

    // Bit-identity self-check against the single-query reference (the last
    // batch of run_all covers queries [kTotalQueries - batch, kTotalQueries)).
    for (size_t q = kTotalQueries - batch; q < kTotalQueries; ++q) {
      const size_t bq = q - (kTotalQueries - batch);
      for (size_t v = 0; v < n; ++v) {
        PIMINE_CHECK(batch_out[bq * n + v] == expected[q * n + v])
            << "batched result diverged at Q=" << batch << " q=" << q
            << " v=" << v;
      }
    }

    const double ms = BestOfMs(5, run_all);
    if (batch == 1) q1_ms = ms;

    // Modeled-stats self-check: every invariant field must equal the
    // single-query device's after the same 6 * kTotalQueries queries.
    PIMINE_CHECK(InvariantStatsEqual(device.stats(), single.stats()))
        << "batched stats diverged at Q=" << batch << ":\n  batched: "
        << device.stats().ToString()
        << "\n  single:  " << single.stats().ToString();
    const uint64_t expected_batches =
        6 * (kTotalQueries / batch);
    PIMINE_CHECK(device.stats().batch_ops == expected_batches);
    PIMINE_CHECK(device.stats().queries_per_batch.at(
                     static_cast<int64_t>(batch)) == expected_batches);

    const double queries_per_s =
        static_cast<double>(kTotalQueries) / (ms / 1e3);
    // Modeled times for ONE pass over the kTotalQueries queries.
    const double serial_ns = device.stats().compute_ns / 6.0;
    const double pipelined_ns = device.stats().pipelined_ns / 6.0;
    if (!first) std::cout << ",\n";
    first = false;
    std::cout << "    {\"q\": " << batch
              << ", \"wall_ms\": " << Fmt(ms, 4)
              << ", \"queries_per_s\": " << Fmt(queries_per_s, 1)
              << ", \"speedup_vs_q1\": "
              << Fmt(q1_ms / std::max(1e-9, ms), 3)
              << ", \"modeled_serial_ns\": " << Fmt(serial_ns, 1)
              << ", \"modeled_pipelined_ns\": " << Fmt(pipelined_ns, 1)
              << ", \"modeled_speedup\": "
              << Fmt(serial_ns / std::max(1e-9, pipelined_ns), 3)
              << ", \"identical_to_single\": true}";
  }
  std::cout << "\n  ],\n"
            << "  \"note\": \"identical_to_single is PIMINE_CHECKed: results "
               "are bit-identical and all batching-invariant modeled stats "
               "are exactly equal to the per-query path\"\n"
            << "}\n";
  return 0;
}

// --- fault-rate sweep (--fault_sweep) ------------------------------------

int FaultSweep(size_t n, size_t s) {
  constexpr size_t kTotalQueries = 16;
  constexpr size_t kBatch = 4;
  Rng rng(7);
  IntMatrix data(n, s);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t& v : data.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(1 << 20));
    }
  }
  std::vector<int32_t> queries(kTotalQueries * s);
  for (int32_t& v : queries) {
    v = static_cast<int32_t>(rng.NextBounded(1 << 20));
  }

  // Fault-free reference results.
  PimDevice clean;
  PIMINE_CHECK_OK(clean.ProgramDataset(data));
  std::vector<uint64_t> expected(kTotalQueries * n);
  {
    std::vector<uint64_t> out;
    for (size_t q0 = 0; q0 < kTotalQueries; q0 += kBatch) {
      PIMINE_CHECK_OK(clean.DotProductBatch(
          std::span<const int32_t>(queries).subspan(q0 * s, kBatch * s),
          kBatch, &out));
      std::copy(out.begin(), out.end(), expected.begin() + q0 * n);
    }
  }

  std::cout << "{\n"
            << "  \"bench\": \"micro_pim_fault\",\n"
            << "  \"n\": " << n << ",\n"
            << "  \"s\": " << s << ",\n"
            << "  \"total_queries\": " << kTotalQueries << ",\n"
            << "  \"recovery\": \"host-exact\",\n"
            << "  \"sweep\": [\n";

  bool first = true;
  for (double rate : {0.0, 1e-4, 1e-3, 1e-2}) {
    FaultConfig fault;
    fault.cell_rate = rate;
    fault.transient_rate = rate;
    PimDevice device(PimConfig(), fault, RecoveryPolicy());
    PIMINE_CHECK_OK(device.ProgramDataset(data));
    std::vector<uint64_t> out(kTotalQueries * n);
    std::vector<uint64_t> batch_out;

    const auto run_all = [&] {
      for (size_t q0 = 0; q0 < kTotalQueries; q0 += kBatch) {
        PIMINE_CHECK_OK(device.DotProductBatch(
            std::span<const int32_t>(queries).subspan(q0 * s, kBatch * s),
            kBatch, &batch_out));
        std::copy(batch_out.begin(), batch_out.end(), out.begin() + q0 * n);
      }
    };
    run_all();  // warm-up; also the copy checked for bit-identity below.

    // Exact-result guarantee: host-exact recovery keeps every dot product
    // bit-identical to the fault-free device at every injected rate.
    const FaultStats warm = device.stats().fault;
    PIMINE_CHECK(warm.escaped == 0)
        << "faults escaped at rate " << rate << ": " << warm.ToString();
    for (size_t i = 0; i < expected.size(); ++i) {
      PIMINE_CHECK(out[i] == expected[i])
          << "faulty result diverged at rate " << rate << " index " << i;
    }

    const double ms = BestOfMs(3, run_all);
    const FaultStats fs = device.stats().fault;
    PIMINE_CHECK(fs.injected == fs.detected + fs.escaped)
        << "fault accounting broken: " << fs.ToString();
    const double queries_per_s =
        static_cast<double>(kTotalQueries) / (ms / 1e3);
    // Accounting covers the warm-up plus 3 timed repetitions (4 passes).
    if (!first) std::cout << ",\n";
    first = false;
    std::cout << "    {\"rate\": " << rate
              << ", \"wall_ms\": " << Fmt(ms, 4)
              << ", \"queries_per_s\": " << Fmt(queries_per_s, 1)
              << ", \"stuck_cells\": " << fs.stuck_cells
              << ", \"injected\": " << fs.injected
              << ", \"detected\": " << fs.detected
              << ", \"escaped\": " << fs.escaped
              << ", \"retries\": " << fs.retries
              << ", \"remapped_rows\": " << fs.remapped_rows
              << ", \"escalated_to_host\": " << fs.escalated_to_host
              << ", \"recovery_ns\": " << Fmt(fs.recovery_ns, 1)
              << ", \"identical_to_fault_free\": true}";
  }
  std::cout << "\n  ],\n"
            << "  \"note\": \"identical_to_fault_free is PIMINE_CHECKed on "
               "the verification pass: zero escapes and every dot product "
               "bit-identical to the fault-free device. The timed "
               "repetitions afterwards only contribute to the accounting "
               "(injected == detected + escaped is re-checked on the "
               "totals), so 'escaped' may be nonzero at high rates\"\n"
            << "}\n";
  return 0;
}

// --- fleet-size sweep (--shard_sweep) ------------------------------------

int ShardSweep(size_t n, size_t d) {
  constexpr size_t kTotalQueries = 16;
  Rng rng(7);
  FloatMatrix data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : data.mutable_row(i)) v = rng.NextFloat();
  }
  FloatMatrix queries(kTotalQueries, d);
  for (size_t i = 0; i < kTotalQueries; ++i) {
    for (float& v : queries.mutable_row(i)) v = rng.NextFloat();
  }

  // Reference bounds of the M=1, Q=1 run; every other (M, Q) combination
  // must reproduce them bit-for-bit.
  std::vector<double> expected(kTotalQueries * n);
  std::vector<double> bounds(n);

  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"pimine.bench.shard.v1\",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"d\": " << d << ",\n"
       << "  \"total_queries\": " << kTotalQueries << ",\n"
       << "  \"sweep\": [\n";

  bool first = true;
  for (int shards : {1, 2, 4, 8}) {
    EngineOptions options;
    options.shard.shards = shards;
    auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    PIMINE_CHECK(built.ok()) << built.status().ToString();
    const std::unique_ptr<ShardedPimEngine> engine = std::move(built).value();

    for (size_t batch : {size_t{1}, size_t{16}}) {
      engine->ResetOnlineStats();

      // Accounting + bit-identity pass: one sweep over all queries.
      for (size_t q0 = 0; q0 < kTotalQueries; q0 += batch) {
        auto run = engine->RunQueryBatch(
            std::span<const float>(queries.data() + q0 * d, batch * d), batch);
        PIMINE_CHECK(run.ok()) << run.status().ToString();
        const ShardedPimEngine::QueryHandleBatch handle =
            std::move(run).value();
        for (size_t bq = 0; bq < batch; ++bq) {
          const std::span<double> reference =
              std::span<double>(expected).subspan((q0 + bq) * n, n);
          if (shards == 1 && batch == 1) {
            engine->BoundsFor(handle, bq, reference);
            continue;
          }
          engine->BoundsFor(handle, bq, bounds);
          for (size_t i = 0; i < n; ++i) {
            PIMINE_CHECK(bounds[i] == reference[i])
                << "bound diverged at M=" << shards << " Q=" << batch
                << " q=" << q0 + bq << " i=" << i;
          }
        }
      }

      // Modeled figures for the single accounting pass, snapshotted before
      // the timed repetitions: device occupancy is the max over the
      // concurrently-running shards; the interconnect ns come from the
      // fleet's scatter/gather message counters (zero at M=1).
      const double pipelined_ns = engine->PimPipelinedNs();
      const FleetRunStats fleet = engine->FleetStats();
      const double interconnect_ns = fleet.InterconnectNs();
      const double modeled_total_ns = pipelined_ns + interconnect_ns;
      const double modeled_qps =
          static_cast<double>(kTotalQueries) /
          (std::max(1e-9, modeled_total_ns) / 1e9);
      const double interconnect_fraction =
          modeled_total_ns > 0.0 ? interconnect_ns / modeled_total_ns : 0.0;

      ShardedPimEngine::QueryScratch scratch;
      ShardedPimEngine::QueryHandleBatch reused;
      const double ms = BestOfMs(3, [&] {
        for (size_t q0 = 0; q0 < kTotalQueries; q0 += batch) {
          PIMINE_CHECK_OK(engine->RunQueryBatch(
              std::span<const float>(queries.data() + q0 * d, batch * d),
              batch, &scratch, &reused));
        }
      });
      const double queries_per_s =
          static_cast<double>(kTotalQueries) / (ms / 1e3);

      // Crossbar demand of the busiest shard (shard 0 holds the most
      // rows): the provisioning axis the fleet actually scales — latency
      // is row-count independent, so M devices each need ~1/M of the
      // single device's crossbars for the same modeled time.
      const MemoryPlan& shard_plan = engine->shard_engine(0).plan();
      const int64_t crossbars_per_shard =
          shard_plan.data_crossbars + shard_plan.gather_crossbars;

      if (!first) json << ",\n";
      first = false;
      json << "    {\"shards\": " << shards
           << ", \"q\": " << batch
           << ", \"crossbars_per_shard\": " << crossbars_per_shard
           << ", \"wall_ms\": " << Fmt(ms, 4)
           << ", \"queries_per_s\": " << Fmt(queries_per_s, 1)
           << ", \"modeled_pipelined_ns\": " << Fmt(pipelined_ns, 1)
           << ", \"interconnect_ns\": " << Fmt(interconnect_ns, 1)
           << ", \"modeled_queries_per_s\": " << Fmt(modeled_qps, 1)
           << ", \"interconnect_fraction\": "
           << Fmt(interconnect_fraction, 4)
           << ", \"identical_to_single_device\": true}";
    }
  }
  json << "\n  ],\n"
       << "  \"note\": \"identical_to_single_device is PIMINE_CHECKed: "
          "every lower bound of every (M, Q) combination, computed one "
          "BoundsFor span per query, is bit-identical to the M=1, Q=1 run. "
          "modeled_queries_per_s divides the query "
          "count by max-over-shards pipelined device time plus the "
          "scatter/gather interconnect time, so the interconnect_fraction "
          "reports the fleet's communication overhead honestly. The "
          "crossbar pass is row-count independent, so what scales with M "
          "is crossbars_per_shard (each device provisions ~1/M of the "
          "single-device array), not the per-query latency\"\n"
       << "}\n";

  std::cout << json.str();
  std::ofstream out("BENCH_shard.json");
  PIMINE_CHECK(out.good()) << "cannot write BENCH_shard.json";
  out << json.str();
  std::cerr << "wrote BENCH_shard.json\n";
  return 0;
}

}  // namespace
}  // namespace pimine

int main(int argc, char** argv) {
  const bool batch_sweep =
      argc > 1 && std::strcmp(argv[1], "--batch_sweep") == 0;
  const bool fault_sweep =
      argc > 1 && std::strcmp(argv[1], "--fault_sweep") == 0;
  const bool shard_sweep =
      argc > 1 && std::strcmp(argv[1], "--shard_sweep") == 0;
  if (batch_sweep || fault_sweep || shard_sweep) {
    size_t n = 4096;
    size_t s = 256;
    const auto parse = [](const char* arg, size_t* out) {
      char* end = nullptr;
      const long long v = std::strtoll(arg, &end, 10);
      if (end == arg || *end != '\0' || v <= 0) return false;
      *out = static_cast<size_t>(v);
      return true;
    };
    if ((argc > 2 && !parse(argv[2], &n)) ||
        (argc > 3 && !parse(argv[3], &s))) {
      std::cerr << "usage: " << argv[0] << " " << argv[1] << " [n] [s]\n";
      return 2;
    }
    if (batch_sweep) return pimine::BatchSweep(n, s);
    if (fault_sweep) return pimine::FaultSweep(n, s);
    return pimine::ShardSweep(n, s);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
