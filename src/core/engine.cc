#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "core/decompose.h"
#include "core/pim_bounds.h"
#include "core/segments.h"
#include "data/normalize.h"
#include "obs/obs.h"
#include "sim/traffic.h"

namespace pimine {

std::string_view EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kDirectEd:
      return "LB_PIM-ED";
    case EngineMode::kSegmentFnn:
      return "LB_PIM-FNN";
    case EngineMode::kSegmentSm:
      return "LB_PIM-SM";
    case EngineMode::kCosine:
      return "UB_PIM-CS";
    case EngineMode::kPearson:
      return "UB_PIM-PCC";
  }
  return "?";
}

Status EngineOptions::Validate() const {
  if (!(alpha >= 1.0 && alpha <= 2e9)) {
    std::ostringstream os;
    os << "alpha must be in [1, 2e9] (got " << alpha << ")";
    return Status::InvalidArgument(os.str());
  }
  PIMINE_RETURN_IF_ERROR(pim_config.Validate());
  return fault_config.Validate();
}

Result<EngineGeometry> ResolveEngineGeometry(int64_t n, int64_t d,
                                             Distance distance,
                                             const EngineOptions& options) {
  PIMINE_RETURN_IF_ERROR(options.Validate());
  EngineGeometry g;
  if (distance == Distance::kCosine || distance == Distance::kPearson) {
    if (options.bound != EngineOptions::Bound::kAuto) {
      return Status::InvalidArgument(
          "CS/PCC engines only support the automatic bound");
    }
    PIMINE_ASSIGN_OR_RETURN(g.plan, PlanPimLayout(n, d, options.operand_bits,
                                                  1, options.pim_config));
    if (g.plan.compressed) {
      return Status::CapacityExceeded(
          "CS/PCC require the full-dimensionality dataset on PIM; "
          "enlarge the PIM array");
    }
    g.mode = distance == Distance::kCosine ? EngineMode::kCosine
                                           : EngineMode::kPearson;
    return g;
  }

  // Euclidean family: pick the bound.
  g.bound = options.bound;
  if (g.bound == EngineOptions::Bound::kAuto) {
    PIMINE_ASSIGN_OR_RETURN(g.plan, PlanPimLayout(n, d, options.operand_bits,
                                                  1, options.pim_config));
    g.bound = g.plan.compressed ? EngineOptions::Bound::kSegmentFnn
                                : EngineOptions::Bound::kDirectEd;
  }
  if (g.bound == EngineOptions::Bound::kDirectEd) {
    PIMINE_ASSIGN_OR_RETURN(g.plan, PlanPimLayout(n, d, options.operand_bits,
                                                  1, options.pim_config));
    if (g.plan.compressed) {
      return Status::CapacityExceeded(
          "full-dimensionality LB_PIM-ED does not fit; use a segment bound");
    }
    g.mode = EngineMode::kDirectEd;
    return g;
  }
  const bool with_stds = g.bound == EngineOptions::Bound::kSegmentFnn;
  PIMINE_ASSIGN_OR_RETURN(g.plan, PlanPimLayout(n, d, options.operand_bits,
                                                with_stds ? 2 : 1,
                                                options.pim_config));
  // Beyond d/4 segments the bound gains little tightness (segments of
  // fewer than 4 values) while the crossbar cost keeps growing, so the
  // automatic choice caps Theorem 4's maximum there — matching the
  // paper's picks (s=105 on MSD, d=420).
  g.segments = std::min(g.plan.s, std::max<int64_t>(1, d / 4));
  if (options.force_segments > 0) {
    if (options.force_segments > g.plan.s) {
      return Status::CapacityExceeded(
          "forced segment count exceeds the Theorem 4 maximum");
    }
    g.segments = options.force_segments;
  }
  g.plan.s = g.segments;
  g.plan.compressed = g.segments < d;
  g.mode = with_stds ? EngineMode::kSegmentFnn : EngineMode::kSegmentSm;
  return g;
}

PimEngine::PimEngine(EngineMode mode, const EngineOptions& options)
    : mode_(mode),
      quantizer_(options.alpha),
      operand_bits_(options.operand_bits) {}

Result<std::unique_ptr<PimEngine>> PimEngine::Build(
    const FloatMatrix& data, Distance distance,
    const EngineOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot build engine on empty data");
  }
  PIMINE_RETURN_IF_ERROR(CheckUnitRange(data.values(), "data"));
  const int64_t d = static_cast<int64_t>(data.cols());
  PIMINE_ASSIGN_OR_RETURN(
      const EngineGeometry g,
      ResolveEngineGeometry(static_cast<int64_t>(data.rows()), d, distance,
                            options));
  auto engine = std::unique_ptr<PimEngine>(new PimEngine(g.mode, options));
  engine->plan_ = g.plan;
  engine->dims_ = data.cols();
  if (g.segments > 0) {
    engine->num_segments_ = g.segments;
    engine->segment_length_ = SegmentLength(d, g.segments);
  }
  // kSegmentFnn matches segment means and segment stds on two devices.
  const size_t devices = g.mode == EngineMode::kSegmentFnn ? 2 : 1;
  for (size_t k = 0; k < devices; ++k) {
    FaultConfig fault = options.fault_config;
    if (k > 0) fault.seed ^= 0x9e3779b97f4a7c15ULL;
    engine->devices_.push_back(std::make_unique<PimDevice>(
        options.pim_config, fault, options.recovery));
  }
  PIMINE_RETURN_IF_ERROR(engine->ProgramRows(data, Program::kFirst));
  return engine;
}

PimEngine::BoundTerms PimEngine::EncodeRow(std::span<const float> row,
                                           size_t at,
                                           QueryScratch* scratch) const {
  const auto op = [&](size_t k) {
    return std::span<int32_t>(scratch->ops[k]).subspan(at, OperandWidth());
  };
  BoundTerms t;
  switch (mode_) {
    case EngineMode::kDirectEd:
      quantizer_.QuantizeRow(row, op(0));
      t.phi = quantizer_.PhiEd(row);
      break;
    case EngineMode::kSegmentFnn:
    case EngineMode::kSegmentSm: {
      const size_t s = static_cast<size_t>(num_segments_);
      scratch->means.resize(s);
      scratch->stds.resize(s);
      ComputeSegments(row, num_segments_, scratch->means, scratch->stds);
      quantizer_.QuantizeRow(scratch->means, op(0));
      if (mode_ == EngineMode::kSegmentFnn) {
        quantizer_.QuantizeRow(scratch->stds, op(1));
        t.phi = quantizer_.PhiFnn(scratch->means, scratch->stds);
      } else {
        t.phi = quantizer_.PhiSm(scratch->means);
      }
      break;
    }
    case EngineMode::kCosine:
    case EngineMode::kPearson:
      quantizer_.QuantizeRow(row, op(0));
      t.sum_floor = quantizer_.SumFloors(row);
      if (mode_ == EngineMode::kCosine) {
        t.norm = CsDecomposition::Phi(row);
      } else {
        const PccDecomposition::Phi phi = PccDecomposition::ComputePhi(row);
        t.norm = phi.a;
        t.phi_b = phi.b;
      }
      break;
  }
  return t;
}

Status PimEngine::ProgramRows(const FloatMatrix& rows, Program how) {
  const size_t width = OperandWidth();
  QueryScratch scratch;
  scratch.ops.assign(devices_.size(),
                     std::vector<int32_t>(rows.rows() * width));
  std::vector<BoundTerms> terms(rows.rows());
  for (size_t i = 0; i < rows.rows(); ++i) {
    terms[i] = EncodeRow(rows.row(i), i * width, &scratch);
  }

  const double program_before = DeviceStatsTotal().program_ns;
  for (size_t k = 0; k < devices_.size(); ++k) {
    const IntMatrix ops(rows.rows(), width, std::move(scratch.ops[k]));
    PimDevice& device = *devices_[k];
    PIMINE_RETURN_IF_ERROR(
        how == Program::kAppend    ? device.ProgramDelta(ops)
        : how == Program::kReplace ? device.ReprogramDataset(ops, operand_bits_)
                                   : device.ProgramDataset(ops, operand_bits_));
  }
  // Phi for the ED family; the sum of floors plus one (CS) or two (PCC)
  // norm terms for the dot-product bounds.
  const size_t doubles_per_row = mode_ == EngineMode::kCosine    ? 2
                                 : mode_ == EngineMode::kPearson ? 3
                                                                 : 1;
  const uint64_t aux_bytes = rows.rows() * doubles_per_row * sizeof(double);
  PIMINE_RETURN_IF_ERROR(devices_[0]->StoreAux(aux_bytes));
  if (how == Program::kReplace) terms_.clear();
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  num_objects_ = terms_.size();
  offline_ns_ += DeviceStatsTotal().program_ns - program_before;
  offline_bytes_written_ +=
      rows.rows() * width * (operand_bits_ / 8) * devices_.size() + aux_bytes;
  return Status::OK();
}

namespace {

/// Drops an all-clean suspect vector so downstream consumers keep the
/// zero-overhead fast path (empty == nothing flagged).
void CompactSuspect(std::vector<uint8_t>* suspect) {
  for (uint8_t s : *suspect) {
    if (s != 0) return;
  }
  suspect->clear();
}

/// Whether any device flagged result `at` (query * stride + object).
bool Suspect(const PimEngine::QueryHandleBatch& batch, size_t at) {
  for (const std::vector<uint8_t>& flags : batch.suspect) {
    if (!flags.empty() && flags[at] != 0) return true;
  }
  return false;
}

}  // namespace

Status PimEngine::PrepareBatch(std::span<const float> queries,
                               size_t num_queries, QueryScratch* scratch,
                               QueryHandleBatch* batch) const {
  if (scratch == nullptr) {
    return Status::InvalidArgument(
        "RunQueryBatch requires a non-null scratch");
  }
  if (batch == nullptr) {
    return Status::InvalidArgument(
        "PrepareBatch requires a non-null batch handle");
  }
  if (num_queries == 0) {
    return Status::InvalidArgument(
        "empty query batch: RunQueryBatch requires num_queries >= 1");
  }
  if (queries.size() != num_queries * dims_) {
    return Status::InvalidArgument("query batch dimensionality mismatch");
  }
  PIMINE_RETURN_IF_ERROR(CheckUnitRange(queries, "queries"));

  // Per-query quantize spans are measured per iteration of the loop below
  // (invariant across batch grouping). Null when observability is disabled.
  obs::Obs* const o = obs::Obs::Get();

  batch->num_queries = num_queries;
  batch->stride = num_objects_;
  batch->terms.resize(num_queries);
  const size_t width = OperandWidth();
  scratch->ops.resize(devices_.size());
  for (std::vector<int32_t>& ops : scratch->ops) {
    ops.resize(num_queries * width);
  }
  for (size_t q = 0; q < num_queries; ++q) {
    const TrafficCounters before =
        o != nullptr ? traffic::Local().traffic : TrafficCounters();
    batch->terms[q] =
        EncodeRow(queries.subspan(q * dims_, dims_), q * width, scratch);
    if (o != nullptr) {
      o->trace().Complete("engine", "quantize",
                          obs::TrackFor(static_cast<int64_t>(q)),
                          o->HostNs(traffic::Local().traffic - before));
    }
  }
  return Status::OK();
}

Status PimEngine::CheckPrepared(const char* op, const QueryScratch& scratch,
                                size_t num_queries,
                                const QueryHandleBatch* batch) const {
  if (batch == nullptr) {
    return Status::InvalidArgument(std::string(op) +
                                   " requires a non-null batch handle");
  }
  const size_t size = num_queries * OperandWidth();
  if (scratch.ops.size() != devices_.size() ||
      std::any_of(scratch.ops.begin(), scratch.ops.end(),
                  [&](const auto& ops) { return ops.size() != size; })) {
    return Status::InvalidArgument(
        "scratch does not hold a prepared batch of this geometry; call "
        "PrepareBatch first");
  }
  return Status::OK();
}

void PimEngine::ShapeHandle(QueryHandleBatch* batch) const {
  batch->stride = num_objects_;
  batch->dots.resize(devices_.size());
  batch->suspect.resize(devices_.size());
}

Status PimEngine::DeviceBatch(const QueryScratch& scratch, size_t num_queries,
                              QueryHandleBatch* batch) const {
  PIMINE_RETURN_IF_ERROR(
      CheckPrepared("DeviceBatch", scratch, num_queries, batch));
  ShapeHandle(batch);
  // Each device writes its dot products and suspect flags (a fault-free
  // device clears the flags, so it never pays the allocation). Every device
  // runs its pass even after one fails the op, as the fleet charges every
  // device's pass to the query; the first DeviceFault returns after all.
  Status fault;
  for (size_t k = 0; k < devices_.size(); ++k) {
    const Status s = devices_[k]->DotProductBatch(
        scratch.ops[k], num_queries, &batch->dots[k], &batch->suspect[k]);
    if (s.code() != StatusCode::kDeviceFault) {
      PIMINE_RETURN_IF_ERROR(s);
    } else if (fault.ok()) {
      fault = s;
    }
    CompactSuspect(&batch->suspect[k]);
  }
  return fault;
}

Status PimEngine::HostRecomputeBatch(const QueryScratch& scratch,
                                     size_t num_queries,
                                     QueryHandleBatch* batch) const {
  PIMINE_RETURN_IF_ERROR(
      CheckPrepared("HostRecomputeBatch", scratch, num_queries, batch));
  ShapeHandle(batch);
  for (size_t k = 0; k < devices_.size(); ++k) {
    PIMINE_RETURN_IF_ERROR(devices_[k]->HostRecomputeBatch(
        scratch.ops[k], num_queries, &batch->dots[k]));
    batch->suspect[k].clear();  // host recomputation is exact.
  }
  return Status::OK();
}

Status PimEngine::SlackFillBatch(size_t num_queries,
                                 QueryHandleBatch* batch) const {
  if (batch == nullptr) {
    return Status::InvalidArgument(
        "SlackFillBatch requires a non-null batch handle");
  }
  if (num_queries == 0) {
    return Status::InvalidArgument(
        "empty query batch: SlackFillBatch requires num_queries >= 1");
  }
  batch->num_queries = num_queries;
  ShapeHandle(batch);
  const size_t total = num_queries * num_objects_;
  for (size_t k = 0; k < devices_.size(); ++k) {
    batch->dots[k].assign(total, 0);
    batch->suspect[k].assign(total, 1);
  }
  return Status::OK();
}

Status PimEngine::CheckRows(const FloatMatrix& rows) const {
  if (rows.empty() || rows.cols() != dims_) {
    return Status::InvalidArgument(
        "rows must be a non-empty set of the engine's dimensionality");
  }
  return CheckUnitRange(rows.values(), "rows");
}

Status PimEngine::AppendRows(const FloatMatrix& rows) {
  PIMINE_RETURN_IF_ERROR(CheckRows(rows));
  return ProgramRows(rows, Program::kAppend);
}

Status PimEngine::Reprogram(const FloatMatrix& rows) {
  PIMINE_RETURN_IF_ERROR(CheckRows(rows));
  return ProgramRows(rows, Program::kReplace);
}

Status PimEngine::Compact(std::span<const uint32_t> live) {
  const double program_before = DeviceStatsTotal().program_ns;
  for (const auto& device : devices_) {
    PIMINE_RETURN_IF_ERROR(device->CompactRows(live));
  }

  for (size_t i = 0; i < live.size(); ++i) terms_[i] = terms_[live[i]];
  terms_.resize(live.size());

  num_objects_ = live.size();
  offline_bytes_written_ +=
      live.size() * OperandWidth() * (operand_bits_ / 8) * devices_.size();
  offline_ns_ += DeviceStatsTotal().program_ns - program_before;
  return Status::OK();
}

double PimEngine::PruneBound() const {
  switch (mode_) {
    case EngineMode::kDirectEd:
    case EngineMode::kSegmentFnn:
    case EngineMode::kSegmentSm:
      // A +inf "lower bound" sorts deleted rows last and the early-break
      // candidate loops never refine them.
      return std::numeric_limits<double>::infinity();
    case EngineMode::kCosine:
    case EngineMode::kPearson:
      // Searches negate upper bounds for maximize, so -inf sorts last.
      return -std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::infinity();
}

double PimEngine::TrivialBound() const {
  switch (mode_) {
    case EngineMode::kDirectEd:
    case EngineMode::kSegmentFnn:
    case EngineMode::kSegmentSm:
      return 0.0;  // squared distances are non-negative.
    case EngineMode::kCosine:
    case EngineMode::kPearson:
      return 1.0;  // cosine / Pearson never exceed 1.
  }
  return 0.0;
}

namespace {

BoundCost BoundCostOf(EngineMode mode) {
  switch (mode) {
    case EngineMode::kDirectEd:
      return kLbPimEdCost;
    case EngineMode::kSegmentFnn:
      return kLbPimFnnCost;
    case EngineMode::kSegmentSm:
      return kLbPimSmCost;
    case EngineMode::kCosine:
      return kUbPimCsCost;
    case EngineMode::kPearson:
      return kUbPimPccCost;
  }
  return BoundCost();
}

}  // namespace

template <typename Visit>
auto PimEngine::WithBoundFormula(const QueryHandleBatch& batch, size_t query,
                                 Visit visit) const {
  // Every operand is copied into a local, so the span loop reloads nothing
  // per object but the per-object terms.
  const size_t off = query * batch.stride;
  const uint64_t* const dot1 = batch.dots[0].data() + off;
  const BoundTerms* const p = terms_.data();
  const BoundTerms q = batch.terms[query];
  const int64_t dims = static_cast<int64_t>(dims_);
  const int64_t segments = num_segments_;
  const int64_t length = segment_length_;
  const double alpha = quantizer_.alpha();
  switch (mode_) {
    case EngineMode::kDirectEd:
      return visit([=](size_t i) {
        return LbPimEd(p[i].phi, q.phi, dot1[i], dims, alpha);
      });
    case EngineMode::kSegmentFnn: {
      const uint64_t* const dot2 = batch.dots[1].data() + off;
      return visit([=](size_t i) {
        return LbPimFnn(p[i].phi, q.phi, dot1[i], dot2[i], segments, length,
                        alpha);
      });
    }
    case EngineMode::kSegmentSm:
      return visit([=](size_t i) {
        return LbPimSm(p[i].phi, q.phi, dot1[i], segments, length, alpha);
      });
    case EngineMode::kCosine:
      return visit([=](size_t i) {
        return UbPimCs(dot1[i], p[i].sum_floor, q.sum_floor, p[i].norm,
                       q.norm, dims, alpha);
      });
    case EngineMode::kPearson:
      break;  // below, so that every path returns.
  }
  return visit([=](size_t i) {
    return UbPimPcc(dot1[i], p[i].sum_floor, q.sum_floor, p[i].norm, q.norm,
                    p[i].phi_b, q.phi_b, dims, alpha);
  });
}

double PimEngine::BoundFor(const QueryHandleBatch& batch, size_t query,
                           size_t index) const {
  PIMINE_DCHECK(query < batch.num_queries);
  PIMINE_DCHECK(index < num_objects_);
  if (Suspect(batch, query * batch.stride + index)) return TrivialBound();
  ChargeBounds(BoundCostOf(mode_), 1);
  return WithBoundFormula(batch, query,
                          [index](auto bound) { return bound(index); });
}

void PimEngine::BoundsFor(const QueryHandleBatch& batch, size_t query,
                          std::span<double> out,
                          std::span<const uint32_t> scatter,
                          std::span<const uint8_t> deleted) const {
  PIMINE_DCHECK(query < batch.num_queries);
  const size_t n = batch.stride;
  PIMINE_CHECK(n == num_objects_);
  PIMINE_CHECK(scatter.empty() ? out.size() == n : scatter.size() == n);
  PIMINE_CHECK(deleted.empty() || deleted.size() == out.size());
  double* const dst = out.data();
  const uint32_t* const map = scatter.data();
  // Dense pass: the mode's formula for every object, the switch hoisted out
  // of the loop.
  WithBoundFormula(batch, query, [&](auto bound) {
    if (map == nullptr) {
      for (size_t i = 0; i < n; ++i) dst[i] = bound(i);
    } else {
      for (size_t i = 0; i < n; ++i) dst[map[i]] = bound(i);
    }
  });

  // Sparse pass: the objects the fleet's BoundFor does not combine.
  // Suspect results take the trivial bound unless deleted; deleted rows
  // take PruneBound.
  const auto at = [&](size_t i) { return map == nullptr ? i : map[i]; };
  const auto is_deleted = [&](size_t i) {
    return !deleted.empty() && deleted[at(i)] != 0;
  };
  size_t skipped = 0;
  if (std::any_of(batch.suspect.begin(), batch.suspect.end(),
                  [](const auto& flags) { return !flags.empty(); })) {
    const double trivial = TrivialBound();
    for (size_t i = 0; i < n; ++i) {
      if (Suspect(batch, query * n + i) && !is_deleted(i)) {
        dst[at(i)] = trivial;
        ++skipped;
      }
    }
  }
  if (!deleted.empty()) {
    const double prune = PruneBound();
    for (size_t i = 0; i < n; ++i) {
      if (is_deleted(i)) {
        dst[at(i)] = prune;
        ++skipped;
      }
    }
  }
  ChargeBounds(BoundCostOf(mode_), n - skipped);
}

void PimEngine::DeviceTotals::Add(const DeviceTotals& other) {
  obs::AddFields(kDeviceTotalsFields, other, this);
  fault.Merge(other.fault);
}

// The online stats are read through StatsSnapshot(): a live scrape reads
// them while DotProductBatch calls write them.
PimEngine::DeviceTotals PimEngine::DeviceStatsTotal() const {
  DeviceTotals total;
  for (const auto& device : devices_) {
    const PimDeviceStats s = device->StatsSnapshot();
    total.Add({s.batch_ops, s.queries_processed, s.compute_ns, s.pipelined_ns,
               s.fault, s.row_writes, s.worn_rows, s.program_ns});
  }
  return total;
}

double PimEngine::SerialDeviceNsPerQuery() const {
  double total = 0.0;
  for (const auto& device : devices_) total += device->SerialDotNsPerQuery();
  return total;
}

double PimEngine::ModeledBatchNs(size_t num_queries) const {
  double total = 0.0;
  for (const auto& device : devices_) total += device->BatchDotNs(num_queries);
  return total;
}

void PimEngine::ResetOnlineStats() {
  for (const auto& device : devices_) device->ResetOnlineStats();
}

}  // namespace pimine
