#ifndef PIMINE_OBS_STAT_FIELDS_H_
#define PIMINE_OBS_STAT_FIELDS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "obs/metrics.h"

namespace pimine {
namespace obs {

/// Attributes of a table row. The default (none) is a counter the run
/// charges, exported in the caller's ExportMode.
enum FieldFlags : unsigned {
  kGauge = 1u << 0,     // exported as a gauge (every real field is one).
  kLifetime = 1u << 1,  // kept since build: a run's reset leaves it, and
                        // an export sets it rather than adding it.
  kDerived = 1u << 2,   // computed at snapshot: no atomic holds it.
};

/// One field of a counter block (DESIGN.md section 8): an integer or real
/// member and, when exported, its Prometheus family and help text. A block
/// declares its fields once, in one table; its Merge and Any, the atomics
/// that hold it, its snapshots and its export walk that table, so a new
/// counter is one new row.
template <typename B>
struct StatField {
  using Block = B;

  constexpr StatField(uint64_t Block::*field, const char* family_name = nullptr,
                      const char* help_text = nullptr, unsigned row_flags = 0)
      : count(field), family(family_name), help(help_text), flags(row_flags) {}
  constexpr StatField(double Block::*field, const char* family_name = nullptr,
                      const char* help_text = nullptr, unsigned row_flags = 0)
      : real(field),
        family(family_name),
        help(help_text),
        flags(row_flags | kGauge) {}

  double Value(const Block& block) const {
    return count != nullptr ? static_cast<double>(block.*count) : block.*real;
  }

  uint64_t Block::*count = nullptr;  // exactly one of count and real is set.
  double Block::*real = nullptr;
  const char* family = nullptr;  // null: not exported.
  const char* help = nullptr;
  unsigned flags = 0;
};

/// `*into` += `from`, field by field.
template <typename Block, size_t N>
void AddFields(const StatField<Block> (&fields)[N],
               const std::type_identity_t<Block>& from,
               std::type_identity_t<Block>* into) {
  for (const StatField<Block>& f : fields) {
    if (f.count != nullptr) {
      into->*f.count += from.*f.count;
    } else {
      into->*f.real += from.*f.real;
    }
  }
}

/// Whether any field of `block` is nonzero.
template <typename Block, size_t N>
bool AnyField(const StatField<Block> (&fields)[N],
              const std::type_identity_t<Block>& block) {
  for (const StatField<Block>& f : fields) {
    if (f.Value(block) != 0.0) return true;
  }
  return false;
}

/// Writes every field that has a family into `registry`, labeled with
/// `labels`. A kLifetime counter is a total since build, so it is set
/// whatever `mode` says: summing it over runs would count it again.
template <typename Block, size_t N>
void ExportFields(const StatField<Block> (&fields)[N],
                  const std::type_identity_t<Block>& block,
                  const MetricLabels& labels, ExportMode mode,
                  MetricsRegistry* registry) {
  for (const StatField<Block>& f : fields) {
    if (f.family == nullptr) continue;
    if ((f.flags & kGauge) != 0) {
      registry->ExportGauge(f.family, f.help, f.Value(block), labels);
    } else {
      registry->ExportCounter(
          f.family, f.help, block.*f.count, labels,
          (f.flags & kLifetime) != 0 ? ExportMode::kSnapshot : mode);
    }
  }
}

/// The atomics that hold a block between snapshots, one per held (integer,
/// not derived) field in table order. Charges are relaxed adds, so totals
/// are exact for any thread interleaving and a snapshot takes no lock.
template <const auto& kFields>
class CounterArray {
  using Field = std::remove_cvref_t<decltype(kFields[0])>;
  using Block = typename Field::Block;

 public:
  template <uint64_t Block::*kField>
  void Add(uint64_t delta) {
    static constexpr size_t kSlot = SlotOf(kField);
    static_assert(kSlot < kSlots, "not a held field of the table");
    slots_[kSlot].fetch_add(delta, std::memory_order_relaxed);
  }

  /// Copies the held fields into `*block`, leaving the derived ones.
  void LoadInto(Block* block) const {
    size_t slot = 0;
    for (const Field& f : kFields) {
      if (!Held(f)) continue;
      block->*f.count = slots_[slot++].load(std::memory_order_relaxed);
    }
  }

  /// Zeroes the held fields the run charges (kLifetime ones stay).
  void ResetRun() {
    size_t slot = 0;
    for (const Field& f : kFields) {
      if (!Held(f)) continue;
      if ((f.flags & kLifetime) == 0) {
        slots_[slot].store(0, std::memory_order_relaxed);
      }
      ++slot;
    }
  }

 private:
  static constexpr bool Held(const Field& f) {
    return f.count != nullptr && (f.flags & kDerived) == 0;
  }
  /// Slot of held field `field`; kSlots when it is not one.
  static constexpr size_t SlotOf(uint64_t Block::*field) {
    size_t slot = 0;
    for (const Field& f : kFields) {
      if (!Held(f)) continue;
      if (f.count == field) return slot;
      ++slot;
    }
    return slot;
  }
  static constexpr size_t kSlots = SlotOf(nullptr);

  std::array<std::atomic<uint64_t>, kSlots> slots_{};
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_STAT_FIELDS_H_
