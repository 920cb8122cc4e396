#ifndef PIMINE_CORE_MUTABLE_DATASET_H_
#define PIMINE_CORE_MUTABLE_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"

namespace pimine {

/// Observer of one MutableDataset's mutations (DESIGN.md section 13). The
/// kNN paths, the k-means assignment filter and the serving layer
/// implement this to keep their fleet (delta rows, deleted flags, per-row
/// offline terms) in lockstep with the host corpus.
///
/// Call ordering contract: the dataset mutates its own corpus FIRST, then
/// notifies listeners in attach order — a listener reading the corpus
/// (e.g. to re-measure statistics) always sees the post-mutation state.
class MutationListener {
 public:
  virtual ~MutationListener() = default;

  /// `rows` were appended to the corpus; their physical ids are
  /// [corpus.rows() - rows.rows(), corpus.rows()).
  virtual Status OnInsert(const FloatMatrix& rows) = 0;

  /// Physical row `row` was tombstoned (its values stay in place until the
  /// next compaction).
  virtual Status OnDelete(size_t row) = 0;

  /// The corpus was compacted: `live` lists the surviving OLD physical ids
  /// in ascending order; survivor live[i] now has physical id i.
  virtual Status OnCompact(const std::vector<uint32_t>& live) = 0;
};

/// Host-side coordinator of a mutable corpus. Holds the physical layout
/// the PIM engines mirror — base rows plus appended delta rows, with
/// tombstoned rows left in place until Compact() rewrites the matrix
/// densely. The FloatMatrix object address is stable for the dataset's
/// lifetime (only its contents grow/shrink), so engines and paths holding
/// `const FloatMatrix*` into it stay valid across mutations.
///
/// Not thread-safe: callers serialize mutations against queries and
/// against each other (the serving layer does this under its admission
/// lock).
class MutableDataset {
 public:
  explicit MutableDataset(FloatMatrix initial);

  /// The physical corpus: base + delta rows, tombstones in place.
  const FloatMatrix& corpus() const { return corpus_; }
  size_t rows() const { return corpus_.rows(); }
  size_t cols() const { return corpus_.cols(); }
  size_t live_rows() const { return corpus_.rows() - tombstone_count_; }
  size_t tombstoned_rows() const { return tombstone_count_; }
  bool tombstoned(size_t row) const { return tombstone_[row] != 0; }
  /// Fraction of physical rows currently tombstoned, in [0, 1] — the
  /// quantity the serve-side compaction watermark triggers on.
  double TombstoneFraction() const {
    return corpus_.rows() == 0
               ? 0.0
               : static_cast<double>(tombstone_count_) /
                     static_cast<double>(corpus_.rows());
  }
  /// Ascending physical ids of the live (non-tombstoned) rows.
  std::vector<uint32_t> LiveRows() const;
  /// Dense copy of the live rows in ascending physical order — the view a
  /// dense consumer (k-means, a reference engine) runs over.
  FloatMatrix LiveCorpus() const;

  /// Registers a listener (not owned; must outlive the dataset's use).
  void Attach(MutationListener* listener);

  /// Appends `rows` to the corpus, then notifies listeners. The rows must
  /// match the corpus dimensionality and be normalized into [0, 1].
  Status Insert(const FloatMatrix& rows);

  /// Tombstones physical row `row`, then notifies listeners. Fails with
  /// InvalidArgument when out of range or already tombstoned, and with
  /// FailedPrecondition when it would delete the last live row.
  Status Delete(size_t row);

  /// Rewrites the corpus densely (live rows only, order preserved), then
  /// notifies listeners with the surviving old physical ids. After the
  /// call physical ids are dense: row i is the i-th live row of the old
  /// corpus.
  Status Compact();

 private:
  FloatMatrix corpus_;
  std::vector<uint8_t> tombstone_;
  size_t tombstone_count_ = 0;
  std::vector<MutationListener*> listeners_;
};

/// One operation of a mutation trace (the --mutate_trace CLI grammar):
///   i:N     insert the next N rows of the insert stream
///   d:A     delete physical row A
///   d:A-B   delete physical rows A..B inclusive
///   c       compact
/// Operations are comma-separated, e.g. "i:256,d:0-127,c,i:64".
struct MutationOp {
  enum class Kind { kInsert, kDelete, kCompact };
  Kind kind = Kind::kCompact;
  uint32_t count = 0;  // kInsert: rows to take from the stream.
  uint32_t first = 0;  // kDelete: first physical row.
  uint32_t last = 0;   // kDelete: last physical row (== first for d:A).
};

/// Parses the trace grammar above. Fails with InvalidArgument on malformed
/// input (unknown op, missing argument, reversed range).
Result<std::vector<MutationOp>> ParseMutationTrace(std::string_view trace);

/// Replays `ops` against `dataset`, drawing insert rows from
/// `insert_stream` starting at `*stream_pos` (advanced past consumed
/// rows). Fails when the stream runs dry or any mutation fails.
Status ApplyMutationTrace(MutableDataset* dataset,
                          std::span<const MutationOp> ops,
                          const FloatMatrix& insert_stream,
                          size_t* stream_pos);

}  // namespace pimine

#endif  // PIMINE_CORE_MUTABLE_DATASET_H_
