#include "core/mutable_dataset.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/logging.h"
#include "data/normalize.h"

namespace pimine {

MutableDataset::MutableDataset(FloatMatrix initial)
    : corpus_(std::move(initial)) {
  tombstone_.assign(corpus_.rows(), 0);
}

std::vector<uint32_t> MutableDataset::LiveRows() const {
  std::vector<uint32_t> live;
  live.reserve(live_rows());
  for (size_t i = 0; i < corpus_.rows(); ++i) {
    if (tombstone_[i] == 0) live.push_back(static_cast<uint32_t>(i));
  }
  return live;
}

FloatMatrix MutableDataset::LiveCorpus() const {
  FloatMatrix live(live_rows(), corpus_.cols());
  size_t w = 0;
  for (size_t i = 0; i < corpus_.rows(); ++i) {
    if (tombstone_[i] != 0) continue;
    const auto src = corpus_.row(i);
    auto dst = live.mutable_row(w++);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return live;
}

void MutableDataset::Attach(MutationListener* listener) {
  PIMINE_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

Status MutableDataset::Insert(const FloatMatrix& rows) {
  if (rows.rows() == 0) {
    return Status::InvalidArgument("Insert requires at least one row");
  }
  if (corpus_.rows() > 0 && rows.cols() != corpus_.cols()) {
    return Status::InvalidArgument("inserted row dimensionality mismatch");
  }
  PIMINE_RETURN_IF_ERROR(CheckUnitRange(rows.values(), "inserted rows"));
  corpus_.AppendRows(rows);
  tombstone_.resize(corpus_.rows(), 0);
  for (MutationListener* l : listeners_) {
    PIMINE_RETURN_IF_ERROR(l->OnInsert(rows));
  }
  return Status::OK();
}

Status MutableDataset::Delete(size_t row) {
  if (row >= corpus_.rows()) {
    return Status::InvalidArgument("Delete row out of range");
  }
  if (tombstone_[row] != 0) {
    return Status::InvalidArgument("row already deleted");
  }
  if (live_rows() <= 1) {
    return Status::FailedPrecondition("cannot delete the last live row");
  }
  tombstone_[row] = 1;
  ++tombstone_count_;
  for (MutationListener* l : listeners_) {
    PIMINE_RETURN_IF_ERROR(l->OnDelete(row));
  }
  return Status::OK();
}

Status MutableDataset::Compact() {
  if (live_rows() == 0) {
    return Status::FailedPrecondition("cannot compact an empty corpus");
  }
  std::vector<uint32_t> live = LiveRows();
  // Corpus first, listeners second: a listener re-reading the corpus
  // (e.g. FNN's plan re-measure) must see the compacted state.
  corpus_.KeepRows(live);
  tombstone_.assign(corpus_.rows(), 0);
  tombstone_count_ = 0;
  for (MutationListener* l : listeners_) {
    PIMINE_RETURN_IF_ERROR(l->OnCompact(live));
  }
  return Status::OK();
}

namespace {

Result<uint32_t> ParseU32(std::string_view text) {
  uint32_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("malformed number '" + std::string(text) +
                                   "' in mutation trace");
  }
  return value;
}

}  // namespace

Result<std::vector<MutationOp>> ParseMutationTrace(std::string_view trace) {
  std::vector<MutationOp> ops;
  size_t pos = 0;
  while (pos <= trace.size()) {
    size_t comma = trace.find(',', pos);
    if (comma == std::string_view::npos) comma = trace.size();
    const std::string_view tok = trace.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) {
      if (trace.empty()) break;
      return Status::InvalidArgument("empty op in mutation trace");
    }
    MutationOp op;
    if (tok == "c") {
      op.kind = MutationOp::Kind::kCompact;
    } else if (tok.size() >= 3 && tok[1] == ':' &&
               (tok[0] == 'i' || tok[0] == 'd')) {
      const std::string_view arg = tok.substr(2);
      if (tok[0] == 'i') {
        op.kind = MutationOp::Kind::kInsert;
        PIMINE_ASSIGN_OR_RETURN(op.count, ParseU32(arg));
        if (op.count == 0) {
          return Status::InvalidArgument("i:0 in mutation trace");
        }
      } else {
        op.kind = MutationOp::Kind::kDelete;
        const size_t dash = arg.find('-');
        if (dash == std::string_view::npos) {
          PIMINE_ASSIGN_OR_RETURN(op.first, ParseU32(arg));
          op.last = op.first;
        } else {
          PIMINE_ASSIGN_OR_RETURN(op.first, ParseU32(arg.substr(0, dash)));
          PIMINE_ASSIGN_OR_RETURN(op.last, ParseU32(arg.substr(dash + 1)));
          if (op.last < op.first) {
            return Status::InvalidArgument(
                "reversed delete range in mutation trace");
          }
        }
      }
    } else {
      return Status::InvalidArgument("unknown op '" + std::string(tok) +
                                     "' in mutation trace (want i:N, d:A, "
                                     "d:A-B or c)");
    }
    ops.push_back(op);
    if (comma == trace.size()) break;
  }
  return ops;
}

Status ApplyMutationTrace(MutableDataset* dataset,
                          std::span<const MutationOp> ops,
                          const FloatMatrix& insert_stream,
                          size_t* stream_pos) {
  PIMINE_CHECK(dataset != nullptr && stream_pos != nullptr);
  for (const MutationOp& op : ops) {
    switch (op.kind) {
      case MutationOp::Kind::kInsert: {
        if (*stream_pos + op.count > insert_stream.rows()) {
          return Status::InvalidArgument(
              "mutation trace exhausts the insert stream");
        }
        FloatMatrix rows(op.count, insert_stream.cols());
        for (uint32_t i = 0; i < op.count; ++i) {
          const auto src = insert_stream.row(*stream_pos + i);
          std::copy(src.begin(), src.end(), rows.mutable_row(i).begin());
        }
        *stream_pos += op.count;
        PIMINE_RETURN_IF_ERROR(dataset->Insert(rows));
        break;
      }
      case MutationOp::Kind::kDelete:
        for (uint32_t r = op.first; r <= op.last; ++r) {
          PIMINE_RETURN_IF_ERROR(dataset->Delete(r));
        }
        break;
      case MutationOp::Kind::kCompact:
        PIMINE_RETURN_IF_ERROR(dataset->Compact());
        break;
    }
  }
  return Status::OK();
}

}  // namespace pimine
