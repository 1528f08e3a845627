// ColumnBuilder: accumulation and encoding selection.
//
// The heuristics here mirror what §4.1.1 describes: dictionary compression
// for strings, lightweight run-length / delta encodings for fixed-width
// data, chosen when they actually compress.

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/tde/storage/column.h"

namespace vizq::tde {

namespace {

inline int64_t DoubleToBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Builds RLE runs over an int payload (nulls break runs so that the null
// mask stays positionally exact).
std::vector<RleRun> BuildRuns(const std::vector<int64_t>& ints,
                              const std::vector<uint8_t>& nulls) {
  std::vector<RleRun> runs;
  int64_t n = static_cast<int64_t>(ints.size());
  int64_t i = 0;
  while (i < n) {
    int64_t v = ints[i];
    uint8_t is_null = nulls.empty() ? 0 : nulls[i];
    int64_t j = i + 1;
    while (j < n && ints[j] == v &&
           (nulls.empty() ? 0 : nulls[j]) == is_null) {
      ++j;
    }
    runs.push_back(RleRun{v, i, j - i});
    i = j;
  }
  return runs;
}

bool IsSortedAscending(const std::vector<int64_t>& ints) {
  for (size_t i = 1; i < ints.size(); ++i) {
    if (ints[i] < ints[i - 1]) return false;
  }
  return true;
}

bool DeltasFitInt32(const std::vector<int64_t>& ints) {
  for (size_t i = 1; i < ints.size(); ++i) {
    int64_t d = ints[i] - ints[i - 1];
    if (d > INT32_MAX || d < INT32_MIN) return false;
  }
  return true;
}

}  // namespace

ColumnBuilder::ColumnBuilder(DataType type) : type_(type) {}

void ColumnBuilder::AppendNull() {
  any_null_ = true;
  nulls_.resize(size_, 0);
  nulls_.push_back(1);
  if (type_.kind == TypeKind::kFloat64) {
    doubles_.push_back(0);
  } else if (type_.kind == TypeKind::kString) {
    strings_.emplace_back();
  } else {
    ints_.push_back(0);
  }
  ++size_;
}

void ColumnBuilder::AppendInt(int64_t v) {
  if (any_null_) nulls_.push_back(0);
  ints_.push_back(v);
  ++size_;
}

void ColumnBuilder::AppendDouble(double v) {
  if (any_null_) nulls_.push_back(0);
  doubles_.push_back(v);
  ++size_;
}

void ColumnBuilder::AppendString(std::string_view v) {
  if (any_null_) nulls_.push_back(0);
  strings_.emplace_back(v);
  ++size_;
}

void ColumnBuilder::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_.kind) {
    case TypeKind::kBool:
      AppendInt(v.bool_value() ? 1 : 0);
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      AppendInt(v.is_double() ? static_cast<int64_t>(v.double_value())
                              : v.int_value());
      break;
    case TypeKind::kFloat64:
      AppendDouble(v.AsDouble());
      break;
    case TypeKind::kString:
      AppendString(v.string_value());
      break;
  }
}

StatusOr<std::shared_ptr<Column>> ColumnBuilder::Finish(
    EncodingChoice choice) {
  auto col = std::make_shared<Column>();
  col->type_ = type_;
  col->size_ = size_;
  if (any_null_) {
    nulls_.resize(size_, 0);
    col->nulls_ = std::move(nulls_);
  }

  // --- stats ---
  ColumnStats stats;
  stats.null_count = 0;
  for (uint8_t b : col->nulls_) stats.null_count += b;

  // --- strings: plain or dictionary ---
  if (type_.kind == TypeKind::kString) {
    // Count distinct (bounded effort) to decide on dictionary compression.
    bool force_plain = choice == EncodingChoice::kForcePlain;
    bool force_dict = choice == EncodingChoice::kForceDictionary;
    if (choice == EncodingChoice::kForceRle ||
        choice == EncodingChoice::kForceDelta) {
      return InvalidArgument("rle/delta encodings apply to fixed-width data; "
                             "string columns use plain or dictionary");
    }
    auto dict = std::make_shared<StringDictionary>(type_.collation);
    std::vector<int64_t> tokens;
    tokens.reserve(strings_.size());
    for (size_t i = 0; i < strings_.size(); ++i) {
      tokens.push_back(dict->Intern(strings_[i]));
    }
    stats.distinct_estimate = dict->size();
    bool use_dict =
        force_dict ||
        (!force_plain &&
         dict->size() * 4 <= static_cast<int64_t>(strings_.size()) + 4);
    if (use_dict) {
      col->encoding_ = Encoding::kDictionary;
      col->dictionary_ = std::move(dict);
      // Consider RLE over the tokens when runs compress well.
      std::vector<RleRun> runs = BuildRuns(tokens, col->nulls_);
      if (choice == EncodingChoice::kAuto &&
          runs.size() * 2 <= tokens.size() / 2) {
        col->encoding_ = Encoding::kRle;
        col->runs_ = std::move(runs);
      } else {
        col->ints_ = std::move(tokens);
      }
    } else {
      col->encoding_ = Encoding::kPlain;
      const std::string* mn = nullptr;
      const std::string* mx = nullptr;
      for (size_t i = 0; i < strings_.size(); ++i) {
        if (col->IsNull(static_cast<int64_t>(i))) continue;
        const std::string& s = strings_[i];
        if (mn == nullptr || CollatedCompare(s, *mn, type_.collation) < 0) {
          mn = &s;
        }
        if (mx == nullptr || CollatedCompare(s, *mx, type_.collation) > 0) {
          mx = &s;
        }
      }
      if (mn != nullptr) {
        stats.has_min_max = true;
        stats.min = Value(*mn);
        stats.max = Value(*mx);
      }
      col->strings_ = std::move(strings_);
    }
    col->stats_ = stats;
    size_ = 0;
    return col;
  }

  // --- fixed-width: move doubles through the int payload for encodings ---
  std::vector<int64_t> payload;
  if (type_.kind == TypeKind::kFloat64) {
    if (choice == EncodingChoice::kForcePlain ||
        (choice == EncodingChoice::kAuto)) {
      // Plain doubles by default; RLE doubles only when forced (rare in
      // practice and the bit-cast payload makes runs unlikely).
      col->encoding_ = Encoding::kPlain;
      double mn = 0, mx = 0;
      for (size_t i = 0; i < doubles_.size(); ++i) {
        if (col->IsNull(static_cast<int64_t>(i))) continue;
        const double d = doubles_[i];
        mn = stats.has_min_max ? std::min(mn, d) : d;
        mx = stats.has_min_max ? std::max(mx, d) : d;
        stats.has_min_max = true;
      }
      if (stats.has_min_max) {
        stats.min = Value(mn);
        stats.max = Value(mx);
      }
      col->doubles_ = std::move(doubles_);
      col->stats_ = stats;
      size_ = 0;
      return col;
    }
    payload.reserve(doubles_.size());
    for (double d : doubles_) payload.push_back(DoubleToBits(d));
  } else {
    payload = std::move(ints_);
  }

  // min/max/distinct over the int payload's non-null rows (not meaningful
  // for bit-cast doubles; skipped there).
  if (type_.kind != TypeKind::kFloat64) {
    int64_t mn = 0, mx = 0;
    for (size_t i = 0; i < payload.size(); ++i) {
      if (col->IsNull(static_cast<int64_t>(i))) continue;
      const int64_t v = payload[i];
      mn = stats.has_min_max ? std::min(mn, v) : v;
      mx = stats.has_min_max ? std::max(mx, v) : v;
      stats.has_min_max = true;
    }
    if (stats.has_min_max) {
      stats.min = Value(mn);
      stats.max = Value(mx);
    }
    std::unordered_set<int64_t> distinct;
    // Bounded-effort distinct estimate.
    size_t probe = std::min<size_t>(payload.size(), 65536);
    for (size_t i = 0; i < probe; ++i) {
      if (!col->IsNull(static_cast<int64_t>(i))) distinct.insert(payload[i]);
    }
    if (probe == payload.size()) {
      stats.distinct_estimate = static_cast<int64_t>(distinct.size());
    } else {
      // Linear extrapolation, capped by the non-null row count.
      stats.distinct_estimate =
          std::min<int64_t>(size_ - stats.null_count,
                            static_cast<int64_t>(distinct.size()) *
                                static_cast<int64_t>(payload.size() / probe));
    }
  }

  std::vector<RleRun> runs = BuildRuns(payload, col->nulls_);
  bool rle_wins = runs.size() * 4 <= payload.size();

  // An empty column is trivially sorted and null-free; kForceDelta on it
  // must not error (encoded-exec tests build empty fixtures this way).
  bool sorted = type_.kind != TypeKind::kFloat64 && IsSortedAscending(payload);
  bool delta_ok = sorted && col->nulls_.empty() && DeltasFitInt32(payload);

  Encoding enc = Encoding::kPlain;
  switch (choice) {
    case EncodingChoice::kAuto:
      if (rle_wins) {
        enc = Encoding::kRle;
      } else if (delta_ok && payload.size() >= 64) {
        enc = Encoding::kDelta;
      }
      break;
    case EncodingChoice::kForcePlain:
      enc = Encoding::kPlain;
      break;
    case EncodingChoice::kForceRle:
      enc = Encoding::kRle;
      break;
    case EncodingChoice::kForceDelta:
      if (!delta_ok) {
        return InvalidArgument(
            "delta encoding requires sorted, null-free int data with "
            "int32-range deltas");
      }
      enc = Encoding::kDelta;
      break;
    case EncodingChoice::kForceDictionary:
      return InvalidArgument("dictionary encoding applies to string columns");
  }

  col->encoding_ = enc;
  switch (enc) {
    case Encoding::kPlain:
      col->ints_ = std::move(payload);
      break;
    case Encoding::kRle:
      col->runs_ = std::move(runs);
      break;
    case Encoding::kDelta:
      if (!payload.empty()) {
        col->delta_base_ = payload[0];
        col->deltas_.reserve(payload.size() - 1);
        for (size_t i = 1; i < payload.size(); ++i) {
          col->deltas_.push_back(
              static_cast<int32_t>(payload[i] - payload[i - 1]));
        }
      }
      break;
    case Encoding::kDictionary:
      break;  // unreachable
  }
  col->stats_ = stats;
  size_ = 0;
  return col;
}

}  // namespace vizq::tde
