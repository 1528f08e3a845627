#include "src/tde/storage/column.h"

#include <algorithm>
#include <cstring>

namespace vizq::tde {

const char* EncodingToString(Encoding e) {
  switch (e) {
    case Encoding::kPlain: return "plain";
    case Encoding::kDictionary: return "dictionary";
    case Encoding::kRle: return "rle";
    case Encoding::kDelta: return "delta";
  }
  return "unknown";
}

int64_t StringDictionary::Intern(std::string_view s) {
  std::string key = CollationKey(s, collation_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  int64_t token = static_cast<int64_t>(values_.size());
  values_.emplace_back(s);
  index_.emplace(std::move(key), token);
  return token;
}

int64_t StringDictionary::Find(std::string_view s) const {
  std::string key = CollationKey(s, collation_);
  auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

namespace {

// Finds the run containing `row` by binary search on run starts.
const RleRun* FindRun(const std::vector<RleRun>& runs, int64_t row) {
  int64_t lo = 0, hi = static_cast<int64_t>(runs.size()) - 1;
  while (lo <= hi) {
    int64_t mid = (lo + hi) / 2;
    const RleRun& r = runs[mid];
    if (row < r.start) {
      hi = mid - 1;
    } else if (row >= r.start + r.count) {
      lo = mid + 1;
    } else {
      return &r;
    }
  }
  return nullptr;
}

inline double BitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

Value Column::GetValue(int64_t row) const {
  if (IsNull(row)) return Value::Null();
  // Resolve the raw int payload for fixed-width encodings.
  auto raw_int = [&](int64_t r) -> int64_t {
    switch (encoding_) {
      case Encoding::kPlain:
      case Encoding::kDictionary:
        return ints_[r];
      case Encoding::kRle: {
        const RleRun* run = FindRun(runs_, r);
        return run ? run->value : 0;
      }
      case Encoding::kDelta: {
        int64_t v = delta_base_;
        for (int64_t i = 0; i < r; ++i) v += deltas_[i];
        return v;
      }
    }
    return 0;
  };

  switch (type_.kind) {
    case TypeKind::kBool:
      return Value(raw_int(row) != 0);
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return Value(raw_int(row));
    case TypeKind::kFloat64:
      if (encoding_ == Encoding::kPlain) return Value(doubles_[row]);
      return Value(BitsToDouble(raw_int(row)));
    case TypeKind::kString:
      if (dictionary_ != nullptr) return Value(dictionary_->value(raw_int(row)));
      return Value(strings_[row]);
  }
  return Value::Null();
}

size_t Column::SeekRun(const DecodeCursor& cursor, int64_t row) const {
  size_t idx = cursor.run;
  if (idx >= runs_.size() || row < runs_[idx].start) {
    const RleRun* run = FindRun(runs_, row);
    return run != nullptr ? static_cast<size_t>(run - runs_.data()) : 0;
  }
  while (idx + 1 < runs_.size() && runs_[idx].start + runs_[idx].count <= row) {
    ++idx;
  }
  return idx;
}

void Column::DecodeRaw(DecodeCursor* cursor, std::span<const RowRange> pieces,
                       int64_t* dst) const {
  for (const RowRange& p : pieces) {
    if (p.count <= 0) continue;
    switch (encoding_) {
      case Encoding::kPlain:
      case Encoding::kDictionary:
        std::memcpy(dst, ints_.data() + p.start, p.count * sizeof(int64_t));
        break;
      case Encoding::kRle: {
        // Emit run by run from the run holding the piece's first row.
        size_t idx = SeekRun(*cursor, p.start);
        const int64_t end = p.start + p.count;
        int64_t* out = dst;
        for (int64_t row = p.start; row < end && idx < runs_.size(); ++idx) {
          const RleRun& r = runs_[idx];
          const int64_t to = std::min(end, r.start + r.count);
          out = std::fill_n(out, to - row, r.value);
          row = to;
          if (row == end) break;
        }
        cursor->run = std::min(idx, runs_.size() - 1);
        break;
      }
      case Encoding::kDelta:
        // A fresh cursor ({0, 0}) was never seeded: row 0 of a delta
        // column is delta_base_, not the zero-initialized acc.
        if (cursor->next_row == 0 || p.start < cursor->next_row) {
          cursor->next_row = 0;
          cursor->acc = delta_base_;
        }
        cursor->acc =
            DecodeDeltas(cursor->next_row, cursor->acc, p.start, p.count, dst);
        cursor->next_row = p.start + p.count;
        break;
    }
    dst += p.count;
  }
}

int64_t Column::DecodeDeltas(int64_t from, int64_t acc, int64_t start,
                             int64_t count, int64_t* dst) const {
  const int64_t num_deltas = static_cast<int64_t>(deltas_.size());
  for (int64_t i = from; i < start; ++i) acc += deltas_[i];
  for (int64_t i = 0; i < count; ++i) {
    dst[i] = acc;
    if (start + i < num_deltas) acc += deltas_[start + i];
  }
  return acc;
}

namespace {

int64_t TotalRows(std::span<const RowRange> pieces) {
  int64_t total = 0;
  for (const RowRange& p : pieces) total += std::max<int64_t>(p.count, 0);
  return total;
}

}  // namespace

void Column::DecodeInts(int64_t start, int64_t count,
                        std::vector<int64_t>* out) const {
  DecodeCursor cursor;
  const RowRange piece{start, count};
  DecodeIntsResumable(&cursor, {&piece, 1}, out);
}

void Column::DecodeIntsResumable(DecodeCursor* cursor,
                                 std::span<const RowRange> pieces,
                                 std::vector<int64_t>* out) const {
  const int64_t total = TotalRows(pieces);
  if (total == 0) return;
  size_t at = out->size();
  out->resize(at + total);
  DecodeRaw(cursor, pieces, out->data() + at);
}

void Column::DecodeDoubles(DecodeCursor* cursor,
                           std::span<const RowRange> pieces,
                           std::vector<double>* out) const {
  const int64_t total = TotalRows(pieces);
  if (total == 0) return;
  size_t at = out->size();
  out->resize(at + total);
  if (encoding_ == Encoding::kPlain) {
    double* dst = out->data() + at;
    for (const RowRange& p : pieces) {
      if (p.count <= 0) continue;
      std::memcpy(dst, doubles_.data() + p.start, p.count * sizeof(double));
      dst += p.count;
    }
    return;
  }
  // RLE/delta doubles travel through the int payload as bit patterns.
  std::vector<int64_t> raw(total);
  DecodeRaw(cursor, pieces, raw.data());
  for (int64_t i = 0; i < total; ++i) (*out)[at + i] = BitsToDouble(raw[i]);
}

void Column::DecodeStrings(int64_t start, int64_t count,
                           std::vector<std::string>* out) const {
  if (count <= 0) return;
  size_t at = out->size();
  out->resize(at + count);
  if (dictionary_ != nullptr) {
    std::vector<int64_t> tokens;
    DecodeInts(start, count, &tokens);
    for (int64_t i = 0; i < count; ++i) {
      if (!IsNull(start + i)) (*out)[at + i] = dictionary_->value(tokens[i]);
    }
    return;
  }
  std::copy(strings_.begin() + start, strings_.begin() + start + count,
            out->begin() + at);
}

void Column::DecodeNulls(std::span<const RowRange> pieces, int64_t at,
                         std::vector<uint8_t>* out) const {
  if (nulls_.empty()) {
    if (!out->empty()) out->resize(out->size() + TotalRows(pieces), 0);
    return;
  }
  for (const RowRange& p : pieces) {
    if (p.count <= 0) continue;
    auto first = nulls_.begin() + p.start;
    auto last = first + p.count;
    if (out->empty()) {
      if (std::all_of(first, last, [](uint8_t b) { return b == 0; })) {
        at += p.count;
        continue;
      }
      out->assign(at, 0);
    }
    out->insert(out->end(), first, last);
    at += p.count;
  }
}

int64_t Column::EmitRuns(DecodeCursor* cursor,
                         std::span<const RowRange> pieces,
                         std::vector<RleRun>* out) const {
  int64_t emitted = 0;
  int64_t base = 0;  // the piece's first row, counted across the pieces
  for (const RowRange& p : pieces) {
    if (p.count <= 0) continue;
    size_t idx = SeekRun(*cursor, p.start);
    const int64_t end = p.start + p.count;
    for (; idx < runs_.size(); ++idx) {
      const RleRun& r = runs_[idx];
      const int64_t from = std::max(p.start, r.start);
      const int64_t to = std::min(end, r.start + r.count);
      if (from >= to) break;
      out->push_back(RleRun{r.value, base + from - p.start, to - from});
      ++emitted;
      if (to == end) break;
    }
    cursor->run = std::min(idx, runs_.size() - 1);
    base += p.count;
  }
  return emitted;
}

int Column::CompareRows(int64_t a, int64_t b) const {
  if (a == b) return 0;
  bool an = IsNull(a);
  bool bn = IsNull(b);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  auto compare_payload = [&](int64_t x, int64_t y) -> int {
    if (type_.kind == TypeKind::kFloat64) {
      double dx = BitsToDouble(x), dy = BitsToDouble(y);
      if (dx < dy) return -1;
      if (dx > dy) return 1;
      return 0;
    }
    if (dictionary_ != nullptr) {
      // Equal tokens intern to the same collation key; unequal tokens need
      // a collated compare (token order is first-appearance, not sorted).
      if (x == y) return 0;
      return CollatedCompare(dictionary_->value(x), dictionary_->value(y),
                             type_.collation);
    }
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  };
  switch (encoding_) {
    case Encoding::kPlain:
      if (type_.kind == TypeKind::kString) {
        return CollatedCompare(strings_[a], strings_[b], type_.collation);
      }
      if (type_.kind == TypeKind::kFloat64) {
        if (doubles_[a] < doubles_[b]) return -1;
        if (doubles_[a] > doubles_[b]) return 1;
        return 0;
      }
      return compare_payload(ints_[a], ints_[b]);
    case Encoding::kDictionary:
      return compare_payload(ints_[a], ints_[b]);
    case Encoding::kRle: {
      const RleRun* ra = FindRun(runs_, a);
      const RleRun* rb = FindRun(runs_, b);
      if (ra == rb) return 0;  // same run => same value
      return compare_payload(ra != nullptr ? ra->value : 0,
                             rb != nullptr ? rb->value : 0);
    }
    case Encoding::kDelta: {
      // Delta columns are sorted ascending and null-free by construction:
      // rows a < b are equal iff every delta in (a, b] is zero.
      int64_t lo = std::min(a, b), hi = std::max(a, b);
      for (int64_t i = lo; i < hi; ++i) {
        if (deltas_[i] != 0) return a < b ? -1 : 1;
      }
      return 0;
    }
  }
  return 0;
}

int64_t Column::ApproxBytes() const {
  int64_t bytes = 64 + static_cast<int64_t>(nulls_.size());
  bytes += static_cast<int64_t>(ints_.size()) * 8;
  bytes += static_cast<int64_t>(doubles_.size()) * 8;
  bytes += static_cast<int64_t>(runs_.size()) * 24;
  bytes += static_cast<int64_t>(deltas_.size()) * 4;
  for (const std::string& s : strings_) bytes += 24 + static_cast<int64_t>(s.size());
  if (dictionary_ != nullptr) {
    for (const std::string& s : dictionary_->values()) {
      bytes += 24 + static_cast<int64_t>(s.size());
    }
  }
  return bytes;
}

}  // namespace vizq::tde
