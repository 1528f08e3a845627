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

void Column::DecodeRaw(int64_t start, int64_t count, int64_t* dst) const {
  switch (encoding_) {
    case Encoding::kPlain:
    case Encoding::kDictionary:
      std::memcpy(dst, ints_.data() + start, count * sizeof(int64_t));
      return;
    case Encoding::kRle: {
      // Locate the first overlapping run, then emit run-by-run.
      const RleRun* run = FindRun(runs_, start);
      int64_t idx = run != nullptr ? run - runs_.data() : 0;
      int64_t produced = 0;
      while (produced < count &&
             idx < static_cast<int64_t>(runs_.size())) {
        const RleRun& r = runs_[idx];
        int64_t from = std::max(start + produced, r.start);
        int64_t to = std::min(start + count, r.start + r.count);
        for (int64_t row = from; row < to; ++row) dst[produced++] = r.value;
        ++idx;
      }
      return;
    }
    case Encoding::kDelta:
      DecodeDeltas(0, delta_base_, start, count, dst);
      return;
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

void Column::DecodeInts(int64_t start, int64_t count,
                        std::vector<int64_t>* out) const {
  if (count <= 0) return;
  size_t at = out->size();
  out->resize(at + count);
  DecodeRaw(start, count, out->data() + at);
}

void Column::DecodeDoubles(int64_t start, int64_t count,
                           std::vector<double>* out) const {
  if (count <= 0) return;
  size_t at = out->size();
  out->resize(at + count);
  if (encoding_ == Encoding::kPlain) {
    std::memcpy(out->data() + at, doubles_.data() + start,
                count * sizeof(double));
    return;
  }
  // RLE/delta doubles travel through the int payload as bit patterns.
  std::vector<int64_t> raw(count);
  DecodeRaw(start, count, raw.data());
  for (int64_t i = 0; i < count; ++i) (*out)[at + i] = BitsToDouble(raw[i]);
}

void Column::DecodeStrings(int64_t start, int64_t count,
                           std::vector<std::string>* out) const {
  if (count <= 0) return;
  size_t at = out->size();
  out->resize(at + count);
  if (dictionary_ != nullptr) {
    std::vector<int64_t> tokens(count);
    DecodeRaw(start, count, tokens.data());
    for (int64_t i = 0; i < count; ++i) {
      if (!IsNull(start + i)) (*out)[at + i] = dictionary_->value(tokens[i]);
    }
    return;
  }
  std::copy(strings_.begin() + start, strings_.begin() + start + count,
            out->begin() + at);
}

void Column::DecodeNulls(int64_t start, int64_t count, int64_t at,
                         std::vector<uint8_t>* out) const {
  if (count <= 0) return;
  if (nulls_.empty()) {
    if (!out->empty()) out->resize(out->size() + count, 0);
    return;
  }
  auto first = nulls_.begin() + start;
  auto last = first + count;
  if (out->empty()) {
    if (std::all_of(first, last, [](uint8_t b) { return b == 0; })) return;
    out->assign(at, 0);
  }
  out->insert(out->end(), first, last);
}

void Column::DecodeIntsResumable(DecodeCursor* cursor, int64_t start,
                                 int64_t count,
                                 std::vector<int64_t>* out) const {
  if (encoding_ != Encoding::kDelta || cursor == nullptr) {
    DecodeInts(start, count, out);
    return;
  }
  if (count <= 0) return;
  // A fresh cursor ({0, 0}) was never seeded: row 0 of a delta column is
  // delta_base_, not the zero-initialized acc.
  if (cursor->next_row == 0 || start < cursor->next_row) {
    cursor->next_row = 0;
    cursor->acc = delta_base_;
  }
  size_t at = out->size();
  out->resize(at + count);
  cursor->acc = DecodeDeltas(cursor->next_row, cursor->acc, start, count,
                             out->data() + at);
  cursor->next_row = start + count;
}

int64_t Column::EmitRuns(int64_t start, int64_t count,
                         std::vector<RleRun>* out) const {
  if (count <= 0) return 0;
  const RleRun* run = FindRun(runs_, start);
  int64_t idx = run != nullptr ? run - runs_.data() : 0;
  int64_t emitted = 0;
  int64_t end = start + count;
  while (idx < static_cast<int64_t>(runs_.size())) {
    const RleRun& r = runs_[idx];
    int64_t from = std::max(start, r.start);
    int64_t to = std::min(end, r.start + r.count);
    if (from >= to) break;
    out->push_back(RleRun{r.value, from - start, to - from});
    ++emitted;
    ++idx;
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
