#include "src/common/result_table.h"

#include <algorithm>
#include <cstring>

namespace vizq {

namespace {

// --- binary serialization helpers (little-endian, length-prefixed) ---

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Reader {
 public:
  explicit Reader(const std::string& bytes) : data_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t n;
    if (!GetU32(&n)) return false;
    if (pos_ + n > data_.size()) return false;
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

// Largest valid enum tags in a column header.
constexpr uint8_t kMaxTypeKind = static_cast<uint8_t>(TypeKind::kDate);
constexpr uint8_t kMaxCollation =
    static_cast<uint8_t>(Collation::kCaseInsensitive);

// Value wire tags.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, kTagNull);
  } else if (v.is_bool()) {
    PutU8(out, kTagBool);
    PutU8(out, v.bool_value() ? 1 : 0);
  } else if (v.is_int()) {
    PutU8(out, kTagInt);
    PutU64(out, static_cast<uint64_t>(v.int_value()));
  } else if (v.is_double()) {
    PutU8(out, kTagDouble);
    uint64_t bits;
    double d = v.double_value();
    std::memcpy(&bits, &d, 8);
    PutU64(out, bits);
  } else {
    PutU8(out, kTagString);
    PutString(out, v.string_value());
  }
}

bool GetValue(Reader* r, Value* v) {
  uint8_t tag;
  if (!r->GetU8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *v = Value::Null();
      return true;
    case kTagBool: {
      uint8_t b;
      if (!r->GetU8(&b)) return false;
      *v = Value(b != 0);
      return true;
    }
    case kTagInt: {
      uint64_t i;
      if (!r->GetU64(&i)) return false;
      *v = Value(static_cast<int64_t>(i));
      return true;
    }
    case kTagDouble: {
      uint64_t bits;
      if (!r->GetU64(&bits)) return false;
      double d;
      std::memcpy(&d, &bits, 8);
      *v = Value(d);
      return true;
    }
    case kTagString: {
      std::string s;
      if (!r->GetString(&s)) return false;
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

int CompareRowsOnKeys(const ResultTable::Row& a, const ResultTable::Row& b,
                      const std::vector<int>& keys) {
  for (int k : keys) {
    int cmp = a[k].Compare(b[k]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

}  // namespace

std::optional<int> ResultTable::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return std::nullopt;
}

void ResultTable::SortRows(const std::vector<int>& key_columns) {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&key_columns](const Row& a, const Row& b) {
                     return CompareRowsOnKeys(a, b, key_columns) < 0;
                   });
}

void ResultTable::SortRowsByAllColumns() {
  std::vector<int> keys;
  keys.reserve(columns_.size());
  for (int i = 0; i < num_columns(); ++i) keys.push_back(i);
  SortRows(keys);
}

int64_t ResultTable::ApproxBytes() const {
  int64_t bytes = 64;
  for (const ResultColumn& c : columns_) {
    bytes += 16 + static_cast<int64_t>(c.name.size());
  }
  for (const Row& row : rows_) {
    for (const Value& v : row) {
      bytes += 16;
      if (v.is_string()) bytes += static_cast<int64_t>(v.string_value().size());
    }
  }
  return bytes;
}

std::string ResultTable::Serialize() const {
  std::string out;
  PutU32(&out, 0x565A5254);  // 'VZRT' magic
  PutU32(&out, static_cast<uint32_t>(columns_.size()));
  for (const ResultColumn& c : columns_) {
    PutString(&out, c.name);
    PutU8(&out, static_cast<uint8_t>(c.type.kind));
    PutU8(&out, static_cast<uint8_t>(c.type.collation));
  }
  PutU64(&out, static_cast<uint64_t>(rows_.size()));
  for (const Row& row : rows_) {
    for (const Value& v : row) PutValue(&out, v);
  }
  return out;
}

StatusOr<ResultTable> ResultTable::Deserialize(const std::string& bytes) {
  Reader r(bytes);
  uint32_t magic;
  if (!r.GetU32(&magic) || magic != 0x565A5254) {
    return DataLoss("ResultTable: bad magic");
  }
  uint32_t ncols;
  if (!r.GetU32(&ncols) || ncols > 100000) {
    return DataLoss("ResultTable: bad column count");
  }
  std::vector<ResultColumn> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    ResultColumn c;
    uint8_t kind, collation;
    if (!r.GetString(&c.name) || !r.GetU8(&kind) || !r.GetU8(&collation)) {
      return DataLoss("ResultTable: truncated column header");
    }
    if (kind > kMaxTypeKind || collation > kMaxCollation) {
      return DataLoss("ResultTable: bad column type");
    }
    c.type.kind = static_cast<TypeKind>(kind);
    c.type.collation = static_cast<Collation>(collation);
    cols.push_back(std::move(c));
  }
  ResultTable table(std::move(cols));
  uint64_t nrows;
  if (!r.GetU64(&nrows)) return DataLoss("ResultTable: truncated row count");
  // Guard against corrupt counts: every value carries at least a 1-byte
  // tag, so nrows*ncols can never exceed the remaining payload.
  if ((ncols == 0 && nrows > 0) ||
      (ncols > 0 && nrows > bytes.size() / ncols)) {
    return DataLoss("ResultTable: implausible row count");
  }
  for (uint64_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      Value v;
      if (!GetValue(&r, &v)) return DataLoss("ResultTable: truncated row");
      row.push_back(std::move(v));
    }
    table.AddRow(std::move(row));
  }
  if (!r.AtEnd()) return DataLoss("ResultTable: trailing bytes");
  return table;
}

std::string ResultTable::ToCsv() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ',';
    out += columns_[i].name;
  }
  out += '\n';
  for (const Row& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += row[i].ToString();
    }
    out += '\n';
  }
  return out;
}

bool ResultTable::operator==(const ResultTable& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        !(columns_[i].type == other.columns_[i].type)) {
      return false;
    }
  }
  if (rows_.size() != other.rows_.size()) return false;
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (size_t j = 0; j < columns_.size(); ++j) {
      if (!rows_[i][j].Equals(other.rows_[i][j])) return false;
    }
  }
  return true;
}

bool ResultTable::SameUnordered(const ResultTable& a, const ResultTable& b) {
  ResultTable ca = a;
  ResultTable cb = b;
  ca.SortRowsByAllColumns();
  cb.SortRowsByAllColumns();
  return ca == cb;
}

}  // namespace vizq
