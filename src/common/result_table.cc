#include "src/common/result_table.h"

#include <algorithm>

#include "src/common/binary_io.h"

namespace vizq {

namespace {

constexpr uint32_t kMagic = 0x565A5254;  // 'VZRT'

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
  BinaryWriter w;
  w.U32(kMagic);
  w.U32(static_cast<uint32_t>(columns_.size()));
  for (const ResultColumn& c : columns_) {
    w.Str(c.name);
    w.U8(static_cast<uint8_t>(c.type.kind));
    w.U8(static_cast<uint8_t>(c.type.collation));
  }
  w.U64(static_cast<uint64_t>(rows_.size()));
  for (const Row& row : rows_) {
    for (const Value& v : row) w.Val(v);
  }
  return w.TakeBytes();
}

StatusOr<ResultTable> ResultTable::Deserialize(const std::string& bytes) {
  BinaryReader r(bytes);
  uint32_t magic;
  if (!r.U32(&magic) || magic != kMagic) {
    return DataLoss("ResultTable: bad magic");
  }
  // A column header holds at least a name's length prefix and two tags.
  uint32_t ncols;
  if (!r.Count(&ncols, 4 + 1 + 1)) {
    return DataLoss("ResultTable: bad column count");
  }
  std::vector<ResultColumn> cols(ncols);
  for (ResultColumn& c : cols) {
    if (!r.Str(&c.name) || !r.Enum(&c.type.kind, TypeKind::kDate) ||
        !r.Enum(&c.type.collation, Collation::kCaseInsensitive)) {
      return DataLoss("ResultTable: bad column header");
    }
  }
  ResultTable table(std::move(cols));
  // A row holds at least a one-byte tag per column.
  uint64_t nrows;
  if (!r.Count(&nrows, std::max<size_t>(ncols, 1))) {
    return DataLoss("ResultTable: bad row count");
  }
  table.ReserveRows(static_cast<int64_t>(nrows));
  for (uint64_t i = 0; i < nrows; ++i) {
    Row row(ncols);
    for (Value& v : row) {
      if (!r.Val(&v)) return DataLoss("ResultTable: truncated row");
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
