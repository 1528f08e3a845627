#include "src/tde/storage/file_format.h"

#include <cstring>
#include <fstream>

namespace vizq::tde {

namespace {

constexpr uint32_t kMagic = 0x56514445;  // 'VQDE'
constexpr uint32_t kVersion = 1;
// Largest valid enum tags in a column header.
constexpr uint8_t kMaxTypeKind = static_cast<uint8_t>(TypeKind::kDate);
constexpr uint8_t kMaxCollation =
    static_cast<uint8_t>(Collation::kCaseInsensitive);
constexpr uint8_t kMaxEncoding = static_cast<uint8_t>(Encoding::kDelta);

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
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
void PutDouble(std::string* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  PutU64(out, bits);
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
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
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

  // Upper bound on how many `elem_bytes`-sized elements can still follow;
  // guards resize() calls against corrupt length fields.
  bool Fits(uint64_t count, size_t elem_bytes) const {
    return count <= (data_.size() - pos_) / elem_bytes;
  }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, 0);
  } else if (v.is_bool()) {
    PutU8(out, 1);
    PutU8(out, v.bool_value() ? 1 : 0);
  } else if (v.is_int()) {
    PutU8(out, 2);
    PutI64(out, v.int_value());
  } else if (v.is_double()) {
    PutU8(out, 3);
    PutDouble(out, v.double_value());
  } else {
    PutU8(out, 4);
    PutString(out, v.string_value());
  }
}

bool GetValue(Reader* r, Value* v) {
  uint8_t tag;
  if (!r->GetU8(&tag)) return false;
  switch (tag) {
    case 0: *v = Value::Null(); return true;
    case 1: {
      uint8_t b;
      if (!r->GetU8(&b)) return false;
      *v = Value(b != 0);
      return true;
    }
    case 2: {
      int64_t i;
      if (!r->GetI64(&i)) return false;
      *v = Value(i);
      return true;
    }
    case 3: {
      double d;
      if (!r->GetDouble(&d)) return false;
      *v = Value(d);
      return true;
    }
    case 4: {
      std::string s;
      if (!r->GetString(&s)) return false;
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

// Serializes Column internals; a friend of Column.
class ColumnSerializer {
 public:
  static void Pack(const Column& col, std::string* out) {
    PutU8(out, static_cast<uint8_t>(col.type_.kind));
    PutU8(out, static_cast<uint8_t>(col.type_.collation));
    PutU8(out, static_cast<uint8_t>(col.encoding_));
    PutI64(out, col.size_);
    // stats
    PutU8(out, col.stats_.has_min_max ? 1 : 0);
    PutValue(out, col.stats_.min);
    PutValue(out, col.stats_.max);
    PutI64(out, col.stats_.distinct_estimate);
    PutI64(out, col.stats_.null_count);
    // null mask
    PutU64(out, col.nulls_.size());
    out->append(reinterpret_cast<const char*>(col.nulls_.data()),
                col.nulls_.size());
    // payloads
    PutU64(out, col.ints_.size());
    for (int64_t v : col.ints_) PutI64(out, v);
    PutU64(out, col.doubles_.size());
    for (double v : col.doubles_) PutDouble(out, v);
    PutU64(out, col.strings_.size());
    for (const std::string& s : col.strings_) PutString(out, s);
    PutU64(out, col.runs_.size());
    for (const RleRun& run : col.runs_) {
      PutI64(out, run.value);
      PutI64(out, run.start);
      PutI64(out, run.count);
    }
    PutI64(out, col.delta_base_);
    PutU64(out, col.deltas_.size());
    for (int32_t d : col.deltas_) PutU32(out, static_cast<uint32_t>(d));
    // dictionary
    if (col.dictionary_ != nullptr) {
      PutU8(out, 1);
      PutU8(out, static_cast<uint8_t>(col.dictionary_->collation()));
      PutU64(out, col.dictionary_->values().size());
      for (const std::string& s : col.dictionary_->values()) PutString(out, s);
    } else {
      PutU8(out, 0);
    }
  }

  static StatusOr<std::shared_ptr<Column>> Unpack(Reader* r) {
    auto col = std::make_shared<Column>();
    uint8_t kind, collation, encoding;
    if (!r->GetU8(&kind) || !r->GetU8(&collation) || !r->GetU8(&encoding)) {
      return DataLoss("column header truncated");
    }
    if (kind > kMaxTypeKind || collation > kMaxCollation ||
        encoding > kMaxEncoding) {
      return DataLoss("column header: bad type or encoding tag");
    }
    col->type_.kind = static_cast<TypeKind>(kind);
    col->type_.collation = static_cast<Collation>(collation);
    col->encoding_ = static_cast<Encoding>(encoding);
    if (!r->GetI64(&col->size_)) return DataLoss("column size truncated");
    uint8_t has_mm;
    if (!r->GetU8(&has_mm)) return DataLoss("column stats truncated");
    col->stats_.has_min_max = has_mm != 0;
    if (!GetValue(r, &col->stats_.min) || !GetValue(r, &col->stats_.max) ||
        !r->GetI64(&col->stats_.distinct_estimate) ||
        !r->GetI64(&col->stats_.null_count)) {
      return DataLoss("column stats truncated");
    }
    uint64_t n;
    if (!r->GetU64(&n) || !r->Fits(n, 1)) {
      return DataLoss("null mask truncated");
    }
    col->nulls_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!r->GetU8(&col->nulls_[i])) return DataLoss("null mask truncated");
    }
    if (!r->GetU64(&n) || !r->Fits(n, 8)) {
      return DataLoss("int payload truncated");
    }
    col->ints_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!r->GetI64(&col->ints_[i])) return DataLoss("int payload truncated");
    }
    if (!r->GetU64(&n) || !r->Fits(n, 8)) {
      return DataLoss("double payload truncated");
    }
    col->doubles_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!r->GetDouble(&col->doubles_[i])) {
        return DataLoss("double payload truncated");
      }
    }
    if (!r->GetU64(&n) || !r->Fits(n, 4)) {
      return DataLoss("string payload truncated");
    }
    col->strings_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!r->GetString(&col->strings_[i])) {
        return DataLoss("string payload truncated");
      }
    }
    if (!r->GetU64(&n) || !r->Fits(n, 24)) {
      return DataLoss("runs truncated");
    }
    col->runs_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      RleRun& run = col->runs_[i];
      if (!r->GetI64(&run.value) || !r->GetI64(&run.start) ||
          !r->GetI64(&run.count)) {
        return DataLoss("runs truncated");
      }
    }
    if (!r->GetI64(&col->delta_base_)) return DataLoss("delta truncated");
    if (!r->GetU64(&n) || !r->Fits(n, 4)) {
      return DataLoss("delta truncated");
    }
    col->deltas_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t d;
      if (!r->GetU32(&d)) return DataLoss("delta truncated");
      col->deltas_[i] = static_cast<int32_t>(d);
    }
    uint8_t has_dict;
    if (!r->GetU8(&has_dict)) return DataLoss("dictionary flag truncated");
    if (has_dict != 0) {
      uint8_t dict_collation;
      uint64_t entries;
      if (!r->GetU8(&dict_collation) || !r->GetU64(&entries)) {
        return DataLoss("dictionary header truncated");
      }
      if (dict_collation > kMaxCollation) {
        return DataLoss("dictionary header: bad collation tag");
      }
      auto dict = std::make_shared<StringDictionary>(
          static_cast<Collation>(dict_collation));
      for (uint64_t i = 0; i < entries; ++i) {
        std::string s;
        if (!r->GetString(&s)) return DataLoss("dictionary truncated");
        dict->Intern(s);
      }
      col->dictionary_ = std::move(dict);
    }
    return col;
  }
};

std::string DatabaseSerializer::Pack(const Database& db) {
  std::string out;
  PutU32(&out, kMagic);
  PutU32(&out, kVersion);
  PutString(&out, db.name_);
  PutU32(&out, static_cast<uint32_t>(db.schemas_.size()));
  for (const auto& [sname, tables] : db.schemas_) {
    PutString(&out, sname);
    PutU32(&out, static_cast<uint32_t>(tables.size()));
    for (const auto& [tname, table] : tables) {
      PutString(&out, tname);
      PutI64(&out, table->num_rows_);
      PutU32(&out, static_cast<uint32_t>(table->schema_.size()));
      for (size_t i = 0; i < table->schema_.size(); ++i) {
        PutString(&out, table->schema_[i].name);
        ColumnSerializer::Pack(*table->columns_[i], &out);
      }
      PutU32(&out, static_cast<uint32_t>(table->sort_columns_.size()));
      for (int sc : table->sort_columns_) PutU32(&out, static_cast<uint32_t>(sc));
    }
  }
  return out;
}

StatusOr<std::shared_ptr<Database>> DatabaseSerializer::Unpack(
    const std::string& bytes) {
  Reader r(bytes);
  uint32_t magic, version;
  if (!r.GetU32(&magic) || magic != kMagic) {
    return DataLoss("not a VizQuery extract file");
  }
  if (!r.GetU32(&version) || version != kVersion) {
    return DataLoss("unsupported extract version");
  }
  std::string db_name;
  if (!r.GetString(&db_name)) return DataLoss("truncated header");
  auto db = std::make_shared<Database>(db_name);
  db->schemas_.clear();
  uint32_t nschemas;
  if (!r.GetU32(&nschemas)) return DataLoss("truncated schema count");
  for (uint32_t s = 0; s < nschemas; ++s) {
    std::string sname;
    uint32_t ntables;
    if (!r.GetString(&sname) || !r.GetU32(&ntables)) {
      return DataLoss("truncated schema");
    }
    auto& tables = db->schemas_[sname];
    for (uint32_t t = 0; t < ntables; ++t) {
      std::string tname;
      if (!r.GetString(&tname)) return DataLoss("truncated table name");
      auto table = std::make_shared<Table>();
      table->name_ = tname;
      if (!r.GetI64(&table->num_rows_)) return DataLoss("truncated rows");
      uint32_t ncols;
      if (!r.GetU32(&ncols)) return DataLoss("truncated columns");
      for (uint32_t c = 0; c < ncols; ++c) {
        ColumnInfo ci;
        if (!r.GetString(&ci.name)) return DataLoss("truncated column name");
        VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<Column> col,
                              ColumnSerializer::Unpack(&r));
        ci.type = col->type();
        table->schema_.push_back(std::move(ci));
        table->columns_.push_back(std::move(col));
      }
      uint32_t nsort;
      if (!r.GetU32(&nsort)) return DataLoss("truncated sort metadata");
      for (uint32_t i = 0; i < nsort; ++i) {
        uint32_t sc;
        if (!r.GetU32(&sc)) return DataLoss("truncated sort metadata");
        table->sort_columns_.push_back(static_cast<int>(sc));
      }
      tables.emplace(tname, std::move(table));
    }
  }
  if (!r.AtEnd()) return DataLoss("trailing bytes in extract file");
  return db;
}

Status DatabaseSerializer::PackToFile(const Database& db,
                                      const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return InvalidArgument("cannot open '" + path + "' for writing");
  std::string bytes = Pack(db);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) return Internal("write to '" + path + "' failed");
  return OkStatus();
}

StatusOr<std::shared_ptr<Database>> DatabaseSerializer::UnpackFromFile(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return NotFound("cannot open '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return Unpack(bytes);
}

}  // namespace vizq::tde
