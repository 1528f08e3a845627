#include "src/tde/storage/file_format.h"

#include <algorithm>
#include <fstream>

#include "src/common/binary_io.h"

namespace vizq::tde {

namespace {

constexpr uint32_t kMagic = 0x56514445;  // 'VQDE'
constexpr uint32_t kVersion = 1;

// Smallest encodings, in bytes, of the elements a count prefixes. A
// schema: name, table count. A table: name, row count, column count, sort
// column count. A column: name, three tags, size, has_min_max, null min
// and max, distinct estimate, null count, the counts of the null mask and
// four payloads, delta base, delta count, dictionary flag.
constexpr size_t kMinSchemaBytes = 4 + 4;
constexpr size_t kMinTableBytes = 4 + 8 + 4 + 4;
constexpr size_t kMinColumnBytes =
    4 + 3 + 8 + 1 + 1 + 1 + 8 + 8 + 5 * 8 + 8 + 8 + 1;

// Reads a u64 count of elements that take at least `min_elem_bytes` each,
// then the elements.
template <typename T, typename ReadOne>
bool ReadVector(BinaryReader* r, size_t min_elem_bytes, std::vector<T>* out,
                ReadOne read_one) {
  uint64_t n;
  if (!r->Count(&n, min_elem_bytes)) return false;
  out->resize(n);
  for (T& v : *out) {
    if (!read_one(&v)) return false;
  }
  return true;
}

}  // namespace

// Serializes Column internals; a friend of Column.
class ColumnSerializer {
 public:
  static void Pack(const Column& col, BinaryWriter* w) {
    w->U8(static_cast<uint8_t>(col.type_.kind));
    w->U8(static_cast<uint8_t>(col.type_.collation));
    w->U8(static_cast<uint8_t>(col.encoding_));
    w->I64(col.size_);
    // stats
    w->U8(col.stats_.has_min_max ? 1 : 0);
    w->Val(col.stats_.min);
    w->Val(col.stats_.max);
    w->I64(col.stats_.distinct_estimate);
    w->I64(col.stats_.null_count);
    // null mask
    w->U64(col.nulls_.size());
    for (uint8_t b : col.nulls_) w->U8(b);
    // payloads
    w->U64(col.ints_.size());
    for (int64_t v : col.ints_) w->I64(v);
    w->U64(col.doubles_.size());
    for (double v : col.doubles_) w->F64(v);
    w->U64(col.strings_.size());
    for (const std::string& s : col.strings_) w->Str(s);
    w->U64(col.runs_.size());
    for (const RleRun& run : col.runs_) {
      w->I64(run.value);
      w->I64(run.start);
      w->I64(run.count);
    }
    w->I64(col.delta_base_);
    w->U64(col.deltas_.size());
    for (int32_t d : col.deltas_) w->U32(static_cast<uint32_t>(d));
    // dictionary
    if (col.dictionary_ != nullptr) {
      w->U8(1);
      w->U8(static_cast<uint8_t>(col.dictionary_->collation()));
      w->U64(col.dictionary_->values().size());
      for (const std::string& s : col.dictionary_->values()) w->Str(s);
    } else {
      w->U8(0);
    }
  }

  // Reads one column of a table of `rows` rows.
  static StatusOr<std::shared_ptr<Column>> Unpack(BinaryReader* r,
                                                  int64_t rows) {
    auto col = std::make_shared<Column>();
    if (!r->Enum(&col->type_.kind, TypeKind::kDate) ||
        !r->Enum(&col->type_.collation, Collation::kCaseInsensitive) ||
        !r->Enum(&col->encoding_, Encoding::kDelta)) {
      return DataLoss("column header: truncated, or a bad type or encoding");
    }
    uint8_t has_min_max;
    if (!r->I64(&col->size_) || !r->U8(&has_min_max) ||
        !r->Val(&col->stats_.min) || !r->Val(&col->stats_.max) ||
        !r->I64(&col->stats_.distinct_estimate) ||
        !r->I64(&col->stats_.null_count)) {
      return DataLoss("column stats truncated");
    }
    col->stats_.has_min_max = has_min_max != 0;
    if (!ReadVector(r, 1, &col->nulls_, [r](uint8_t* b) { return r->U8(b); }) ||
        !ReadVector(r, 8, &col->ints_, [r](int64_t* v) { return r->I64(v); }) ||
        !ReadVector(r, 8, &col->doubles_,
                    [r](double* v) { return r->F64(v); }) ||
        !ReadVector(r, 4, &col->strings_,
                    [r](std::string* s) { return r->Str(s); }) ||
        !ReadVector(r, 3 * 8, &col->runs_,
                    [r](RleRun* run) {
                      return r->I64(&run->value) && r->I64(&run->start) &&
                             r->I64(&run->count);
                    }) ||
        !r->I64(&col->delta_base_) ||
        !ReadVector(r, 4, &col->deltas_, [r](int32_t* d) {
          uint32_t u;
          if (!r->U32(&u)) return false;
          *d = static_cast<int32_t>(u);
          return true;
        })) {
      return DataLoss("column payload truncated");
    }
    uint8_t has_dict;
    if (!r->U8(&has_dict)) return DataLoss("dictionary flag truncated");
    if (has_dict != 0) {
      Collation collation;
      uint64_t entries;
      if (!r->Enum(&collation, Collation::kCaseInsensitive) ||
          !r->Count(&entries, 4)) {
        return DataLoss("dictionary header: truncated, or a bad collation");
      }
      auto dict = std::make_shared<StringDictionary>(collation);
      std::string s;
      for (uint64_t i = 0; i < entries; ++i) {
        if (!r->Str(&s)) return DataLoss("dictionary truncated");
        dict->Intern(s);
      }
      col->dictionary_ = std::move(dict);
    }
    VIZQ_RETURN_IF_ERROR(Check(*col, rows));
    return col;
  }

 private:
  // What the decoders rely on and ColumnBuilder guarantees: the encoding
  // fits the type, the payload it reads holds one element per row (and
  // the others none), RLE runs tile the rows, delta sums stay in range,
  // the null mask is empty or one byte per row, and every token indexes
  // the dictionary.
  static Status Check(const Column& col, int64_t rows) {
    auto corrupt = [](const std::string& what) {
      return DataLoss("column payload: " + what);
    };
    const int64_t n = col.size_;
    if (n != rows) {
      return corrupt("size " + std::to_string(n) + " is not the table's " +
                     std::to_string(rows) + " rows");
    }
    const TypeKind kind = col.type_.kind;
    const Encoding enc = col.encoding_;
    const bool is_string = kind == TypeKind::kString;
    const bool is_float = kind == TypeKind::kFloat64;
    // Strings are plain, or dictionary tokens stored flat or as RLE runs;
    // doubles are plain or RLE bit patterns; bool, int64 and date take
    // plain, RLE or delta.
    const bool tokens = is_string && enc != Encoding::kPlain;
    if ((is_string && enc == Encoding::kDelta) ||
        (!is_string && enc == Encoding::kDictionary) ||
        (is_float && enc == Encoding::kDelta)) {
      return corrupt(std::string(EncodingToString(enc)) +
                     " encoding does not fit the type");
    }
    if ((col.dictionary_ != nullptr) != tokens ||
        (tokens && col.dictionary_->collation() != col.type_.collation)) {
      return corrupt("dictionary does not fit the encoding");
    }
    auto holds = [](const auto& payload, int64_t want) {
      return static_cast<int64_t>(payload.size()) == want;
    };
    const bool plain = enc == Encoding::kPlain;
    const bool flat_ints =
        enc == Encoding::kDictionary || (plain && !is_string && !is_float);
    if (!holds(col.ints_, flat_ints ? n : 0) ||
        !holds(col.doubles_, plain && is_float ? n : 0) ||
        !holds(col.strings_, plain && is_string ? n : 0) ||
        !holds(col.deltas_,
               enc == Encoding::kDelta ? std::max<int64_t>(n - 1, 0) : 0) ||
        (enc != Encoding::kRle && !col.runs_.empty())) {
      return corrupt("payload length does not match the row count");
    }
    if (!col.nulls_.empty() && !holds(col.nulls_, n)) {
      return corrupt("null mask length does not match the row count");
    }
    int64_t covered = 0;
    for (const RleRun& run : col.runs_) {
      if (run.start != covered || run.count <= 0 || run.count > n - covered) {
        return corrupt("RLE runs do not tile the rows");
      }
      covered += run.count;
    }
    if (enc == Encoding::kRle && covered != n) {
      return corrupt("RLE runs do not tile the rows");
    }
    int64_t value = col.delta_base_;
    for (int32_t d : col.deltas_) {
      if (__builtin_add_overflow(value, d, &value)) {
        return corrupt("delta sum overflows");
      }
    }
    if (tokens) {
      const int64_t size = col.dictionary_->size();
      auto outside = [size](int64_t token) {
        return token < 0 || token >= size;
      };
      if (std::any_of(col.ints_.begin(), col.ints_.end(), outside) ||
          std::any_of(col.runs_.begin(), col.runs_.end(),
                      [&](const RleRun& run) { return outside(run.value); })) {
        return corrupt("token outside the dictionary");
      }
    }
    return OkStatus();
  }
};

std::string DatabaseSerializer::Pack(const Database& db) {
  BinaryWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.Str(db.name_);
  w.U32(static_cast<uint32_t>(db.schemas_.size()));
  for (const auto& [sname, tables] : db.schemas_) {
    w.Str(sname);
    w.U32(static_cast<uint32_t>(tables.size()));
    for (const auto& [tname, table] : tables) {
      w.Str(tname);
      w.I64(table->num_rows_);
      w.U32(static_cast<uint32_t>(table->schema_.size()));
      for (size_t i = 0; i < table->schema_.size(); ++i) {
        w.Str(table->schema_[i].name);
        ColumnSerializer::Pack(*table->columns_[i], &w);
      }
      w.U32(static_cast<uint32_t>(table->sort_columns_.size()));
      for (int sc : table->sort_columns_) w.U32(static_cast<uint32_t>(sc));
    }
  }
  return w.TakeBytes();
}

StatusOr<std::shared_ptr<Database>> DatabaseSerializer::Unpack(
    const std::string& bytes) {
  BinaryReader r(bytes);
  uint32_t magic, version;
  if (!r.U32(&magic) || magic != kMagic) {
    return DataLoss("not a VizQuery extract file");
  }
  if (!r.U32(&version) || version != kVersion) {
    return DataLoss("unsupported extract version");
  }
  std::string db_name;
  uint32_t nschemas;
  if (!r.Str(&db_name) || !r.Count(&nschemas, kMinSchemaBytes)) {
    return DataLoss("truncated header");
  }
  auto db = std::make_shared<Database>(db_name);
  db->schemas_.clear();
  for (uint32_t s = 0; s < nschemas; ++s) {
    std::string sname;
    uint32_t ntables;
    if (!r.Str(&sname) || !r.Count(&ntables, kMinTableBytes)) {
      return DataLoss("truncated schema");
    }
    auto& tables = db->schemas_[sname];
    for (uint32_t t = 0; t < ntables; ++t) {
      auto table = std::make_shared<Table>();
      uint32_t ncols;
      if (!r.Str(&table->name_) || !r.I64(&table->num_rows_) ||
          !r.Count(&ncols, kMinColumnBytes)) {
        return DataLoss("truncated table header");
      }
      if (table->num_rows_ < 0) return DataLoss("negative row count");
      for (uint32_t c = 0; c < ncols; ++c) {
        ColumnInfo ci;
        if (!r.Str(&ci.name)) return DataLoss("truncated column name");
        VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<Column> col,
                              ColumnSerializer::Unpack(&r, table->num_rows_));
        ci.type = col->type();
        table->schema_.push_back(std::move(ci));
        table->columns_.push_back(std::move(col));
      }
      uint32_t nsort;
      if (!r.Count(&nsort, 4)) return DataLoss("truncated sort metadata");
      for (uint32_t i = 0; i < nsort; ++i) {
        uint32_t sc;
        if (!r.U32(&sc)) return DataLoss("truncated sort metadata");
        if (sc >= ncols) return DataLoss("sort column out of range");
        table->sort_columns_.push_back(static_cast<int>(sc));
      }
      std::string tname = table->name_;
      tables.emplace(std::move(tname), std::move(table));
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
