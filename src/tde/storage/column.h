// Column storage for the TDE (§4.1.1 of the paper).
//
// A column stores values of one DataType plus a null mask. Four physical
// layouts are implemented:
//
//   * kPlain       — uncompressed fixed-width data (or raw strings).
//   * kDictionary  — fixed tokens stored in the column, with an associated
//                    dictionary of the original values ("array compression"
//                    for fixed-width values, "heap compression" for
//                    strings). Dictionary compression is visible outside the
//                    storage layer: the planner models decompression as a
//                    join and rewrites predicates into token space.
//   * kRle         — run-length encoding of fixed-width data (including
//                    dictionary tokens). An *encoding* in TDE terms: a
//                    storage format normally invisible outside this layer,
//                    except that the optimizer may exploit it via the
//                    IndexTable range-skipping join (§4.3).
//   * kDelta       — delta encoding for sorted integer data; invisible
//                    outside the layer.
//
// Numeric payloads: bool/int64/date values live in int64 storage; float64 in
// double storage. String columns are either kPlain (raw strings) or
// kDictionary (tokens + string dictionary).

#ifndef VIZQUERY_TDE_STORAGE_COLUMN_H_
#define VIZQUERY_TDE_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/value.h"

namespace vizq::tde {

// Physical layout of a column.
enum class Encoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
  kRle = 2,
  kDelta = 3,
};

const char* EncodingToString(Encoding e);

// One run of an RLE-encoded column: `count` copies of `value` starting at
// row `start`. Exactly the (value, count, start) triple the paper's
// IndexTable exposes (§4.3).
struct RleRun {
  int64_t value = 0;  // payload (or dictionary token); doubles are bit-cast
  int64_t start = 0;
  int64_t count = 0;
};

// A contiguous row range [start, start + count) of a column or table.
struct RowRange {
  int64_t start = 0;
  int64_t count = 0;
};

// Shared, immutable string dictionary. Tokens are indexes into `values`,
// assigned in first-appearance order. Lookup honors the column collation.
class StringDictionary {
 public:
  explicit StringDictionary(Collation collation) : collation_(collation) {}

  // Returns the token for `s`, inserting it if absent.
  int64_t Intern(std::string_view s);

  // Returns the token of `s` or -1 when not present (no insertion).
  int64_t Find(std::string_view s) const;

  const std::string& value(int64_t token) const { return values_[token]; }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  Collation collation() const { return collation_; }
  const std::vector<std::string>& values() const { return values_; }

 private:
  Collation collation_;
  std::vector<std::string> values_;
  // Canonical collation key -> token.
  std::unordered_map<std::string, int64_t> index_;
};

// Aggregate statistics kept in SYS metadata and used by the optimizer
// (cardinality, domains, sortedness — §3.1, §4.2.2).
struct ColumnStats {
  bool has_min_max = false;
  Value min;
  Value max;
  int64_t distinct_estimate = 0;
  int64_t null_count = 0;
};

// An immutable column. Construct through ColumnBuilder.
class Column {
 public:
  const DataType& type() const { return type_; }
  Encoding encoding() const { return encoding_; }
  int64_t size() const { return size_; }
  const ColumnStats& stats() const { return stats_; }

  bool IsNull(int64_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  int64_t null_count() const { return stats_.null_count; }

  // Random access as a dynamic Value (API-boundary convenience; scans use
  // the bulk decoders below).
  Value GetValue(int64_t row) const;

  // The bulk decoders append rows to `out`, so a scan can fill one batch
  // from several row ranges. Null rows decode to 0 (or an empty string);
  // their flags come from DecodeNulls.

  // Appends the int64 payload of rows [start, start+count) (bool/int64/
  // date columns, or dictionary *tokens* for encoded strings).
  void DecodeInts(int64_t start, int64_t count,
                  std::vector<int64_t>* out) const;

  // Appends string rows [start, start+count) (plain string columns only;
  // dictionary string columns should be scanned as tokens + dictionary()).
  void DecodeStrings(int64_t start, int64_t count,
                     std::vector<std::string>* out) const;

  // Streaming decode state for the piece decoders below: where the last
  // decode ended, so a scan of ascending row ranges walks runs and deltas
  // forward once, O(n) in all, with no per-range search or re-summing.
  struct DecodeCursor {
    int64_t next_row = 0;  // row after the last decode (kDelta only)
    int64_t acc = 0;       // value of row next_row (kDelta only)
    size_t run = 0;        // run holding the last decoded row (kRle only)
  };

  // The piece decoders append the rows of `pieces` — row ranges in
  // ascending order, such as one scan batch's — one piece after another,
  // in one call. A piece that starts before the cursor (a morsel claimed
  // out of order) re-seeds it: a binary search over kRle runs, the prefix
  // sum from row 0 over kDelta deltas.

  // Appends the int payload (as DecodeInts).
  void DecodeIntsResumable(DecodeCursor* cursor,
                           std::span<const RowRange> pieces,
                           std::vector<int64_t>* out) const;

  // Appends the float64 payload.
  void DecodeDoubles(DecodeCursor* cursor, std::span<const RowRange> pieces,
                     std::vector<double>* out) const;

  // Appends the null flags to `out`, the mask of a vector that already
  // holds `at` rows, in ColumnVector's "no nulls" convention: an empty
  // mask means no nulls so far. `out` stays empty until the first null,
  // and is then padded with zeros for the rows before it.
  void DecodeNulls(std::span<const RowRange> pieces, int64_t at,
                   std::vector<uint8_t>* out) const;

  // Emits the kRle runs overlapping each piece, clipped to it and rebased
  // so run starts count from the first piece's first row, as if the
  // pieces were contiguous. Runs are non-empty and cover
  // [0, total piece rows). Returns the number of runs appended. Valid
  // only for is_rle() columns.
  int64_t EmitRuns(DecodeCursor* cursor, std::span<const RowRange> pieces,
                   std::vector<RleRun>* out) const;

  // Encoding-aware three-way comparison of rows `a` and `b` without
  // materializing Values: equal dictionary tokens and same-run RLE rows
  // compare equal in O(log runs); kDelta rows compare by scanning the
  // deltas between them (O(|b-a|), O(1) for neighbors) instead of the
  // O(row) per-row prefix sum of GetValue. Nulls sort first.
  int CompareRows(int64_t a, int64_t b) const;

  // Dictionary of a kDictionary column; nullptr otherwise.
  const StringDictionary* dictionary() const { return dictionary_.get(); }
  std::shared_ptr<const StringDictionary> shared_dictionary() const {
    return dictionary_;
  }

  // The IndexTable view of a kRle column (§4.3): one entry per run.
  // Empty for other encodings.
  const std::vector<RleRun>& rle_runs() const { return runs_; }

  // True when this column's int payload is physically RLE encoded.
  bool is_rle() const { return encoding_ == Encoding::kRle; }

  // True if the column is a string column stored as dictionary tokens.
  bool is_dictionary_string() const {
    return type_.kind == TypeKind::kString && dictionary_ != nullptr;
  }

  // Approximate on-disk / in-memory bytes (for DOP decisions and packing).
  int64_t ApproxBytes() const;

 private:
  friend class ColumnBuilder;
  friend class ColumnSerializer;

  // Writes the raw int payload of the pieces to `dst`, resuming from and
  // advancing `cursor`.
  void DecodeRaw(DecodeCursor* cursor, std::span<const RowRange> pieces,
                 int64_t* dst) const;
  // kRle: the index of the run holding `row`, walking forward from the
  // cursor's run (binary search when `row` lies before it).
  size_t SeekRun(const DecodeCursor& cursor, int64_t row) const;
  // kDelta: writes rows [start, start+count) to `dst`, summing the deltas
  // on from `acc`, the value of row `from` <= start. Returns the value of
  // row start+count.
  int64_t DecodeDeltas(int64_t from, int64_t acc, int64_t start,
                       int64_t count, int64_t* dst) const;

  DataType type_;
  Encoding encoding_ = Encoding::kPlain;
  int64_t size_ = 0;
  ColumnStats stats_;

  std::vector<uint8_t> nulls_;      // empty when no nulls
  std::vector<int64_t> ints_;       // plain int payload or dict tokens
  std::vector<double> doubles_;     // plain float payload
  std::vector<std::string> strings_;// plain string payload
  std::vector<RleRun> runs_;        // kRle payload
  int64_t delta_base_ = 0;          // kDelta: first value
  std::vector<int32_t> deltas_;     // kDelta: value[i] - value[i-1]
  std::shared_ptr<StringDictionary> dictionary_;
};

// How a builder chooses the physical layout.
enum class EncodingChoice : uint8_t {
  kAuto = 0,        // heuristic: dictionary for low-cardinality strings,
                    // RLE when runs compress >2x, delta for sorted ints
  kForcePlain,
  kForceDictionary,
  kForceRle,
  kForceDelta,
};

// Accumulates values then freezes them into an immutable Column.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(DataType type);

  void Append(const Value& v);
  void AppendNull();
  void AppendInt(int64_t v);     // bool/int64/date fast path
  void AppendDouble(double v);
  void AppendString(std::string_view v);

  int64_t size() const { return size_; }

  // Freezes into a Column. The builder is left empty.
  StatusOr<std::shared_ptr<Column>> Finish(
      EncodingChoice choice = EncodingChoice::kAuto);

 private:
  DataType type_;
  int64_t size_ = 0;
  bool any_null_ = false;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_STORAGE_COLUMN_H_
