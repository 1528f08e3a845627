// Little-endian binary writer/reader: the one codec behind every binary
// format — ResultTable, AbstractQuery, cache snapshots and the shared
// cache tier, the .tde single-file extract, the cluster batch payloads and
// the RPC envelopes. Integers are fixed-width, strings carry a u32 length
// prefix, and a Value is a one-byte tag (0 null, 1 bool, 2 int64,
// 3 float64, 4 string) followed by its payload. Files on disk depend on
// these bytes; robustness_test's BinaryFormatTest.GoldenBytes pins them.
//
// Every read returns false on truncated or out-of-range input. Count()
// bounds a length prefix by the bytes left and Enum() rejects an unknown
// tag, so a decoder that reads its counts and tags through them is total:
// corrupt input is a typed error, never a crash or a huge allocation.

#ifndef VIZQUERY_COMMON_BINARY_IO_H_
#define VIZQUERY_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/common/value.h"

namespace vizq {

class BinaryWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Val(const Value& v) {
    if (v.is_null()) {
      U8(0);
    } else if (v.is_bool()) {
      U8(1);
      U8(v.bool_value() ? 1 : 0);
    } else if (v.is_int()) {
      U8(2);
      I64(v.int_value());
    } else if (v.is_double()) {
      U8(3);
      F64(v.double_value());
    } else {
      U8(4);
      Str(v.string_value());
    }
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& bytes) : data_(bytes) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool F64(double* v) { return Raw(v, 8); }
  bool Str(std::string* s) {
    uint32_t n;
    if (!U32(&n) || n > remaining()) return false;
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool Val(Value* v) {
    uint8_t tag;
    if (!U8(&tag)) return false;
    switch (tag) {
      case 0:
        *v = Value::Null();
        return true;
      case 1: {
        uint8_t b;
        if (!U8(&b)) return false;
        *v = Value(b != 0);
        return true;
      }
      case 2: {
        int64_t i;
        if (!I64(&i)) return false;
        *v = Value(i);
        return true;
      }
      case 3: {
        double d;
        if (!F64(&d)) return false;
        *v = Value(d);
        return true;
      }
      case 4: {
        std::string s;
        if (!Str(&s)) return false;
        *v = Value(std::move(s));
        return true;
      }
      default:
        return false;
    }
  }

  // Reads an element count stored as a u32 or a u64 (the width of `*n`)
  // and fails unless that many elements of at least `min_elem_bytes` (>= 1)
  // each fit in the bytes left, so a corrupt count can size neither an
  // allocation nor a loop beyond the input.
  template <typename T>
  bool Count(T* n, size_t min_elem_bytes) {
    static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t>);
    return Raw(n, sizeof(T)) && *n <= remaining() / min_elem_bytes;
  }

  // Reads an enum stored as a `Wire` integer (one byte unless the format
  // says otherwise) and fails unless it is at most `last`, the enum's
  // largest value.
  template <typename Wire = uint8_t, typename E>
  bool Enum(E* v, E last) {
    Wire w = 0;
    if (!Raw(&w, sizeof(w)) || w > static_cast<Wire>(last)) return false;
    *v = static_cast<E>(w);
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  size_t remaining() const { return data_.size() - pos_; }
  bool Raw(void* p, size_t n) {
    if (n > remaining()) return false;
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace vizq

#endif  // VIZQUERY_COMMON_BINARY_IO_H_
