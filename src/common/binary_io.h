// Little-endian binary writer/reader shared by cache persistence and the
// distributed cache tier. (The storage layer's single-file format keeps its
// own encoder for format-stability reasons.)

#ifndef VIZQUERY_COMMON_BINARY_IO_H_
#define VIZQUERY_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

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
    if (!U32(&n) || pos_ + n > data_.size()) return false;
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
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Raw(void* p, size_t n) {
    if (pos_ + n > data_.size()) return false;
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace vizq

#endif  // VIZQUERY_COMMON_BINARY_IO_H_
