// Record: the packed row representation, and RecordView, a zero-copy reader.
//
// Layout (all little-endian):
//   u16                 column count
//   u32[ncols + 1]      field offsets relative to the start of the data
//                       area; offsets[ncols] is the data-area length
//   u8[ceil(ncols/8)]   null bitmap (bit set = NULL)
//   bytes               data area (fields packed back to back)
//
// Field encodings: BOOL = 1 byte; INT = 8-byte LE; DOUBLE = 8-byte IEEE LE;
// STRING = raw bytes. A NULL field occupies zero data bytes.
//
// RecordView reads fields directly out of any byte buffer (typically a
// buffer-pool page), which is what lets the common predicate evaluator run
// "while the field values from the relation storage or access path are
// still in the buffer pool" (paper, Common Services).

#ifndef DMX_TYPES_RECORD_H_
#define DMX_TYPES_RECORD_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/types/schema.h"
#include "src/types/value.h"
#include "src/util/coding.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {

/// Zero-copy reader over a packed record image. Does not own the bytes;
/// the underlying buffer (e.g. a pinned page) must outlive the view.
class RecordView {
 public:
  RecordView() = default;
  RecordView(Slice data, const Schema* schema)
      : data_(data), schema_(schema) {}

  bool valid() const { return schema_ != nullptr && !data_.empty(); }
  const Schema* schema() const { return schema_; }
  Slice raw() const { return data_; }

  uint16_t num_fields() const {
    if (data_.size() < 2) return 0;
    return DecodeFixed16(data_.data());
  }

  // The field readers are inline: the compiled predicates of the common
  // evaluation service call them once per operand per scanned record.
  bool IsNull(size_t i) const {
    const size_t ncols = num_fields();
    assert(i < ncols);
    const char* bitmap = data_.data() + 2 + 4 * (ncols + 1);
    return (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1;
  }
  int64_t GetInt(size_t i) const {
    uint32_t b, e;
    FieldRange(i, &b, &e);
    assert(e - b == 8);
    return static_cast<int64_t>(DecodeFixed64(data_area() + b));
  }
  double GetDouble(size_t i) const {
    uint32_t b, e;
    FieldRange(i, &b, &e);
    assert(e - b == 8);
    return DecodeDouble(data_area() + b);
  }
  bool GetBool(size_t i) const {
    uint32_t b, e;
    FieldRange(i, &b, &e);
    assert(e - b == 1);
    return data_area()[b] != 0;
  }
  /// Returns a slice aliasing the record buffer (no copy).
  Slice GetStringSlice(size_t i) const {
    uint32_t b, e;
    FieldRange(i, &b, &e);
    return Slice(data_area() + b, e - b);
  }

  /// Decode field `i` into an owning Value (copies string bytes).
  Value GetValue(size_t i) const;

  /// Decode every field.
  std::vector<Value> GetValues() const;

  /// Structural sanity check: offsets in range and monotone, bitmap fits.
  Status Validate() const;

 private:
  // Byte range of field i within the data area.
  void FieldRange(size_t i, uint32_t* begin, uint32_t* end) const {
    const char* offsets = data_.data() + 2;
    *begin = DecodeFixed32(offsets + 4 * i);
    *end = DecodeFixed32(offsets + 4 * (i + 1));
  }
  // Header: u16 count, u32 offsets[count + 1], bitmap[ceil(count / 8)].
  const char* data_area() const {
    const size_t ncols = num_fields();
    return data_.data() + 2 + 4 * (ncols + 1) + (ncols + 7) / 8;
  }

  Slice data_;
  const Schema* schema_ = nullptr;
};

/// An owning packed record. Encode from values once, then pass around as
/// bytes; wrap in RecordView (with the relation schema) to read fields.
class Record {
 public:
  Record() = default;
  explicit Record(std::string buf) : buf_(std::move(buf)) {}

  /// Pack `values` (one per schema column, in order) into a Record.
  /// Performs numeric widening for int-where-double-expected.
  static Status Encode(const Schema& schema, const std::vector<Value>& values,
                       Record* out);

  const std::string& buffer() const { return buf_; }
  Slice slice() const { return Slice(buf_); }
  bool empty() const { return buf_.empty(); }

  RecordView View(const Schema* schema) const {
    return RecordView(slice(), schema);
  }

 private:
  std::string buf_;
};

}  // namespace dmx

#endif  // DMX_TYPES_RECORD_H_
