#include "src/types/record.h"

#include "src/util/coding.h"

namespace dmx {

namespace {
size_t BitmapBytes(size_t ncols) { return (ncols + 7) / 8; }
size_t HeaderBytes(size_t ncols) {
  return 2 + 4 * (ncols + 1) + BitmapBytes(ncols);
}
}  // namespace

Value RecordView::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (schema_->column(i).type) {
    case TypeId::kBool: return Value::Bool(GetBool(i));
    case TypeId::kInt64: return Value::Int(GetInt(i));
    case TypeId::kDouble: return Value::Double(GetDouble(i));
    case TypeId::kString: return Value::String(GetStringSlice(i));
    case TypeId::kNull: return Value::Null();
  }
  return Value::Null();
}

std::vector<Value> RecordView::GetValues() const {
  std::vector<Value> out;
  const size_t n = schema_ ? schema_->num_columns() : num_fields();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(GetValue(i));
  return out;
}

Status RecordView::Validate() const {
  if (data_.size() < 2) return Status::Corruption("record too short");
  const size_t ncols = num_fields();
  if (schema_ && ncols != schema_->num_columns()) {
    return Status::Corruption("record column count mismatch");
  }
  const size_t header = HeaderBytes(ncols);
  if (data_.size() < header) return Status::Corruption("record header");
  uint32_t prev = 0;
  const char* offsets = data_.data() + 2;
  for (size_t i = 0; i <= ncols; ++i) {
    uint32_t off = DecodeFixed32(offsets + 4 * i);
    if (i == 0 && off != 0) return Status::Corruption("first offset");
    if (off < prev) return Status::Corruption("offsets not monotone");
    prev = off;
  }
  if (header + prev != data_.size()) {
    return Status::Corruption("record size mismatch");
  }
  return Status::OK();
}

Status Record::Encode(const Schema& schema, const std::vector<Value>& values,
                      Record* out) {
  DMX_RETURN_IF_ERROR(schema.ValidateRow(values));
  const size_t ncols = values.size();
  std::string data;
  std::vector<uint32_t> offsets(ncols + 1, 0);
  std::string bitmap(BitmapBytes(ncols), 0);
  for (size_t i = 0; i < ncols; ++i) {
    offsets[i] = static_cast<uint32_t>(data.size());
    const Value& v = values[i];
    if (v.is_null()) {
      bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kBool:
        data.push_back(v.bool_value() ? 1 : 0);
        break;
      case TypeId::kInt64:
        PutFixed64(&data, static_cast<uint64_t>(v.int_value()));
        break;
      case TypeId::kDouble:
        PutDouble(&data, v.AsDouble());  // widens int literals
        break;
      case TypeId::kString:
        data.append(v.string_value());
        break;
      case TypeId::kNull:
        break;
    }
  }
  offsets[ncols] = static_cast<uint32_t>(data.size());

  std::string buf;
  buf.reserve(HeaderBytes(ncols) + data.size());
  PutFixed16(&buf, static_cast<uint16_t>(ncols));
  for (uint32_t off : offsets) PutFixed32(&buf, off);
  buf.append(bitmap);
  buf.append(data);
  *out = Record(std::move(buf));
  return Status::OK();
}

}  // namespace dmx
