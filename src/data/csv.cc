#include "data/csv.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "data/id_index.h"

namespace crh {

namespace {

/// Stream input is read this many bytes at a time.
constexpr size_t kCsvBlockBytes = size_t{64} << 10;

Status OverlongLine(size_t line_no) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": line exceeds " +
                                 std::to_string(kMaxCsvLineBytes) + " bytes");
}

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteCsvField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

std::string FormatValue(const Dataset& data, size_t m, const Value& v) {
  if (v.is_continuous()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.continuous());
    return buf;
  }
  return QuoteCsvField(data.dict(m).label(v.category()));
}

/// Parses the value cell of a row whose property is `m`: labels of a
/// discrete property are interned into `*dict`.
Result<Value> ParseValueCell(const CsvTokenizer& tokenizer, const Schema& schema,
                             size_t m, std::string_view text, CategoryDict* dict) {
  if (schema.is_discrete(m)) return Value::Categorical(dict->GetOrAdd(text));
  double parsed = 0;
  if (!ParseContinuousCell(text, &parsed)) {
    return tokenizer.LineError("cannot parse continuous value '" + std::string(text) + "'");
  }
  return Value::Continuous(parsed);
}

}  // namespace

bool ParseContinuousCell(std::string_view text, double* out) {
  const char* const end = text.data() + text.size();
  double parsed = 0;
  const std::from_chars_result fast = std::from_chars(text.data(), end, parsed);
  if (fast.ec == std::errc() && fast.ptr == end && std::isfinite(parsed)) {
    *out = parsed;
    return true;
  }
  // Everything from_chars does not take whole goes through strtod's strict
  // use: strtod's laxness (leading whitespace, hex, inf/nan, trailing
  // garbage) is refused up front or by the whole-field and finiteness
  // tests. Overflow surfaces as +-inf and fails the finiteness test;
  // underflow (strtod reports it via ERANGE) is a legitimate value that the
  // writer itself produces, so errno is deliberately not consulted.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) ||
      text.find_first_of("xX") != std::string_view::npos) {
    return false;
  }
  const std::string terminated(text);  // strtod needs a NUL terminator
  char* parsed_end = nullptr;
  parsed = std::strtod(terminated.c_str(), &parsed_end);
  if (parsed_end != terminated.c_str() + terminated.size() ||
      parsed_end == terminated.c_str() || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

Status CsvTokenizer::ReadHeader() {
  std::string_view header;
  auto read = NextLine(&header);
  if (!read.ok()) return read.status();
  if (!*read) return Status::InvalidArgument("empty CSV input: missing header row");
  return Status::OK();
}

Result<bool> CsvTokenizer::NextRow() {
  std::string_view line;
  do {
    auto read = NextLine(&line);
    if (!read.ok() || !*read) return read;
  } while (line.empty());
  CRH_RETURN_NOT_OK(SplitFields(line));
  return true;
}

Status CsvTokenizer::ExpectFields(size_t count) const {
  if (num_fields_ == count) return Status::OK();
  return LineError("expected " + std::to_string(count) + " fields, got " +
                   std::to_string(num_fields_));
}

Status CsvTokenizer::LineError(const std::string& what) const {
  return Status::InvalidArgument("line " + std::to_string(line_no_) + ": " + what);
}

Result<bool> CsvTokenizer::NextLine(std::string_view* line) {
  ++line_no_;
  size_t scanned = 0;  // bytes of rest_ known to hold no newline
  while (true) {
    const void* newline =
        scanned < rest_.size()
            ? std::memchr(rest_.data() + scanned, '\n', rest_.size() - scanned)
            : nullptr;
    if (newline != nullptr) {
      const size_t length = static_cast<size_t>(static_cast<const char*>(newline) - rest_.data());
      *line = rest_.substr(0, length);
      rest_.remove_prefix(length + 1);
      break;
    }
    if (rest_.size() > kMaxCsvLineBytes) return OverlongLine(line_no_);
    scanned = rest_.size();
    if (!Refill()) {
      if (rest_.empty()) return false;
      *line = rest_;  // a last line without a newline
      rest_ = {};
      break;
    }
  }
  if (line->size() > kMaxCsvLineBytes) return OverlongLine(line_no_);
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

bool CsvTokenizer::Refill() {
  if (in_ == nullptr) return false;
  // Only a partial line (at most kMaxCsvLineBytes) is carried over, so the
  // block buffer never outgrows one line plus one block.
  const size_t keep = rest_.size();
  const size_t offset = keep == 0 ? 0 : static_cast<size_t>(rest_.data() - block_.data());
  if (block_.size() < keep + kCsvBlockBytes) block_.resize(keep + kCsvBlockBytes);
  std::memmove(block_.data(), block_.data() + offset, keep);
  in_->read(block_.data() + keep, static_cast<std::streamsize>(kCsvBlockBytes));
  const size_t got = static_cast<size_t>(in_->gcount());
  rest_ = std::string_view(block_.data(), keep + got);
  return got > 0;
}

Status CsvTokenizer::SplitFields(std::string_view line) {
  num_fields_ = 0;
  scratch_.clear();
  size_t pos = 0;
  while (true) {
    std::string_view field;
    if (pos < line.size() && line[pos] == '"') {
      CRH_RETURN_NOT_OK(Unquote(line, &pos, &field));
    } else {
      const size_t comma = line.find(',', pos);
      const size_t end = comma == std::string_view::npos ? line.size() : comma;
      field = line.substr(pos, end - pos);
      pos = end;
    }
    if (num_fields_ < kMaxFields) fields_[num_fields_] = field;
    ++num_fields_;
    if (pos >= line.size()) return Status::OK();
    ++pos;  // the comma; a trailing comma yields one final empty field
  }
}

Status CsvTokenizer::Unquote(std::string_view line, size_t* pos, std::string_view* field) {
  size_t from = *pos + 1;  // past the opening quote
  size_t close = line.find('"', from);
  if (close == std::string_view::npos) return LineError("unterminated quoted field");
  const auto doubled = [&line](size_t quote) {
    return quote + 1 < line.size() && line[quote + 1] == '"';
  };
  if (doubled(close)) {
    // Unescape into scratch_. It is reserved to the line size at the row's
    // first use, so the views of earlier fields stay valid.
    if (scratch_.empty()) scratch_.reserve(line.size());
    const size_t start = scratch_.size();
    do {
      scratch_.append(line.data() + from, close + 1 - from);  // the run and one quote
      from = close + 2;
      close = line.find('"', from);
      if (close == std::string_view::npos) return LineError("unterminated quoted field");
    } while (doubled(close));
    scratch_.append(line.data() + from, close - from);
    *field = std::string_view(scratch_).substr(start);
  } else {
    *field = line.substr(from, close - from);
  }
  *pos = close + 1;  // past the closing quote
  if (*pos < line.size() && line[*pos] != ',') {
    return LineError("unexpected character after closing quote");
  }
  return Status::OK();
}

Status WriteObservationsCsv(const Dataset& data, std::ostream& out) {
  out << "object_id,property,source_id,value\n";
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const Value& v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        // A quarantined claim carries the invalid-category sentinel, which
        // names no dictionary label: the CSV format cannot represent it,
        // and indexing the dictionary with it would read out of bounds.
        if (!v.is_continuous() && v.category() == kInvalidCategory) {
          return Status::InvalidArgument(
              "object '" + data.object_id(i) + "' property '" +
              data.schema().property(m).name + "' from source '" +
              data.source_id(k) +
              "' holds a quarantined (invalid-category) claim, which "
              "observation CSV cannot represent");
        }
        out << QuoteCsvField(data.object_id(i)) << ','
            << QuoteCsvField(data.schema().property(m).name) << ','
            << QuoteCsvField(data.source_id(k)) << ',' << FormatValue(data, m, v)
            << '\n';
      }
    }
  }
  if (!out) return Status::IOError("observation CSV write failed");
  return Status::OK();
}

Status WriteObservationsCsv(const Dataset& data, const std::string& path) {
  CRH_FAIL_POINT("csv.open_write");
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  Status status = FailPoints::Instance().Hit("csv.write");
  if (status.ok()) status = WriteObservationsCsv(data, out);
  if (status.ok() && !out) status = Status::IOError("write to '" + path + "' failed");
  return status;
}

Status WriteGroundTruthCsv(const Dataset& data, std::ostream& out) {
  if (!data.has_ground_truth()) {
    return Status::FailedPrecondition("dataset has no ground truth");
  }
  out << "object_id,property,value\n";
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      const Value& v = data.ground_truth().Get(i, m);
      if (v.is_missing()) continue;
      out << QuoteCsvField(data.object_id(i)) << ','
          << QuoteCsvField(data.schema().property(m).name) << ','
          << FormatValue(data, m, v) << '\n';
    }
  }
  if (!out) return Status::IOError("ground-truth CSV write failed");
  return Status::OK();
}

Status WriteGroundTruthCsv(const Dataset& data, const std::string& path) {
  if (!data.has_ground_truth()) {
    return Status::FailedPrecondition("dataset has no ground truth");
  }
  CRH_FAIL_POINT("csv.open_write");
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  Status status = FailPoints::Instance().Hit("csv.write");
  if (status.ok()) status = WriteGroundTruthCsv(data, out);
  if (status.ok() && !out) status = Status::IOError("write to '" + path + "' failed");
  return status;
}

Result<Dataset> ReadObservationsCsv(const Schema& schema, std::istream& in) {
  // One compact record per row; the Dataset is sized once every object and
  // source has been seen.
  struct Claim {
    uint32_t object, source, property;
    Value value;
  };
  std::vector<Claim> claims;
  std::vector<std::string> objects, sources;
  IdIndex object_index, source_index;
  std::vector<CategoryDict> dicts(schema.num_properties());

  CsvTokenizer tokenizer(in);
  CRH_RETURN_NOT_OK(tokenizer.ReadHeader());
  while (true) {
    auto more = tokenizer.NextRow();
    if (!more.ok()) return more.status();
    if (!*more) break;
    CRH_RETURN_NOT_OK(tokenizer.ExpectFields(4));
    const int m = schema.FindProperty(tokenizer.field(1));
    if (m < 0) {
      return tokenizer.LineError("unknown property '" + std::string(tokenizer.field(1)) +
                                 "'");
    }
    const size_t property = static_cast<size_t>(m);
    const size_t object = object_index.FindOrAdd(tokenizer.field(0), &objects);
    const size_t source = source_index.FindOrAdd(tokenizer.field(2), &sources);
    Result<Value> value = ParseValueCell(tokenizer, schema, property, tokenizer.field(3),
                                         &dicts[property]);
    if (!value.ok()) return value.status();
    claims.push_back({static_cast<uint32_t>(object), static_cast<uint32_t>(source),
                      static_cast<uint32_t>(property), *value});
  }

  Dataset data(schema, std::move(objects), std::move(sources));
  for (size_t m = 0; m < dicts.size(); ++m) data.mutable_dict(m) = std::move(dicts[m]);
  // Row order: a repeated claim keeps its last value.
  for (const Claim& c : claims) data.SetObservation(c.source, c.object, c.property, c.value);
  return data;
}

Result<Dataset> ReadObservationsCsv(const Schema& schema, const std::string& path) {
  CRH_FAIL_POINT("csv.open_read");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  CRH_FAIL_POINT("csv.read");
  return ReadObservationsCsv(schema, in);
}

Status ReadGroundTruthCsv(std::istream& in, Dataset* data) {
  CRH_CHECK_MSG(data != nullptr, "ReadGroundTruthCsv requires a dataset");
  const IdIndex object_index(data->object_ids());

  ValueTable truth(data->num_objects(), data->num_properties());
  CsvTokenizer tokenizer(in);
  CRH_RETURN_NOT_OK(tokenizer.ReadHeader());
  while (true) {
    auto more = tokenizer.NextRow();
    if (!more.ok()) return more.status();
    if (!*more) break;
    CRH_RETURN_NOT_OK(tokenizer.ExpectFields(3));
    const size_t object = object_index.Find(tokenizer.field(0), data->object_ids());
    if (object == IdIndex::kNotFound) {
      return tokenizer.LineError("unknown object '" + std::string(tokenizer.field(0)) + "'");
    }
    const int m = data->schema().FindProperty(tokenizer.field(1));
    if (m < 0) {
      return tokenizer.LineError("unknown property '" + std::string(tokenizer.field(1)) +
                                 "'");
    }
    const size_t property = static_cast<size_t>(m);
    Result<Value> value = ParseValueCell(tokenizer, data->schema(), property,
                                         tokenizer.field(2), &data->mutable_dict(property));
    if (!value.ok()) return value.status();
    truth.Set(object, property, *value);
  }
  data->set_ground_truth(std::move(truth));
  return Status::OK();
}

Status ReadGroundTruthCsv(const std::string& path, Dataset* data) {
  CRH_FAIL_POINT("csv.open_read");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  CRH_FAIL_POINT("csv.read");
  return ReadGroundTruthCsv(in, data);
}

std::vector<std::string> CsvFailPointSites() {
  return {"csv.open_write", "csv.write", "csv.open_read", "csv.read"};
}

}  // namespace crh
