#include "serve/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace crh {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed request: " + what);
}

Status OverLimit(const std::string& what, size_t limit) {
  return Status::OutOfRange("request " + what + " exceeds the limit of " +
                            std::to_string(limit));
}

/// True iff a byte of `word` is '"', '\\' or below 0x20: the bytes that
/// end a plain run inside a JSON string (the classic SWAR zero-byte and
/// less-than tests, applied to all eight bytes at once).
bool HasQuoteEscapeOrControl(uint64_t word) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHighBits = 0x8080808080808080ull;
  const auto has_zero_byte = [](uint64_t v) { return (v - kOnes) & ~v & kHighBits; };
  const uint64_t below_space = (word - kOnes * 0x20) & ~word & kHighBits;
  return (has_zero_byte(word ^ (kOnes * '"')) | has_zero_byte(word ^ (kOnes * '\\')) |
          below_space) != 0;
}

/// Recursive-descent-free parser over a bounded string_view. Every read
/// checks the remaining byte count first, like the checkpoint Cursor.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }

  char Peek() const { return text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      ++pos_;
    }
  }

  Status Expect(char c) {
    if (AtEnd() || text_[pos_] != c) {
      return Malformed(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    CRH_RETURN_NOT_OK(Expect('"'));
    out->clear();
    // The first quote ahead closes the string unless it is escaped, so its
    // distance sizes the string in one allocation in the common case.
    const void* quote = std::memchr(text_.data() + pos_, '"', text_.size() - pos_);
    if (quote != nullptr) {
      out->reserve(std::min(kMaxProtocolStringBytes,
                            static_cast<size_t>(static_cast<const char*>(quote) -
                                                (text_.data() + pos_))));
    }
    while (true) {
      // Plain bytes up to the next quote, escape or control character are
      // appended as one run, with one cap check per run. The run is found
      // eight bytes at a time, then byte by byte.
      const size_t run_begin = pos_;
      while (text_.size() - pos_ >= sizeof(uint64_t)) {
        uint64_t word = 0;
        std::memcpy(&word, text_.data() + pos_, sizeof(word));
        if (HasQuoteEscapeOrControl(word)) break;
        pos_ += sizeof(word);
      }
      while (!AtEnd()) {
        const unsigned char b = static_cast<unsigned char>(text_[pos_]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++pos_;
      }
      if (pos_ - run_begin > kMaxProtocolStringBytes - out->size()) {
        return OverLimit("string", kMaxProtocolStringBytes);
      }
      out->append(text_.data() + run_begin, pos_ - run_begin);
      if (AtEnd()) return Malformed("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') return Malformed("unescaped control character in string");
      if (AtEnd()) return Malformed("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (text_.size() - pos_ < 4) return Malformed("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Malformed("invalid \\u escape digit");
            }
          }
          // Encode the BMP code point as UTF-8. Surrogate pairs (non-BMP)
          // never appear in this protocol's ASCII-oriented traffic and are
          // rejected rather than silently mangled.
          if (code >= 0xd800 && code <= 0xdfff) {
            return Malformed("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0u | (code >> 6)));
            out->push_back(static_cast<char>(0x80u | (code & 0x3fu)));
          } else {
            out->push_back(static_cast<char>(0xe0u | (code >> 12)));
            out->push_back(static_cast<char>(0x80u | ((code >> 6) & 0x3fu)));
            out->push_back(static_cast<char>(0x80u | (code & 0x3fu)));
          }
          break;
        }
        default:
          return Malformed("unknown escape");
      }
      if (out->size() > kMaxProtocolStringBytes) {
        return OverLimit("string", kMaxProtocolStringBytes);
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t begin = pos_;
    if (!AtEnd() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin) return Malformed("expected a number");
    // A bounded copy gives the strto* family its NUL terminator.
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    // "-0" must stay a double: integer parsing would drop the sign bit and
    // break the exact round-trip the serving chaos suite asserts.
    if (token == "-0") integral = false;
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out->kind = JsonValue::Kind::kInt;
        out->int_value = v;
        return Status::OK();
      }
      // Integer overflow: fall through to double semantics.
    }
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      return Malformed("invalid number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kDouble;
    out->double_value = v;
    return Status::OK();
  }

  Status ParseLiteral(std::string_view literal) {
    if (text_.size() - pos_ < literal.size() ||
        text_.substr(pos_, literal.size()) != literal) {
      return Malformed("invalid literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseScalar(JsonValue* out) {
    if (AtEnd()) return Malformed("expected a value");
    const char c = Peek();
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't') {
      CRH_RETURN_NOT_OK(ParseLiteral("true"));
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (c == 'f') {
      CRH_RETURN_NOT_OK(ParseLiteral("false"));
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    if (c == 'n') {
      CRH_RETURN_NOT_OK(ParseLiteral("null"));
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (c == '{' || c == '[') {
      return Malformed("nested objects and arrays are not supported here");
    }
    return ParseNumber(out);
  }

  Status ParseValue(JsonValue* out) {
    if (AtEnd()) return Malformed("expected a value");
    if (Peek() != '[') return ParseScalar(out);
    // One level of array, scalar elements only.
    CRH_RETURN_NOT_OK(Expect('['));
    out->kind = JsonValue::Kind::kArray;
    out->items.clear();
    SkipSpace();
    if (!AtEnd() && Peek() == ']') return Expect(']');
    while (true) {
      SkipSpace();
      JsonValue element;
      CRH_RETURN_NOT_OK(ParseScalar(&element));
      if (out->items.size() == kMaxProtocolArrayItems) {
        return OverLimit("array", kMaxProtocolArrayItems);
      }
      out->items.push_back(std::move(element));
      SkipSpace();
      if (AtEnd()) return Malformed("unterminated array");
      if (Peek() == ',') {
        CRH_RETURN_NOT_OK(Expect(','));
        continue;
      }
      return Expect(']');
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonObject::Find(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

Result<std::string> JsonObject::GetString(const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("request needs a string field '" + key + "'");
  }
  return value->string_value;
}

Result<int64_t> JsonObject::GetInt(const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kInt) {
    return Status::InvalidArgument("request needs an integer field '" + key + "'");
  }
  return value->int_value;
}

Result<uint64_t> JsonObject::GetUint(const std::string& key) const {
  auto value = GetInt(key);
  if (!value.ok()) return value.status();
  if (*value < 0) {
    return Status::InvalidArgument("field '" + key + "' must be >= 0");
  }
  return static_cast<uint64_t>(*value);
}

Result<double> JsonObject::GetDouble(const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument("request needs a number field '" + key + "'");
  }
  if (value->kind == JsonValue::Kind::kInt) {
    return static_cast<double>(value->int_value);
  }
  if (value->kind == JsonValue::Kind::kDouble) return value->double_value;
  return Status::InvalidArgument("field '" + key + "' must be a number");
}

Result<std::vector<double>> JsonObject::GetDoubleArray(const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("expected an array field '" + key + "'");
  }
  std::vector<double> out;
  out.reserve(value->items.size());
  for (const JsonValue& item : value->items) {
    if (item.kind == JsonValue::Kind::kInt) {
      out.push_back(static_cast<double>(item.int_value));
    } else if (item.kind == JsonValue::Kind::kDouble) {
      out.push_back(item.double_value);
    } else {
      return Status::InvalidArgument("array '" + key + "' holds a non-number");
    }
  }
  return out;
}

Result<std::vector<std::string>> JsonObject::GetStringArray(
    const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("expected an array field '" + key + "'");
  }
  std::vector<std::string> out;
  out.reserve(value->items.size());
  for (const JsonValue& item : value->items) {
    if (item.kind != JsonValue::Kind::kString) {
      return Status::InvalidArgument("array '" + key + "' holds a non-string");
    }
    out.push_back(item.string_value);
  }
  return out;
}

Result<JsonObject> ParseJsonObject(std::string_view text, size_t max_bytes) {
  if (text.size() > max_bytes) {
    return Status::InvalidArgument("request exceeds the " +
                                   std::to_string(max_bytes) + "-byte limit");
  }
  JsonCursor cursor(text);
  cursor.SkipSpace();
  CRH_RETURN_NOT_OK(cursor.Expect('{'));
  JsonObject object;
  cursor.SkipSpace();
  if (!cursor.AtEnd() && cursor.Peek() == '}') {
    CRH_RETURN_NOT_OK(cursor.Expect('}'));
  } else {
    while (true) {
      cursor.SkipSpace();
      std::string key;
      CRH_RETURN_NOT_OK(cursor.ParseString(&key));
      cursor.SkipSpace();
      CRH_RETURN_NOT_OK(cursor.Expect(':'));
      cursor.SkipSpace();
      JsonValue value;
      CRH_RETURN_NOT_OK(cursor.ParseValue(&value));
      if (!object.fields.emplace(std::move(key), std::move(value)).second) {
        return Malformed("duplicate key");
      }
      if (object.fields.size() > kMaxProtocolFields) {
        return OverLimit("object field count", kMaxProtocolFields);
      }
      cursor.SkipSpace();
      if (cursor.AtEnd()) return Malformed("unterminated object");
      if (cursor.Peek() == ',') {
        CRH_RETURN_NOT_OK(cursor.Expect(','));
        continue;
      }
      CRH_RETURN_NOT_OK(cursor.Expect('}'));
      break;
    }
  }
  cursor.SkipSpace();
  if (!cursor.AtEnd()) return Malformed("trailing bytes after object");
  return object;
}

void AppendJsonString(std::string* out, std::string_view value) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

void JsonWriter::AddKey(const std::string& key) {
  if (!first_) out_.push_back(',');
  first_ = false;
  AppendJsonString(&out_, key);
  out_.push_back(':');
}

void JsonWriter::AddString(const std::string& key, std::string_view value) {
  AddKey(key);
  AppendJsonString(&out_, value);
}

void JsonWriter::AddInt(const std::string& key, int64_t value) {
  AddKey(key);
  out_.append(std::to_string(value));
}

void JsonWriter::AddUint(const std::string& key, uint64_t value) {
  AddKey(key);
  out_.append(std::to_string(value));
}

void JsonWriter::AddDouble(const std::string& key, double value) {
  AddKey(key);
  AppendJsonDouble(&out_, value);
}

void JsonWriter::AddBool(const std::string& key, bool value) {
  AddKey(key);
  out_.append(value ? "true" : "false");
}

void JsonWriter::AddNull(const std::string& key) {
  AddKey(key);
  out_.append("null");
}

void JsonWriter::AddDoubleArray(const std::string& key,
                                const std::vector<double>& values) {
  AddKey(key);
  out_.push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_.push_back(',');
    AppendJsonDouble(&out_, values[i]);
  }
  out_.push_back(']');
}

void JsonWriter::AddUintArray(const std::string& key,
                              const std::vector<uint64_t>& values) {
  AddKey(key);
  out_.push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_.push_back(',');
    out_.append(std::to_string(values[i]));
  }
  out_.push_back(']');
}

void JsonWriter::AddStringArray(const std::string& key,
                                const std::vector<std::string>& values) {
  AddKey(key);
  out_.push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_.push_back(',');
    AppendJsonString(&out_, values[i]);
  }
  out_.push_back(']');
}

std::string JsonWriter::Finish() && {
  out_.push_back('}');
  return std::move(out_);
}

}  // namespace crh
