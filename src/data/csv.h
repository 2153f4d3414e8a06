#ifndef CRH_DATA_CSV_H_
#define CRH_DATA_CSV_H_

/// \file csv.h
/// CSV import/export of multi-source observation tuples.
///
/// The on-disk format mirrors the tuple stream the paper's parallel CRH
/// consumes (Section 2.7.1): one claim per row,
///
///   object_id,property,source_id,value
///
/// with a header row. Continuous values are decimal literals; categorical
/// values are labels interned into the dataset's per-property dictionary.
/// Ground truth uses the same format minus the source_id column.
///
/// Quoting follows RFC 4180: fields containing commas, quotes or line
/// breaks are written wrapped in double quotes with embedded quotes
/// doubled, and the readers accept such fields. Malformed *content* —
/// wrong field counts, unknown properties, unterminated quotes, overlong
/// lines, non-numeric continuous cells — is rejected with
/// StatusCode::kInvalidArgument; kIOError is reserved for file-system
/// failures (unopenable or unreadable files, failed writes).
///
/// Every entry point has an iostream overload so in-memory data (tests,
/// fuzzing harnesses, network buffers) can skip the filesystem.
///
/// Reading is one pass over the bytes. CsvTokenizer splits lines and
/// fields as string_views into the input (an istream is read in fixed-size
/// blocks); only a quoted field with doubled quotes is copied, into a
/// scratch buffer reused across rows. Each row's value is parsed as the
/// row is read, so the first bad line is the one reported, whatever kind
/// of error it holds. (Earlier readers checked every line's structure
/// before any value, so a malformed line could be reported ahead of a bad
/// number on an earlier line.) The claims CSV the serving layer ingests
/// (serve/chunk_codec.h) goes through the same tokenizer and the same
/// ParseContinuousCell.
///
/// The path-based overloads are fail-point instrumented (see
/// common/fault_injection.h and CsvFailPointSites) so robustness tests can
/// force each file-system failure; callers needing resilience against
/// transient failures wrap them in RetryWithBackoff, as tools/cli.cc does.

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace crh {

/// Rows longer than this are rejected rather than buffered: a missing
/// newline in a multi-gigabyte file must not become an allocation bomb.
inline constexpr size_t kMaxCsvLineBytes = size_t{1} << 20;

/// Parses one continuous cell: the whole field must be one finite decimal
/// literal. std::from_chars takes the fast path; anything it does not
/// consume whole and finite (a leading '+', underflow such as 1e-400) goes
/// to strtod, so the accepted set and every parsed bit are strtod's. Not
/// accepted, unlike plain strtod: leading whitespace, hex ("0x10"),
/// inf/nan, trailing bytes ("1.5abc", "1 "), and overflow ("1e309").
/// Underflow is accepted as strtod returns it (1e-400 reads as 0.0).
[[nodiscard]] bool ParseContinuousCell(std::string_view text, double* out);

/// Splits CSV into rows of fields in one pass. Fields follow RFC 4180
/// quoting: a field starting with a double quote runs to the matching
/// unescaped quote and may contain commas; embedded quotes are doubled
/// (""); quotes inside an unquoted field are literal. Lines end at '\n'
/// with one trailing '\r' stripped, blank lines are skipped, and a line
/// over kMaxCsvLineBytes is an error. Quoted fields cannot span lines.
///
/// Field views point into the input (or the tokenizer's block buffer, or
/// its unquoting scratch) and stay valid until the next NextRow call.
/// Every error is kInvalidArgument and names the line.
class CsvTokenizer {
 public:
  /// Fields kept per row; longer rows are still split (and counted) so
  /// that their quoting is checked, but their tail is not kept.
  static constexpr size_t kMaxFields = 4;

  /// Tokenizes `bytes`, which must outlive the tokenizer.
  explicit CsvTokenizer(std::string_view bytes) : rest_(bytes) {}
  /// Tokenizes `in`, read in fixed-size blocks as rows are consumed.
  explicit CsvTokenizer(std::istream& in) : in_(&in) {}

  CsvTokenizer(const CsvTokenizer&) = delete;
  CsvTokenizer& operator=(const CsvTokenizer&) = delete;

  /// Consumes the header row, whatever it holds. Empty input is an error.
  [[nodiscard]] Status ReadHeader();

  /// Advances to the next non-blank row. Returns false at end of input.
  [[nodiscard]] Result<bool> NextRow();

  /// Number of fields in the current row.
  size_t num_fields() const { return num_fields_; }
  /// Field i of the current row; i < min(num_fields(), kMaxFields).
  std::string_view field(size_t i) const { return fields_[i]; }

  /// OK iff the current row has exactly `count` fields.
  [[nodiscard]] Status ExpectFields(size_t count) const;
  /// kInvalidArgument "line <n>: <what>" for the current line.
  [[nodiscard]] Status LineError(const std::string& what) const;

 private:
  /// Sets `*line` to the next line, CR stripped; false at end of input.
  [[nodiscard]] Result<bool> NextLine(std::string_view* line);
  /// Reads the next block behind the unconsumed bytes; false at EOF.
  bool Refill();
  [[nodiscard]] Status SplitFields(std::string_view line);
  /// Parses the quoted field starting at line[*pos]; advances *pos past it.
  [[nodiscard]] Status Unquote(std::string_view line, size_t* pos, std::string_view* field);

  std::istream* in_ = nullptr;  ///< Null for an in-memory input.
  std::string block_;           ///< Stream input: the buffer rest_ views.
  std::string_view rest_;       ///< Unconsumed input bytes.
  std::string scratch_;         ///< Unquoted fields of the current row.
  std::array<std::string_view, kMaxFields> fields_{};
  size_t num_fields_ = 0;
  size_t line_no_ = 0;
};

/// Writes all non-missing observations of \p data as claim tuples.
[[nodiscard]] Status WriteObservationsCsv(const Dataset& data, const std::string& path);
[[nodiscard]] Status WriteObservationsCsv(const Dataset& data, std::ostream& out);

/// Writes the labeled ground-truth entries of \p data (requires ground truth).
[[nodiscard]] Status WriteGroundTruthCsv(const Dataset& data, const std::string& path);
[[nodiscard]] Status WriteGroundTruthCsv(const Dataset& data, std::ostream& out);

/// Reads claim tuples into a new Dataset with the given schema. Objects and
/// sources are created in order of first appearance; categorical labels are
/// interned per property in order of first appearance; a repeated claim
/// keeps its last value. Rows naming a property absent from the schema are
/// an error.
[[nodiscard]] Result<Dataset> ReadObservationsCsv(const Schema& schema, const std::string& path);
[[nodiscard]] Result<Dataset> ReadObservationsCsv(const Schema& schema, std::istream& in);

/// Reads ground-truth rows (object_id,property,value) into \p data. Objects
/// named here must already exist in the dataset.
[[nodiscard]] Status ReadGroundTruthCsv(const std::string& path, Dataset* data);
[[nodiscard]] Status ReadGroundTruthCsv(std::istream& in, Dataset* data);

/// Every fail-point site the path-based CSV entry points can hit, for
/// exhaustive fault-injection sweeps.
std::vector<std::string> CsvFailPointSites();

}  // namespace crh

#endif  // CRH_DATA_CSV_H_
