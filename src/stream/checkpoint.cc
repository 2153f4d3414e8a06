#include "stream/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "stream/stream_engine.h"

namespace crh {

namespace {

constexpr char kMagic[8] = {'C', 'R', 'H', 'C', 'K', 'P', 'T', '1'};
constexpr char kJournalMagic[8] = {'C', 'R', 'H', 'J', 'R', 'N', 'L', '1'};
constexpr size_t kJournalHeaderBytes = sizeof(kJournalMagic) + 4;

// ---------------------------------------------------------------------------
// Little-endian byte string encoding.

void AppendBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void AppendU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  out->append(bytes, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  out->append(bytes, 8);
}

void AppendF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendI64(std::string* out, int64_t v) { AppendU64(out, static_cast<uint64_t>(v)); }

void AppendI32(std::string* out, int32_t v) { AppendU32(out, static_cast<uint32_t>(v)); }

/// One tagged truth cell: u8 tag (0 missing, 1 continuous, 2 categorical)
/// and its payload.
void AppendCell(std::string* out, const Value& v) {
  if (v.is_missing()) {
    AppendU8(out, 0);
  } else if (v.is_continuous()) {
    AppendU8(out, 1);
    AppendF64(out, v.continuous());
  } else {
    AppendU8(out, 2);
    AppendI32(out, v.category());
  }
}

uint64_t CellBytes(const Value& v) {
  return v.is_missing() ? 1 : v.is_continuous() ? 9 : 5;
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

// ---------------------------------------------------------------------------
// Bounds-checked little-endian decoding. Every read validates the remaining
// byte count first, so arbitrary (fuzzed) inputs can never read out of
// bounds; size headers are validated against the bytes that would have to
// follow them before anything is allocated, so a hostile header cannot
// trigger an over-allocation either.

Status Truncated() { return Status::InvalidArgument("checkpoint is truncated"); }

class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated();
    pos_ += n;
    return Status::OK();
  }

  Status ReadBytes(void* out, size_t n) {
    if (remaining() < n) return Truncated();
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) { return ReadBytes(v, 1); }

  Status ReadU32(uint32_t* v) {
    uint8_t bytes[4];
    CRH_RETURN_NOT_OK(ReadBytes(bytes, 4));
    *v = 0;
    for (int i = 3; i >= 0; --i) *v = (*v << 8) | bytes[i];
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    uint8_t bytes[8];
    CRH_RETURN_NOT_OK(ReadBytes(bytes, 8));
    *v = 0;
    for (int i = 7; i >= 0; --i) *v = (*v << 8) | bytes[i];
    return Status::OK();
  }

  Status ReadF64(double* v) {
    uint64_t bits = 0;
    CRH_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status ReadI64(int64_t* v) {
    uint64_t bits = 0;
    CRH_RETURN_NOT_OK(ReadU64(&bits));
    *v = static_cast<int64_t>(bits);
    return Status::OK();
  }

  Status ReadI32(int32_t* v) {
    uint32_t bits = 0;
    CRH_RETURN_NOT_OK(ReadU32(&bits));
    *v = static_cast<int32_t>(bits);
    return Status::OK();
  }

  /// A cell written by AppendCell.
  Status ReadCell(Value* v) {
    uint8_t tag = 0;
    CRH_RETURN_NOT_OK(ReadU8(&tag));
    if (tag == 0) {
      *v = Value::Missing();
    } else if (tag == 1) {
      double d = 0;
      CRH_RETURN_NOT_OK(ReadF64(&d));
      *v = Value::Continuous(d);
    } else if (tag == 2) {
      int32_t id = 0;
      CRH_RETURN_NOT_OK(ReadI32(&id));
      *v = Value::Categorical(id);
    } else {
      return Status::InvalidArgument("checkpoint holds an invalid value tag");
    }
    return Status::OK();
  }

  /// K f64 weights, K f64 accumulators and K u64 quarantine counters, K
  /// read first.
  Status ReadProcessorVectors(IncrementalCrhState* state) {
    uint64_t num_sources = 0;
    CRH_RETURN_NOT_OK(ReadU64(&num_sources));
    if (num_sources > remaining() / 24) return Truncated();
    state->weights.resize(num_sources);
    state->accumulated.resize(num_sources);
    state->quarantined_per_source.resize(num_sources);
    for (double& w : state->weights) CRH_RETURN_NOT_OK(ReadF64(&w));
    for (double& a : state->accumulated) CRH_RETURN_NOT_OK(ReadF64(&a));
    for (uint64_t& q : state->quarantined_per_source) CRH_RETURN_NOT_OK(ReadU64(&q));
    return Status::OK();
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Fingerprinting (FNV-1a folded through Mix64).

class Fingerprinter {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) hash_ = (hash_ ^ bytes[i]) * 0x100000001b3u;
  }

  void AddU64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffu);
    Add(bytes, 8);
  }

  void AddF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }

  void AddString(const std::string& s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }

  uint64_t Finish() const { return Mix64(hash_); }

 private:
  uint64_t hash_ = 0xcbf29ce484222325u;
};

// ---------------------------------------------------------------------------
// File naming and fail-point-instrumented I/O.

std::string GenerationFileName(uint64_t generation, const char* suffix = ".crhckpt") {
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%020llu%s", static_cast<unsigned long long>(generation),
                suffix);
  return name;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

bool ParseGenerationFileName(const std::string& name, uint64_t* generation) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".crhckpt";
  constexpr size_t kDigits = 20;
  if (name.size() != kPrefix.size() + kDigits + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) return false;
  uint64_t g = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + kDigits; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    g = g * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = g;
  return true;
}

/// Writes `bytes` to `file` (when `status` is still OK), flushes it and
/// closes it: the tail every checkpoint write shares. The file is closed
/// unconditionally (no descriptor leak on an injected failure), and a close
/// error fails the write, since a buffered write may only surface its error
/// there. Returns the first failure.
Status WriteAndClose(std::FILE* file, const std::string& path, std::string_view bytes,
                     Status status) {
  if (status.ok()) {
    // HitWrite (not Hit) so tests can also inject a *silent* short write:
    // only a prefix reaches the disk yet every return code reports success,
    // and nothing but the CRC on load can tell the tail was lost — the
    // torn-tail case resume must survive.
    const WriteFault fault = FailPoints::Instance().HitWrite("checkpoint.fwrite");
    status = fault.status;
    const size_t to_write =
        fault.truncate_to ? std::min(static_cast<size_t>(*fault.truncate_to), bytes.size())
                          : bytes.size();
    if (status.ok() && to_write > 0 &&
        std::fwrite(bytes.data(), 1, to_write, file) != to_write) {
      status = Status::IOError("short write to '" + path + "'");
    }
  }
  if (status.ok()) {
    status = FailPoints::Instance().Hit("checkpoint.fflush");
    if (status.ok() && std::fflush(file) != 0) {
      status = Status::IOError("cannot flush '" + path + "'");
    }
  }
  if (file != nullptr) {
    Status close_status = FailPoints::Instance().Hit("checkpoint.fclose");
    if (std::fclose(file) != 0 && close_status.ok()) {
      close_status = Status::IOError("cannot close '" + path + "'");
    }
    if (status.ok()) status = close_status;
  }
  return status;
}

/// Writes `bytes` to `tmp_path` and renames it onto `final_path`. Every
/// return value is checked; on any failure (including injected ones) the
/// temp file is removed, so a failed save never leaves a torn artifact.
Status WriteFileAtomic(const std::string& tmp_path, const std::string& final_path,
                       const std::string& bytes) {
  Status status = FailPoints::Instance().Hit("checkpoint.open_write");
  std::FILE* file = nullptr;
  if (status.ok()) {
    file = std::fopen(tmp_path.c_str(), "wb");
    if (file == nullptr) {
      status = Status::IOError("cannot open '" + tmp_path + "' for writing");
    }
  }
  status = WriteAndClose(file, tmp_path, bytes, status);
  if (status.ok()) {
    status = FailPoints::Instance().Hit("checkpoint.rename");
    if (status.ok() && std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
      status = Status::IOError("cannot rename '" + tmp_path + "' to '" + final_path + "'");
    }
  }
  if (!status.ok()) {
    // Best effort: the temp file may not exist if the failure was the open.
    (void)std::remove(tmp_path.c_str());
  }
  return status;
}

/// Reads a whole file. NotFound when it does not exist (a generation
/// written before journals, or one whose journal was never started).
Status ReadFileWithFailPoints(const std::string& path, std::string* out) {
  out->clear();
  Status status = FailPoints::Instance().Hit("checkpoint.open_read");
  std::FILE* file = nullptr;
  if (status.ok()) {
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      status = errno == ENOENT ? Status::NotFound("'" + path + "' does not exist")
                               : Status::IOError("cannot open '" + path + "' for reading");
    }
  }
  if (status.ok()) {
    char buffer[1 << 13];
    for (;;) {
      status = FailPoints::Instance().Hit("checkpoint.fread");
      if (!status.ok()) break;
      const size_t n = std::fread(buffer, 1, sizeof(buffer), file);
      out->append(buffer, n);
      if (n < sizeof(buffer)) {
        if (std::ferror(file) != 0) status = Status::IOError("read error on '" + path + "'");
        break;
      }
    }
  }
  if (file != nullptr && std::fclose(file) != 0 && status.ok()) {
    status = Status::IOError("cannot close '" + path + "'");
  }
  if (!status.ok()) out->clear();
  return status;
}

/// Removes a file that may not exist; only other failures are errors.
Status RemoveIfPresent(const std::string& path) {
  CRH_RETURN_NOT_OK(FailPoints::Instance().Hit("checkpoint.remove"));
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("cannot remove old checkpoint '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

uint64_t CheckpointFingerprint(const IncrementalCrhOptions& options, size_t num_sources,
                               const Dataset* data) {
  Fingerprinter fp;
  fp.AddU64(kCheckpointFormatVersion);
  fp.AddF64(options.decay);
  fp.AddU64(static_cast<uint64_t>(options.window_size));
  fp.AddU64(options.quarantine_bad_claims ? 1 : 0);
  const CrhOptions& base = options.base;
  fp.AddU64(static_cast<uint64_t>(base.categorical_model));
  fp.AddU64(static_cast<uint64_t>(base.continuous_model));
  fp.AddU64(static_cast<uint64_t>(base.weight_scheme.kind));
  fp.AddU64(static_cast<uint64_t>(base.weight_scheme.top_j));
  fp.AddF64(base.weight_scheme.epsilon_ratio);
  fp.AddU64(static_cast<uint64_t>(base.property_normalization));
  fp.AddU64(base.normalize_by_observation_count ? 1 : 0);
  fp.AddU64(static_cast<uint64_t>(base.weight_granularity));
  fp.AddU64(base.supervision != nullptr ? 1 : 0);
  fp.AddU64(num_sources);
  if (data != nullptr) {
    fp.AddU64(data->num_objects());
    fp.AddU64(data->num_properties());
    for (size_t m = 0; m < data->num_properties(); ++m) {
      const Property& property = data->schema().property(m);
      fp.AddString(property.name);
      fp.AddU64(static_cast<uint64_t>(property.type));
      fp.AddF64(property.rounding_unit);
    }
    for (size_t k = 0; k < data->num_sources(); ++k) fp.AddString(data->source_id(k));
  }
  // Appended only for cumulatively re-solved (kFull) runs, so fingerprints
  // of legacy (kOff) runs are unchanged by the field's introduction. The
  // tag is the one the retired dirty-set delta modes wrote too (their
  // tables were bit-identical to kFull's), so their checkpoints resume
  // under kFull — but never under the per-chunk patchwork semantics of
  // kOff.
  if (options.delta_solve != DeltaSolveMode::kOff) fp.AddU64(0x64656c7461u);  // "delta"
  return fp.Finish();
}

CheckpointView ViewOf(const CheckpointState& state) {
  CheckpointView view;
  view.fingerprint = state.fingerprint;
  view.processor = &state.processor;
  if (state.has_driver_state) {
    view.truths = &state.truths;
    view.weight_history = &state.weight_history;
    view.chunk_starts = &state.chunk_starts;
  }
  return view;
}

namespace {

/// The fields image and record share: K, then weights, accumulators and
/// quarantine counters.
void AppendProcessorVectors(std::string* out, const IncrementalCrhState& processor) {
  const size_t num_sources = processor.weights.size();
  CRH_CHECK_EQ(processor.accumulated.size(), num_sources);
  CRH_CHECK_EQ(processor.quarantined_per_source.size(), num_sources);
  AppendU64(out, num_sources);
  for (double w : processor.weights) AppendF64(out, w);
  for (double a : processor.accumulated) AppendF64(out, a);
  for (uint64_t q : processor.quarantined_per_source) AppendU64(out, q);
}

/// Checks the driver section's invariants: one history row of K weights
/// and one chunk start per processed chunk.
void CheckDriverSection(const CheckpointView& view) {
  CRH_CHECK(view.weight_history != nullptr && view.chunk_starts != nullptr);
  CRH_CHECK_EQ(view.weight_history->size(), view.processor->chunks_processed);
  CRH_CHECK_EQ(view.chunk_starts->size(), view.weight_history->size());
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointView& view) {
  std::string out;
  out.reserve(EncodedCheckpointBytes(view));
  AppendBytes(&out, kMagic, sizeof(kMagic));
  AppendU32(&out, kCheckpointFormatVersion);
  AppendU64(&out, view.fingerprint);
  AppendU64(&out, view.processor->chunks_processed);
  AppendProcessorVectors(&out, *view.processor);
  AppendU8(&out, view.truths != nullptr ? 1 : 0);
  if (view.truths != nullptr) {
    CheckDriverSection(view);
    AppendU64(&out, view.truths->num_objects());
    AppendU64(&out, view.truths->num_properties());
    for (const Value& v : view.truths->cells()) AppendCell(&out, v);
    AppendU64(&out, view.weight_history->size());
    for (const std::vector<double>& row : *view.weight_history) {
      CRH_CHECK_EQ(row.size(), view.processor->weights.size());
      for (double w : row) AppendF64(&out, w);
    }
    AppendU64(&out, view.chunk_starts->size());
    for (int64_t start : *view.chunk_starts) AppendI64(&out, start);
  }
  AppendU32(&out, Crc32(out.data(), out.size()));
  return out;
}

uint64_t EncodedCheckpointBytes(const CheckpointView& view) {
  const uint64_t num_sources = view.processor->weights.size();
  uint64_t bytes = sizeof(kMagic) + 4 + 8 + 8 + 8 + 24 * num_sources + 1 + 4;
  if (view.truths != nullptr) {
    bytes += 16 + 8 + 8;
    for (const Value& v : view.truths->cells()) bytes += CellBytes(v);
    bytes += view.weight_history->size() * (8 * num_sources + 8);
  }
  return bytes;
}

Result<CheckpointState> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 4) {
    return Status::InvalidArgument("checkpoint is too short");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint file (bad magic)");
  }
  // The trailing CRC covers every preceding byte; a mismatch means a torn
  // or corrupted file and rejects it before any field is trusted.
  const size_t body_size = bytes.size() - 4;
  if (LoadU32(bytes.data() + body_size) != Crc32(bytes.data(), body_size)) {
    return Status::InvalidArgument("checkpoint checksum mismatch (torn or corrupted file)");
  }
  Cursor cursor(bytes.substr(0, body_size));
  CRH_RETURN_NOT_OK(cursor.Skip(sizeof(kMagic)));
  uint32_t version = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU32(&version));
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint format version " +
                                   std::to_string(version));
  }
  CheckpointState state;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&state.fingerprint));
  CRH_RETURN_NOT_OK(cursor.ReadU64(&state.processor.chunks_processed));
  CRH_RETURN_NOT_OK(cursor.ReadProcessorVectors(&state.processor));
  const uint64_t num_sources = state.processor.weights.size();
  uint8_t driver_flag = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU8(&driver_flag));
  if (driver_flag > 1) {
    return Status::InvalidArgument("checkpoint holds an invalid driver-section flag");
  }
  state.has_driver_state = driver_flag == 1;
  if (state.has_driver_state) {
    uint64_t num_objects = 0;
    uint64_t num_properties = 0;
    CRH_RETURN_NOT_OK(cursor.ReadU64(&num_objects));
    CRH_RETURN_NOT_OK(cursor.ReadU64(&num_properties));
    if (num_properties != 0 && num_objects > cursor.remaining() / num_properties) {
      return Truncated();  // each cell takes at least its one tag byte
    }
    state.truths = ValueTable(num_objects, num_properties);
    for (size_t i = 0; i < num_objects; ++i) {
      for (size_t m = 0; m < num_properties; ++m) {
        Value v;
        CRH_RETURN_NOT_OK(cursor.ReadCell(&v));
        state.truths.Set(i, m, v);
      }
    }
    uint64_t rows = 0;
    CRH_RETURN_NOT_OK(cursor.ReadU64(&rows));
    if (rows != state.processor.chunks_processed) {
      return Status::InvalidArgument(
          "checkpoint weight history length does not match chunks processed");
    }
    if (rows > cursor.remaining() / (8 * std::max<uint64_t>(num_sources, 1))) {
      return Truncated();
    }
    state.weight_history.resize(rows);
    for (std::vector<double>& row : state.weight_history) {
      row.resize(num_sources);
      for (double& w : row) CRH_RETURN_NOT_OK(cursor.ReadF64(&w));
    }
    uint64_t num_starts = 0;
    CRH_RETURN_NOT_OK(cursor.ReadU64(&num_starts));
    if (num_starts != rows) {
      return Status::InvalidArgument(
          "checkpoint chunk-start list length does not match the weight history");
    }
    if (num_starts > cursor.remaining() / 8) return Truncated();
    state.chunk_starts.resize(num_starts);
    for (int64_t& start : state.chunk_starts) CRH_RETURN_NOT_OK(cursor.ReadI64(&start));
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument("checkpoint has trailing bytes");
  }
  return state;
}

// ---------------------------------------------------------------------------
// Journal records.

std::string EncodeJournalHeader(uint32_t image_crc) {
  std::string out(kJournalMagic, sizeof(kJournalMagic));
  AppendU32(&out, image_crc);
  return out;
}

std::string EncodeJournalRecord(const CheckpointView& view, uint64_t first_new_chunk,
                                const std::vector<size_t>* rows) {
  CRH_CHECK(view.truths != nullptr);
  CheckDriverSection(view);
  const uint64_t chunks = view.processor->chunks_processed;
  CRH_CHECK_LE(first_new_chunk, chunks);
  const ValueTable& truths = *view.truths;
  const size_t num_properties = truths.num_properties();
  const size_t num_rows = rows != nullptr ? rows->size() : truths.num_objects();
  std::string out;
  AppendU32(&out, 0);  // payload length, patched below
  AppendU64(&out, chunks);
  AppendProcessorVectors(&out, *view.processor);
  AppendU64(&out, chunks - first_new_chunk);
  for (uint64_t c = first_new_chunk; c < chunks; ++c) {
    AppendI64(&out, (*view.chunk_starts)[c]);
    for (double w : (*view.weight_history)[c]) AppendF64(&out, w);
  }
  AppendU64(&out, num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t row = rows != nullptr ? (*rows)[r] : r;
    AppendU64(&out, row);
    for (size_t m = 0; m < num_properties; ++m) AppendCell(&out, truths.Get(row, m));
  }
  const uint64_t payload = out.size() - 4;
  CRH_CHECK_LE(payload, uint64_t{UINT32_MAX});
  for (size_t i = 0; i < 4; ++i) out[i] = static_cast<char>((payload >> (8 * i)) & 0xffu);
  AppendU32(&out, Crc32(out.data(), out.size()));
  return out;
}

namespace {

/// One decoded record, held whole so a bad field rejects it before any
/// of it reaches the state.
struct JournalRecord {
  IncrementalCrhState processor;
  std::vector<int64_t> chunk_starts;
  std::vector<std::vector<double>> weight_rows;
  std::vector<uint64_t> rows;
  std::vector<Value> cells;
};

Status DecodeJournalRecord(std::string_view payload, const CheckpointState& state,
                           JournalRecord* record) {
  Cursor cursor(payload);
  CRH_RETURN_NOT_OK(cursor.ReadU64(&record->processor.chunks_processed));
  CRH_RETURN_NOT_OK(cursor.ReadProcessorVectors(&record->processor));
  const size_t num_sources = state.processor.weights.size();
  if (record->processor.weights.size() != num_sources) {
    return Status::InvalidArgument("journal record has a different source count");
  }
  uint64_t new_chunks = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&new_chunks));
  if (state.processor.chunks_processed + new_chunks != record->processor.chunks_processed) {
    return Status::InvalidArgument("journal record does not continue the weight history");
  }
  if (new_chunks > cursor.remaining() / (8 * (num_sources + 1))) return Truncated();
  record->chunk_starts.resize(new_chunks);
  record->weight_rows.resize(new_chunks);
  for (uint64_t c = 0; c < new_chunks; ++c) {
    CRH_RETURN_NOT_OK(cursor.ReadI64(&record->chunk_starts[c]));
    record->weight_rows[c].resize(num_sources);
    for (double& w : record->weight_rows[c]) CRH_RETURN_NOT_OK(cursor.ReadF64(&w));
  }
  uint64_t num_rows = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&num_rows));
  const size_t num_properties = state.truths.num_properties();
  // Each row takes its u64 index and at least one tag byte per cell.
  if (num_rows > cursor.remaining() / (8 + num_properties)) return Truncated();
  record->rows.resize(num_rows);
  record->cells.resize(num_rows * num_properties);
  for (uint64_t r = 0; r < num_rows; ++r) {
    CRH_RETURN_NOT_OK(cursor.ReadU64(&record->rows[r]));
    if (record->rows[r] >= state.truths.num_objects()) {
      return Status::InvalidArgument("journal record names a row outside the truth table");
    }
    for (size_t m = 0; m < num_properties; ++m) {
      CRH_RETURN_NOT_OK(cursor.ReadCell(&record->cells[r * num_properties + m]));
    }
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument("journal record has trailing bytes");
  }
  return Status::OK();
}

void ApplyRecord(JournalRecord&& record, CheckpointState* state) {
  const size_t num_properties = state->truths.num_properties();
  for (size_t r = 0; r < record.rows.size(); ++r) {
    for (size_t m = 0; m < num_properties; ++m) {
      state->truths.Set(record.rows[r], m, record.cells[r * num_properties + m]);
    }
  }
  for (size_t c = 0; c < record.weight_rows.size(); ++c) {
    state->weight_history.push_back(std::move(record.weight_rows[c]));
    state->chunk_starts.push_back(record.chunk_starts[c]);
  }
  state->processor = std::move(record.processor);
}

}  // namespace

JournalReplay ApplyJournal(std::string_view journal, uint32_t image_crc,
                           CheckpointState* state) {
  JournalReplay replay;
  if (journal.size() < kJournalHeaderBytes ||
      journal.substr(0, kJournalHeaderBytes) != EncodeJournalHeader(image_crc)) {
    replay.stopped = Status::InvalidArgument("journal header is torn or names another image");
    return replay;
  }
  if (!state->has_driver_state) {
    replay.stopped = Status::InvalidArgument("journal extends an image with no driver section");
    return replay;
  }
  size_t pos = kJournalHeaderBytes;
  while (pos < journal.size()) {
    const std::string_view rest = journal.substr(pos);
    // The length is checked against the bytes present before anything is
    // allocated, so a hostile header cannot trigger an over-allocation.
    if (rest.size() < 8 || LoadU32(rest.data()) > rest.size() - 8) {
      replay.stopped = Status::InvalidArgument("journal record " +
                                               std::to_string(replay.records) + " is torn");
      return replay;
    }
    const size_t payload = LoadU32(rest.data());
    if (LoadU32(rest.data() + 4 + payload) != Crc32(rest.data(), 4 + payload)) {
      replay.stopped = Status::InvalidArgument("journal record " +
                                               std::to_string(replay.records) +
                                               " checksum mismatch (torn or corrupted)");
      return replay;
    }
    JournalRecord record;
    replay.stopped = DecodeJournalRecord(rest.substr(4, payload), *state, &record);
    if (!replay.stopped.ok()) return replay;
    ApplyRecord(std::move(record), state);
    ++replay.records;
    pos += 8 + payload;
  }
  return replay;
}

// ---------------------------------------------------------------------------
// CheckpointManager.

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options)) {
  CRH_CHECK_GE(options_.keep_generations, 1);
}

Status CheckpointManager::EnsureScanned() {
  {
    const MutexLock lock(&mu_);
    if (scanned_) return Status::OK();
  }
  // The filesystem scan runs unlocked: it evaluates fail points and touches
  // the disk, neither of which may happen under mu_. Racing scanners compute
  // the same answer; the first to finish publishes it.
  CRH_RETURN_NOT_OK(FailPoints::Instance().Hit("checkpoint.create_dir"));
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory '" + options_.dir +
                           "': " + ec.message());
  }
  auto generations = ListGenerations();
  if (!generations.ok()) return generations.status();
  const uint64_t next = generations->empty() ? 0 : generations->back() + 1;
  const MutexLock lock(&mu_);
  if (!scanned_) {
    next_generation_ = next;
    scanned_ = true;
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> CheckpointManager::ListGenerations() const {
  CRH_RETURN_NOT_OK(FailPoints::Instance().Hit("checkpoint.list"));
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  const std::filesystem::directory_iterator end;
  if (ec) {
    return Status::IOError("cannot list checkpoint directory '" + options_.dir +
                           "': " + ec.message());
  }
  std::vector<uint64_t> generations;
  while (it != end) {
    uint64_t generation = 0;
    if (ParseGenerationFileName(it->path().filename().string(), &generation)) {
      generations.push_back(generation);
    }
    it.increment(ec);
    if (ec) {
      return Status::IOError("cannot list checkpoint directory '" + options_.dir +
                             "': " + ec.message());
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

Status CheckpointManager::Save(const CheckpointState& state) {
  return SaveImage(EncodeCheckpoint(state), state.processor.chunks_processed);
}

Status CheckpointManager::SaveImage(const std::string& image, uint64_t chunks) {
  CRH_RETURN_NOT_OK(EnsureScanned());
  // Reserve a generation number under the lock, then write it out with the
  // lock released: concurrent savers get distinct files and never hold mu_
  // across retries, fail points, or the disk.
  uint64_t generation = 0;
  {
    const MutexLock lock(&mu_);
    generation = next_generation_++;
  }
  const std::string final_path = JoinPath(options_.dir, GenerationFileName(generation));
  const std::string tmp_path = final_path + ".tmp";
  CRH_RETURN_NOT_OK(RetryWithBackoff(options_.retry, "checkpoint save", [&] {
    return WriteFileAtomic(tmp_path, final_path, image);
  }));
  {
    // The newest image owns the journal; a slower concurrent saver of an
    // older generation must not take it back.
    const MutexLock lock(&mu_);
    if (!journal_ || journal_->generation < generation) {
      journal_ = OpenJournal{generation, image.size(), LoadU32(image.data() + image.size() - 4),
                             0, chunks};
    }
  }
  // Prune generations (image and journal) beyond keep_generations. The new
  // checkpoint is already durable at this point, so a prune failure
  // reports an error but never loses state; the remaining candidates are
  // still attempted.
  auto generations = ListGenerations();
  if (!generations.ok()) return generations.status();
  Status prune_status = Status::OK();
  const size_t keep = static_cast<size_t>(options_.keep_generations);
  for (size_t i = 0; i + keep < generations->size(); ++i) {
    for (const char* suffix : {".crhckpt", ".crhjrnl"}) {
      const std::string path =
          JoinPath(options_.dir, GenerationFileName((*generations)[i], suffix));
      const Status removed = RemoveIfPresent(path);
      if (prune_status.ok()) prune_status = removed;
    }
  }
  return prune_status;
}

Status CheckpointManager::Checkpoint(const CheckpointView& view,
                                     const std::vector<size_t>* rows) {
  std::optional<OpenJournal> journal;
  {
    const MutexLock lock(&mu_);
    journal = journal_;
  }
  // Compaction rule: append while the journal is smaller than the image a
  // compaction would write now. The cheap test against the last image
  // gates the O(N*M) size count, so it runs only near a compaction.
  const bool append = journal && (journal->bytes < journal->image_bytes ||
                                  journal->bytes < EncodedCheckpointBytes(view));
  if (append && Append(*journal, EncodeJournalRecord(view, journal->chunks, rows),
                       view.processor->chunks_processed)
                    .ok()) {
    return Status::OK();
  }
  // No journal yet, a full one, or a failed append (which closed it): the
  // state goes into a new generation instead.
  return SaveImage(EncodeCheckpoint(view), view.processor->chunks_processed);
}

Status CheckpointManager::Append(const OpenJournal& journal, const std::string& record,
                                 uint64_t chunks) {
  const std::string path =
      JoinPath(options_.dir, GenerationFileName(journal.generation, ".crhjrnl"));
  const bool fresh = journal.bytes == 0;
  const std::string bytes = fresh ? EncodeJournalHeader(journal.image_crc) + record : record;
  Status status = FailPoints::Instance().Hit("checkpoint.journal_open");
  std::FILE* file = nullptr;
  if (status.ok()) {
    file = std::fopen(path.c_str(), fresh ? "wb" : "r+b");
    if (file == nullptr) status = Status::IOError("cannot open '" + path + "' for appending");
  }
  // The journal must end where the last append left it: a record written
  // behind a torn one (a silent short write) would never be replayed.
  if (status.ok() && !fresh &&
      (std::fseek(file, 0, SEEK_END) != 0 ||
       std::ftell(file) != static_cast<long>(journal.bytes))) {
    status = Status::IOError("journal '" + path + "' does not end where the last append left it");
  }
  status = WriteAndClose(file, path, bytes, status);
  const MutexLock lock(&mu_);
  if (journal_ && journal_->generation == journal.generation) {
    if (status.ok()) {
      journal_->bytes += bytes.size();
      journal_->chunks = chunks;
    } else {
      journal_.reset();  // its tail is suspect: the next checkpoint is an image
    }
  }
  return status;
}

Result<CheckpointState> CheckpointManager::LoadLatest(uint64_t expected_fingerprint,
                                                      CheckpointLoadReport* report) {
  auto generations = ListGenerations();
  if (!generations.ok()) return generations.status();
  CheckpointLoadReport local;
  for (size_t idx = generations->size(); idx-- > 0;) {
    const uint64_t generation = (*generations)[idx];
    const std::string path = JoinPath(options_.dir, GenerationFileName(generation));
    std::string bytes;
    Status status = ReadFileWithFailPoints(path, &bytes);
    if (status.ok()) {
      auto decoded = DecodeCheckpoint(bytes);
      if (decoded.ok() && decoded->fingerprint == expected_fingerprint) {
        // The image is good; its journal contributes its valid prefix.
        CheckpointState state = std::move(decoded).ValueOrDie();
        const std::string journal_path =
            JoinPath(options_.dir, GenerationFileName(generation, ".crhjrnl"));
        std::string journal;
        Status read = ReadFileWithFailPoints(journal_path, &journal);
        if (read.ok() && !journal.empty()) {
          read = ApplyJournal(journal, LoadU32(bytes.data() + bytes.size() - 4), &state).stopped;
        }
        if (!read.ok() && read.code() != StatusCode::kNotFound) {
          local.rejected.push_back(journal_path + ": " + read.message());
        }
        local.generation = generation;
        local.fell_back = !local.rejected.empty();
        if (report != nullptr) *report = std::move(local);
        return state;
      }
      status = decoded.ok() ? Status::FailedPrecondition(
                                  "fingerprint mismatch (written with different options or data)")
                            : decoded.status();
    }
    local.rejected.push_back(path + ": " + status.message());
  }
  std::string message = "no loadable checkpoint in '" + options_.dir + "'";
  for (const std::string& reason : local.rejected) message += "; " + reason;
  if (report != nullptr) *report = std::move(local);
  return Status::NotFound(message);
}

std::vector<std::string> CheckpointFailPointSites() {
  return {"checkpoint.list",      "checkpoint.open_write",   "checkpoint.fwrite",
          "checkpoint.fflush",    "checkpoint.fclose",       "checkpoint.rename",
          "checkpoint.remove",    "checkpoint.open_read",    "checkpoint.fread",
          "checkpoint.create_dir", "checkpoint.journal_open"};
}

std::vector<std::string> StreamFailPointSites() {
  return {"stream.process_chunk"};
}

// ---------------------------------------------------------------------------
// Streaming drivers. RunIncrementalCrh, RunIncrementalCrhResilient and the
// crh_serve daemon all drive the same StreamEngine (stream/stream_engine.h)
// one chunk at a time, so their results are bit-identical by construction;
// the plain driver is the resilient one with checkpointing disabled.

Result<IncrementalCrhResult> RunIncrementalCrhResilient(
    const Dataset& data, const IncrementalCrhOptions& options,
    const StreamResilienceOptions& resilience) {
  auto engine = StreamEngine::Open(data, options, resilience);
  if (!engine.ok()) return engine.status();
  auto chunks = SplitByWindow(data, options.window_size);
  if (!chunks.ok()) return chunks.status();
  if ((*engine)->chunks_resumed() > chunks->size()) {
    return Status::FailedPrecondition("checkpoint covers more chunks than the dataset");
  }
  // Replay every chunk from the start: the engine absorbs the ones its
  // checkpoint already covers and solves the rest. The final chunk always
  // forces a checkpoint (cadence-independent durability of the end state).
  for (size_t c = 0; c < chunks->size(); ++c) {
    const bool last = c + 1 == chunks->size();
    CRH_RETURN_NOT_OK((*engine)->ApplyChunk((*chunks)[c], /*force_checkpoint=*/last));
  }
  return std::move(**engine).Finish();
}

Result<IncrementalCrhResult> RunIncrementalCrh(const Dataset& data,
                                               const IncrementalCrhOptions& options) {
  return RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
}

}  // namespace crh
