#include "stream/checkpoint.h"

#include <algorithm>
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

std::string GenerationFileName(uint64_t generation) {
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%020llu.crhckpt",
                static_cast<unsigned long long>(generation));
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
  if (status.ok()) {
    // HitWrite (not Hit) so tests can also inject a *silent* short write:
    // only a prefix reaches the disk yet every return code reports success,
    // the rename lands, and nothing but the CRC on load can tell the tail
    // was lost — the torn-tail case newest-first fallback must survive.
    const WriteFault fault = FailPoints::Instance().HitWrite("checkpoint.fwrite");
    status = fault.status;
    const size_t to_write =
        fault.truncate_to
            ? std::min(static_cast<size_t>(*fault.truncate_to), bytes.size())
            : bytes.size();
    if (status.ok() && to_write > 0 &&
        std::fwrite(bytes.data(), 1, to_write, file) != to_write) {
      status = Status::IOError("short write to '" + tmp_path + "'");
    }
  }
  if (status.ok()) {
    status = FailPoints::Instance().Hit("checkpoint.fflush");
    if (status.ok() && std::fflush(file) != 0) {
      status = Status::IOError("cannot flush '" + tmp_path + "'");
    }
  }
  if (file != nullptr) {
    // Close unconditionally (no descriptor leak on an injected failure) but
    // let a close error fail the save: a buffered write may only surface
    // its error here.
    Status close_status = FailPoints::Instance().Hit("checkpoint.fclose");
    if (std::fclose(file) != 0 && close_status.ok()) {
      close_status = Status::IOError("cannot close '" + tmp_path + "'");
    }
    if (status.ok()) status = close_status;
  }
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

Status ReadFileWithFailPoints(const std::string& path, std::string* out) {
  out->clear();
  Status status = FailPoints::Instance().Hit("checkpoint.open_read");
  std::FILE* file = nullptr;
  if (status.ok()) {
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) status = Status::IOError("cannot open '" + path + "' for reading");
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

std::string EncodeCheckpoint(const CheckpointState& state) {
  const size_t num_sources = state.processor.weights.size();
  CRH_CHECK_EQ(state.processor.accumulated.size(), num_sources);
  CRH_CHECK_EQ(state.processor.quarantined_per_source.size(), num_sources);
  std::string out;
  AppendBytes(&out, kMagic, sizeof(kMagic));
  AppendU32(&out, kCheckpointFormatVersion);
  AppendU64(&out, state.fingerprint);
  AppendU64(&out, state.processor.chunks_processed);
  AppendU64(&out, num_sources);
  for (double w : state.processor.weights) AppendF64(&out, w);
  for (double a : state.processor.accumulated) AppendF64(&out, a);
  for (uint64_t q : state.processor.quarantined_per_source) AppendU64(&out, q);
  AppendU8(&out, state.has_driver_state ? 1 : 0);
  if (state.has_driver_state) {
    CRH_CHECK_EQ(state.weight_history.size(), state.processor.chunks_processed);
    CRH_CHECK_EQ(state.chunk_starts.size(), state.weight_history.size());
    AppendU64(&out, state.truths.num_objects());
    AppendU64(&out, state.truths.num_properties());
    for (const Value& v : state.truths.cells()) {
      if (v.is_missing()) {
        AppendU8(&out, 0);
      } else if (v.is_continuous()) {
        AppendU8(&out, 1);
        AppendF64(&out, v.continuous());
      } else {
        AppendU8(&out, 2);
        AppendI32(&out, v.category());
      }
    }
    AppendU64(&out, state.weight_history.size());
    for (const std::vector<double>& row : state.weight_history) {
      CRH_CHECK_EQ(row.size(), num_sources);
      for (double w : row) AppendF64(&out, w);
    }
    AppendU64(&out, state.chunk_starts.size());
    for (int64_t start : state.chunk_starts) AppendI64(&out, start);
  }
  AppendU32(&out, Crc32(out.data(), out.size()));
  return out;
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
  uint32_t stored_crc = 0;
  for (size_t i = 4; i-- > 0;) {
    stored_crc = (stored_crc << 8) | static_cast<unsigned char>(bytes[body_size + i]);
  }
  if (stored_crc != Crc32(bytes.data(), body_size)) {
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
  uint64_t num_sources = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&num_sources));
  if (num_sources > cursor.remaining() / 24) return Truncated();
  state.processor.weights.resize(num_sources);
  state.processor.accumulated.resize(num_sources);
  state.processor.quarantined_per_source.resize(num_sources);
  for (double& w : state.processor.weights) CRH_RETURN_NOT_OK(cursor.ReadF64(&w));
  for (double& a : state.processor.accumulated) CRH_RETURN_NOT_OK(cursor.ReadF64(&a));
  for (uint64_t& q : state.processor.quarantined_per_source) {
    CRH_RETURN_NOT_OK(cursor.ReadU64(&q));
  }
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
        uint8_t tag = 0;
        CRH_RETURN_NOT_OK(cursor.ReadU8(&tag));
        if (tag == 1) {
          double v = 0;
          CRH_RETURN_NOT_OK(cursor.ReadF64(&v));
          state.truths.Set(i, m, Value::Continuous(v));
        } else if (tag == 2) {
          int32_t id = 0;
          CRH_RETURN_NOT_OK(cursor.ReadI32(&id));
          state.truths.Set(i, m, Value::Categorical(id));
        } else if (tag != 0) {
          return Status::InvalidArgument("checkpoint holds an invalid value tag");
        }
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
  CRH_RETURN_NOT_OK(EnsureScanned());
  // Reserve a generation number under the lock, then write it out with the
  // lock released: concurrent savers get distinct files and never hold mu_
  // across retries, fail points, or the disk.
  uint64_t generation = 0;
  {
    const MutexLock lock(&mu_);
    generation = next_generation_++;
  }
  const std::string bytes = EncodeCheckpoint(state);
  const std::string final_path = JoinPath(options_.dir, GenerationFileName(generation));
  const std::string tmp_path = final_path + ".tmp";
  CRH_RETURN_NOT_OK(RetryWithBackoff(options_.retry, "checkpoint save", [&] {
    return WriteFileAtomic(tmp_path, final_path, bytes);
  }));
  // Prune generations beyond keep_generations. The new checkpoint is
  // already durable at this point, so a prune failure reports an error but
  // never loses state; the remaining candidates are still attempted.
  auto generations = ListGenerations();
  if (!generations.ok()) return generations.status();
  Status prune_status = Status::OK();
  const size_t keep = static_cast<size_t>(options_.keep_generations);
  for (size_t i = 0; i + keep < generations->size(); ++i) {
    const std::string path = JoinPath(options_.dir, GenerationFileName((*generations)[i]));
    Status removed = FailPoints::Instance().Hit("checkpoint.remove");
    if (removed.ok() && std::remove(path.c_str()) != 0) {
      removed = Status::IOError("cannot remove old checkpoint '" + path + "'");
    }
    if (prune_status.ok()) prune_status = removed;
  }
  return prune_status;
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
      if (decoded.ok()) {
        if (decoded->fingerprint == expected_fingerprint) {
          local.generation = generation;
          local.fell_back = !local.rejected.empty();
          if (report != nullptr) *report = std::move(local);
          return decoded;
        }
        status = Status::FailedPrecondition(
            "fingerprint mismatch (written with different options or data)");
      } else {
        status = decoded.status();
      }
    }
    local.rejected.push_back(path + ": " + status.message());
  }
  std::string message = "no loadable checkpoint in '" + options_.dir + "'";
  for (const std::string& reason : local.rejected) message += "; " + reason;
  if (report != nullptr) *report = std::move(local);
  return Status::NotFound(message);
}

std::vector<std::string> CheckpointFailPointSites() {
  return {"checkpoint.list",   "checkpoint.open_write", "checkpoint.fwrite",
          "checkpoint.fflush", "checkpoint.fclose",     "checkpoint.rename",
          "checkpoint.remove", "checkpoint.open_read",  "checkpoint.fread",
          "checkpoint.create_dir"};
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
