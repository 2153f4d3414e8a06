#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/fault_injection.h"

namespace crh {
namespace {

/// A reply every handler failure path goes through, so error lines always
/// carry the same shape: {"ok":false,"error":code,"message":...}.
std::string ErrorReply(const std::string& code, const std::string& message) {
  JsonWriter writer;
  writer.AddBool("ok", false);
  writer.AddString("error", code);
  writer.AddString("message", message);
  return std::move(writer).Finish();
}

}  // namespace

std::vector<std::string> ServeFailPointSites() {
  return {
      "serve.socket", "serve.bind", "serve.listen",        "serve.accept",
      "serve.recv",   "serve.send", "serve.remove_socket", "serve.publish",
  };
}

CrhServer::CrhServer(const Dataset& universe, const IncrementalCrhOptions& options,
                     const StreamResilienceOptions& resilience, ServeOptions serve)
    : universe_(&universe),
      options_(options),
      resilience_(resilience),
      serve_(std::move(serve)),
      codec_(universe),
      queue_(serve_.ingest_queue_capacity) {}

CrhServer::~CrhServer() {
  if (started_) {
    RequestDrain();
    (void)Wait();
  }
}

Status CrhServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto engine = StreamEngine::Open(*universe_, options_, resilience_);
  if (!engine.ok()) return engine.status();
  engine_ = std::move(engine).ValueOrDie();
  // Epoch 0 is visible before the first chunk: a freshly started (or
  // freshly resumed) server answers queries immediately.
  PublishFromEngine();
  CRH_RETURN_NOT_OK(SetupSocket());
  started_ = true;
  ingest_ = std::thread(&CrhServer::IngestLoop, this);
  acceptor_ = std::thread(&CrhServer::AcceptLoop, this);
  return Status::OK();
}

Status CrhServer::SetupSocket() {
  if (serve_.socket_path.empty()) {
    return Status::InvalidArgument("ServeOptions::socket_path must be set");
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (serve_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path exceeds the AF_UNIX limit of " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes: " + serve_.socket_path);
  }
  std::memcpy(addr.sun_path, serve_.socket_path.c_str(), serve_.socket_path.size());

  if (::pipe(stop_pipe_) != 0) {
    return Status::IOError("pipe() failed: " + std::string(std::strerror(errno)));
  }
  CRH_FAIL_POINT("serve.remove_socket");
  // A stale socket file from a SIGKILLed predecessor must not block
  // restart; ENOENT on a clean start is the normal case.
  (void)::unlink(serve_.socket_path.c_str());
  CRH_FAIL_POINT("serve.socket");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket() failed: " + std::string(std::strerror(errno)));
  }
  Status status = FailPoints::Instance().Hit("serve.bind");
  if (status.ok() &&
      ::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = Status::IOError("bind(" + serve_.socket_path +
                             ") failed: " + std::string(std::strerror(errno)));
  }
  if (status.ok()) status = FailPoints::Instance().Hit("serve.listen");
  if (status.ok() && ::listen(listen_fd_, 16) != 0) {
    status = Status::IOError("listen() failed: " + std::string(std::strerror(errno)));
  }
  if (!status.ok()) {
    TearDownSocket();
    return status;
  }
  return Status::OK();
}

void CrhServer::TearDownSocket() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (!serve_.socket_path.empty()) {
    (void)::unlink(serve_.socket_path.c_str());
  }
}

Status CrhServer::Wait() {
  {
    MutexLock lock(&mu_);
    while (!finished_) finished_cv_.Wait(&mu_);
  }
  stop_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (ingest_.joinable()) ingest_.join();
  // Connection threads observe stop_ within one poll interval.
  std::vector<std::thread> remaining;
  {
    MutexLock lock(&mu_);
    for (auto& [id, thread] : connections_) {
      (void)id;
      remaining.push_back(std::move(thread));
    }
    connections_.clear();
    finished_connection_ids_.clear();
  }
  for (std::thread& thread : remaining) {
    if (thread.joinable()) thread.join();
  }
  TearDownSocket();
  started_ = false;
  MutexLock lock(&mu_);
  return final_status_;
}

void CrhServer::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  queue_.SetPaused(false);
  queue_.Close();
}

void CrhServer::RecordIngestFailure(const Status& status) {
  ingest_failed_.store(true, std::memory_order_release);
  MutexLock lock(&mu_);
  if (final_status_.ok()) final_status_ = status;
  last_error_ = status.ToString();
}

void CrhServer::IngestLoop() {
  while (true) {
    std::optional<PendingChunk> item = queue_.PopBlocking();
    if (!item.has_value()) break;  // closed and drained
    if (ingest_failed_.load(std::memory_order_acquire)) continue;  // discard
    const Status applied = ApplyAndPublish(item->chunk);
    if (!applied.ok()) RecordIngestFailure(applied);
  }
  if (!ingest_failed_.load(std::memory_order_acquire)) {
    // Graceful drain: one final checkpoint regardless of cadence, then one
    // final epoch so late status queries see last_checkpoint_chunks catch
    // up. A failed ingest skips both — its state is suspect.
    const Status final_checkpoint = engine_->WriteCheckpoint();
    if (!final_checkpoint.ok()) {
      RecordIngestFailure(final_checkpoint);
    } else {
      const Status publish = FailPoints::Instance().Hit("serve.publish");
      if (publish.ok()) {
        PublishFromEngine();
      } else {
        io_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  MutexLock lock(&mu_);
  finished_ = true;
  finished_cv_.NotifyAll();
}

Status CrhServer::ApplyAndPublish(const DataChunk& chunk) {
  CRH_RETURN_NOT_OK(engine_->ApplyChunk(chunk, /*force_checkpoint=*/false));
  // Publication is the only step after a successful apply; a publish fail
  // point leaves readers one epoch behind (they catch up on the next
  // publish), it never unwinds the applied chunk.
  const Status publish = FailPoints::Instance().Hit("serve.publish");
  if (!publish.ok()) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&mu_);
    last_error_ = publish.ToString();
    return Status::OK();
  }
  PublishFromEngine();
  return Status::OK();
}

void CrhServer::PublishFromEngine() {
  publisher_.Publish(
      std::make_shared<const ServeSnapshot>(SnapshotFromEngine(*engine_, epoch_)));
  ++epoch_;
}

void CrhServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    ReapFinishedConnections();
    struct pollfd fds[3];
    nfds_t count = 0;
    fds[count].fd = stop_pipe_[0];
    fds[count].events = POLLIN;
    ++count;
    fds[count].fd = listen_fd_;
    fds[count].events = POLLIN;
    ++count;
    const bool watch_shutdown_fd =
        serve_.shutdown_fd >= 0 && !draining_.load(std::memory_order_acquire);
    if (watch_shutdown_fd) {
      fds[count].fd = serve_.shutdown_fd;
      fds[count].events = POLLIN;
      ++count;
    }
    const int rc = ::poll(fds, count, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;  // stop pipe
    if (watch_shutdown_fd && (fds[2].revents & POLLIN) != 0) {
      // Consume the signalfd/pipe payload, then begin the drain. Queries
      // keep answering until the queue flushes and Wait() tears down.
      char buffer[128];
      (void)!::read(serve_.shutdown_fd, buffer, sizeof(buffer));
      RequestDrain();
    }
    if ((fds[1].revents & POLLIN) == 0) continue;

    const Status accept_status = FailPoints::Instance().Hit("serve.accept");
    if (!accept_status.ok()) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != ECONNABORTED) {
        io_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    // Short receive slices let handlers re-check the stop flag and enforce
    // the request deadline; the send timeout bounds reply writes.
    struct timeval receive_slice;
    receive_slice.tv_sec = serve_.poll_interval_ms / 1000;
    receive_slice.tv_usec =
        static_cast<suseconds_t>(serve_.poll_interval_ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_slice,
                       sizeof(receive_slice));
    struct timeval send_deadline;
    send_deadline.tv_sec = serve_.io_timeout_ms / 1000;
    send_deadline.tv_usec = static_cast<suseconds_t>(serve_.io_timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_deadline,
                       sizeof(send_deadline));

    bool at_limit = false;
    uint64_t id = 0;
    {
      MutexLock lock(&mu_);
      if (active_connections_ >= serve_.max_connections) {
        at_limit = true;
      } else {
        ++active_connections_;
        id = next_connection_id_++;
      }
    }
    if (at_limit) {
      // Accept-then-reject: the client learns why instead of waiting in the
      // listen backlog until its own deadline fires. The reply is sent with
      // no lock held (SendLine hits the serve.send fail point).
      (void)SendLine(fd, ErrorReply("busy", "connection limit reached; retry"));
      ::close(fd);
      continue;
    }
    MutexLock lock(&mu_);
    connections_.emplace(id, std::thread(&CrhServer::ConnectionThread, this, id, fd));
  }
}

void CrhServer::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    MutexLock lock(&mu_);
    for (const uint64_t id : finished_connection_ids_) {
      auto it = connections_.find(id);
      if (it != connections_.end()) {
        done.push_back(std::move(it->second));
        connections_.erase(it);
      }
    }
    finished_connection_ids_.clear();
  }
  for (std::thread& thread : done) {
    if (thread.joinable()) thread.join();
  }
}

void CrhServer::ConnectionThread(uint64_t id, int fd) {
  ConnectionLoop(fd);
  ::close(fd);
  MutexLock lock(&mu_);
  --active_connections_;
  finished_connection_ids_.push_back(id);
}

void CrhServer::ConnectionLoop(int fd) {
  // buffer[consumed, size) holds the bytes not yet handled, of which
  // [consumed, scanned) are known to hold no newline: each byte is searched
  // once however many receives a long line takes, and handled lines are
  // skipped by offset, not erased one at a time.
  std::string buffer;
  size_t consumed = 0;
  size_t scanned = 0;
  int idle_ms = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const size_t newline = buffer.find('\n', scanned);
    if (newline == std::string::npos) {
      scanned = buffer.size();
      if (buffer.size() - consumed > serve_.max_request_bytes) {
        (void)SendLine(fd, ErrorReply("bad_request", "request line too large"));
        return;
      }
      const Status receive_status = FailPoints::Instance().Hit("serve.recv");
      if (!receive_status.ok()) {
        io_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) return;  // client closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // One receive slice elapsed without bytes. The same budget bounds
          // a half-sent request (deadline reply) and a silent idle
          // connection (plain close): either way no handler slot is pinned
          // past io_timeout_ms without progress.
          idle_ms += serve_.poll_interval_ms;
          if (idle_ms >= serve_.io_timeout_ms) {
            if (buffer.size() > consumed) {
              (void)SendLine(fd, ErrorReply("deadline", "request read deadline exceeded"));
            }
            return;
          }
          continue;
        }
        if (errno == EINTR) continue;
        io_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      idle_ms = 0;
      if (consumed > 0 && consumed >= buffer.size() - consumed) {
        // Handled lines are at least half the buffer: drop them, so a
        // long-lived pipelining connection does not grow it (amortized
        // O(1) a byte).
        buffer.erase(0, consumed);
        scanned -= consumed;
        consumed = 0;
      }
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string_view line(buffer.data() + consumed, newline - consumed);
    consumed = scanned = newline + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (!SendLine(fd, HandleRequestLine(line))) return;
  }
}

bool CrhServer::SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t offset = 0;
  while (offset < framed.size()) {
    const Status send_status = FailPoints::Instance().Hit("serve.send");
    if (!send_status.ok()) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const ssize_t n =
        ::send(fd, framed.data() + offset, framed.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN here is the send deadline (SO_SNDTIMEO) firing on a client
      // that stopped reading; drop it rather than pin the handler.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

std::string CrhServer::HandleRequestLine(std::string_view line) {
  auto parsed = ParseJsonObject(line, serve_.max_request_bytes);
  if (!parsed.ok()) return ErrorReply("bad_request", parsed.status().message());
  auto cmd = parsed->GetString("cmd");
  if (!cmd.ok()) return ErrorReply("bad_request", cmd.status().message());
  const std::string& command = *cmd;
  if (command == "ping") {
    JsonWriter writer;
    writer.AddBool("ok", true);
    return std::move(writer).Finish();
  }
  if (command == "truth") return HandleTruth(*parsed);
  if (command == "weights") return HandleWeights();
  if (command == "source") return HandleSource(*parsed);
  if (command == "status") return HandleStatus();
  if (command == "ingest") return HandleIngest(*parsed);
  if (command == "pause_ingest" || command == "resume_ingest") {
    queue_.SetPaused(command == "pause_ingest");
    JsonWriter writer;
    writer.AddBool("ok", true);
    writer.AddBool("ingest_paused", queue_.paused());
    return std::move(writer).Finish();
  }
  if (command == "drain" || command == "shutdown") {
    RequestDrain();
    JsonWriter writer;
    writer.AddBool("ok", true);
    writer.AddBool("draining", true);
    return std::move(writer).Finish();
  }
  return ErrorReply("unknown_command", "unknown cmd '" + command + "'");
}

std::string CrhServer::HandleTruth(const JsonObject& request) {
  auto object = request.GetString("object");
  if (!object.ok()) return ErrorReply("bad_request", object.status().message());
  auto property = request.GetString("property");
  if (!property.ok()) return ErrorReply("bad_request", property.status().message());
  const size_t object_index = codec_.FindObject(*object);
  if (object_index == IdIndex::kNotFound) {
    return ErrorReply("not_found", "unknown object '" + *object + "'");
  }
  const int property_index = universe_->schema().FindProperty(*property);
  if (property_index < 0) {
    return ErrorReply("not_found", "unknown property '" + *property + "'");
  }
  const size_t m = static_cast<size_t>(property_index);
  const std::shared_ptr<const ServeSnapshot> snapshot = publisher_.Current();
  if (snapshot == nullptr) return ErrorReply("not_ready", "no epoch published yet");
  const Value& value = snapshot->truths.Get(object_index, m);
  JsonWriter writer;
  writer.AddBool("ok", true);
  writer.AddUint("epoch", snapshot->epoch);
  if (value.is_missing()) {
    writer.AddNull("value");
  } else if (value.is_continuous()) {
    writer.AddDouble("value", value.continuous());
  } else if (value.category() == kInvalidCategory) {
    writer.AddNull("value");
  } else {
    writer.AddString("value", universe_->dict(m).label(value.category()));
  }
  return std::move(writer).Finish();
}

std::string CrhServer::HandleWeights() {
  const std::shared_ptr<const ServeSnapshot> snapshot = publisher_.Current();
  if (snapshot == nullptr) return ErrorReply("not_ready", "no epoch published yet");
  std::vector<std::string> sources;
  sources.reserve(universe_->num_sources());
  for (size_t k = 0; k < universe_->num_sources(); ++k) {
    sources.push_back(universe_->source_id(k));
  }
  JsonWriter writer;
  writer.AddBool("ok", true);
  writer.AddUint("epoch", snapshot->epoch);
  writer.AddStringArray("sources", sources);
  writer.AddDoubleArray("weights", snapshot->source_weights);
  return std::move(writer).Finish();
}

std::string CrhServer::HandleSource(const JsonObject& request) {
  auto source = request.GetString("source");
  if (!source.ok()) return ErrorReply("bad_request", source.status().message());
  const size_t k = codec_.FindSource(*source);
  if (k == IdIndex::kNotFound) {
    return ErrorReply("not_found", "unknown source '" + *source + "'");
  }
  const std::shared_ptr<const ServeSnapshot> snapshot = publisher_.Current();
  if (snapshot == nullptr) return ErrorReply("not_ready", "no epoch published yet");
  double total = 0;
  for (const double w : snapshot->source_weights) total += w;
  JsonWriter writer;
  writer.AddBool("ok", true);
  writer.AddUint("epoch", snapshot->epoch);
  writer.AddDouble("weight", snapshot->source_weights[k]);
  // Confidence is the weight share: the paper's reliability normalized over
  // the roster, so values are comparable across epochs and datasets.
  writer.AddDouble("confidence", total > 0 ? snapshot->source_weights[k] / total : 0.0);
  writer.AddDouble("accumulated_deviation", snapshot->accumulated_deviations[k]);
  writer.AddUint("quarantined", snapshot->quarantined_per_source[k]);
  return std::move(writer).Finish();
}

std::string CrhServer::HandleStatus() {
  const std::shared_ptr<const ServeSnapshot> snapshot = publisher_.Current();
  if (snapshot == nullptr) return ErrorReply("not_ready", "no epoch published yet");
  JsonWriter writer;
  writer.AddBool("ok", true);
  writer.AddUint("epoch", snapshot->epoch);
  writer.AddUint("chunks_solved", snapshot->chunks_solved);
  writer.AddUint("next_seq", snapshot->next_seq);
  writer.AddUint("chunks_resumed", snapshot->chunks_resumed);
  writer.AddBool("resumed_from_fallback", snapshot->resumed_from_fallback);
  writer.AddUint("checkpoints_written", snapshot->checkpoints_written);
  writer.AddUint("last_checkpoint_chunks", snapshot->last_checkpoint_chunks);
  writer.AddUint("queue_depth", static_cast<uint64_t>(queue_.depth()));
  writer.AddUint("queue_capacity", static_cast<uint64_t>(queue_.capacity()));
  writer.AddUint("shed", queue_.shed_count());
  writer.AddBool("ingest_paused", queue_.paused());
  writer.AddBool("draining", draining_.load(std::memory_order_acquire));
  writer.AddBool("ingest_failed", ingest_failed_.load(std::memory_order_acquire));
  writer.AddUint("io_errors", io_errors_.load(std::memory_order_relaxed));
  {
    MutexLock lock(&mu_);
    writer.AddString("last_error", last_error_);
  }
  return std::move(writer).Finish();
}

std::string CrhServer::HandleIngest(const JsonObject& request) {
  if (engine_ == nullptr) return ErrorReply("not_ready", "server not started");
  if (draining_.load(std::memory_order_acquire)) {
    return ErrorReply("draining", "server is draining; ingest is closed");
  }
  if (ingest_failed_.load(std::memory_order_acquire)) {
    return ErrorReply("ingest_failed", "ingest stopped on a fatal error; see status");
  }
  auto seq = request.GetUint("seq");
  if (!seq.ok()) return ErrorReply("bad_request", seq.status().message());
  auto window_start = request.GetInt("window_start");
  if (!window_start.ok()) {
    return ErrorReply("bad_request", window_start.status().message());
  }
  // Read in place: the payload is most of the request line.
  const JsonValue* csv = request.Find("csv");
  if (csv == nullptr || csv->kind != JsonValue::Kind::kString) {
    return ErrorReply("bad_request", "request needs a string field 'csv'");
  }

  // Quick sequence check before paying for the decode. next_enqueue_seq_
  // counts *admitted* chunks; a shed chunk does not consume its number.
  {
    MutexLock lock(&mu_);
    if (*seq > next_enqueue_seq_) {
      JsonWriter writer;
      writer.AddBool("ok", false);
      writer.AddString("error", "out_of_order");
      writer.AddUint("expected", next_enqueue_seq_);
      return std::move(writer).Finish();
    }
    if (*seq < next_enqueue_seq_) {
      JsonWriter writer;
      writer.AddBool("ok", true);
      writer.AddBool("duplicate", true);
      writer.AddUint("seq", *seq);
      return std::move(writer).Finish();
    }
  }

  auto chunk = codec_.Decode(csv->string_value, *window_start, options_.quarantine_bad_claims);
  if (!chunk.ok()) return ErrorReply("bad_chunk", chunk.status().message());

  MutexLock lock(&mu_);
  // Re-check under the lock: another connection may have admitted this
  // sequence number while we were decoding.
  if (*seq != next_enqueue_seq_) {
    if (*seq < next_enqueue_seq_) {
      JsonWriter writer;
      writer.AddBool("ok", true);
      writer.AddBool("duplicate", true);
      writer.AddUint("seq", *seq);
      return std::move(writer).Finish();
    }
    JsonWriter writer;
    writer.AddBool("ok", false);
    writer.AddString("error", "out_of_order");
    writer.AddUint("expected", next_enqueue_seq_);
    return std::move(writer).Finish();
  }
  if (!queue_.TryPush(PendingChunk{*seq, std::move(chunk).ValueOrDie()})) {
    // Shed: explicit rejection plus a deterministic retry hint. The
    // sequence number is not consumed, so the retried chunk is not a
    // duplicate and the stream stays gapless.
    JsonWriter writer;
    writer.AddBool("ok", false);
    writer.AddString("error", "overloaded");
    writer.AddUint("retry_after_ms", serve_.shed_retry_after_ms);
    return std::move(writer).Finish();
  }
  ++next_enqueue_seq_;
  JsonWriter writer;
  writer.AddBool("ok", true);
  writer.AddUint("seq", *seq);
  writer.AddUint("queue_depth", static_cast<uint64_t>(queue_.depth()));
  return std::move(writer).Finish();
}

}  // namespace crh
