#ifndef CRH_SERVE_SERVER_H_
#define CRH_SERVE_SERVER_H_

/// \file server.h
/// The resident truth-serving daemon core (ROADMAP item 1).
///
/// CrhServer ties the pieces together around one StreamEngine:
///
///   * A Unix-domain stream socket speaking the newline-delimited JSON
///     protocol (serve/protocol.h): truth/weight/confidence lookups, a
///     /healthz-style `status` command, chunk ingest, and admin commands.
///   * A single ingest thread that drains the bounded admission queue
///     (serve/admission.h), applies each chunk through the engine (delta
///     re-solve + checkpoints), and publishes an immutable epoch snapshot
///     (serve/snapshot.h) after every chunk. Query handlers answer from
///     the last published epoch and never block on solver iterations.
///   * Overload protection: a full queue sheds the ingest with an explicit
///     `overloaded` + retry-after reply; queries are unaffected.
///   * Deadlines: per-connection read deadlines (a stalled or slow-writing
///     client is disconnected, never allowed to pin a handler) and send
///     timeouts on replies.
///   * Graceful drain: SIGTERM (via `ServeOptions::shutdown_fd`), or the
///     `drain`/`shutdown` commands, stop admission, flush the queue,
///     write a final checkpoint and let Wait() return; a SIGKILL at any
///     moment instead is recovered by restarting with resume — the chaos
///     suite (tests/serve_chaos_test.cc) proves the resumed server's
///     truths and weights are byte-identical to an uninterrupted run.
///
/// Every raw socket operation sits behind a fail-point site (accept, recv,
/// send, publish, socket setup) registered in ServeFailPointSites(), so
/// fault sweeps can force each server I/O failure path, and the chaos
/// suite can kill the daemon at exact, deterministic moments.
///
/// Ingest sequencing: chunks carry explicit sequence numbers starting at 0.
/// After a restart the server expects sequence 0 again — clients replay the
/// stream from the start and the engine absorbs already-covered chunks as
/// cheap replays (see stream/stream_engine.h). Replies tell the client the
/// expected sequence on any mismatch, so at-least-once delivery converges.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/admission.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "stream/stream_engine.h"

namespace crh {

/// Server-specific knobs (solver behavior comes from IncrementalCrhOptions,
/// durability from StreamResilienceOptions).
struct ServeOptions {
  /// Path of the Unix-domain listening socket. A stale file from a killed
  /// predecessor is removed at startup.
  std::string socket_path;
  /// Bounded ingest queue capacity; a full queue sheds (overload policy).
  /// Decoding a chunk can be several times faster than solving and
  /// publishing it on a large universe, so a client that sends a backlog
  /// of chunks without waiting for publication fills the queue; 32 admits
  /// a few dozen before shedding. Each queued chunk holds its decoded
  /// claims in memory.
  size_t ingest_queue_capacity = 32;
  /// Deterministic retry-after hint returned with `overloaded` replies.
  uint64_t shed_retry_after_ms = 50;
  /// Per-connection deadline: a request that has not completed (read or
  /// reply write) within this budget disconnects the client. Idle
  /// connections are closed on the same budget.
  int io_timeout_ms = 5000;
  /// Granularity at which blocked reads re-check the stop flag.
  int poll_interval_ms = 200;
  /// Maximum request line size (ingest CSV payloads included).
  size_t max_request_bytes = 8u << 20;
  /// Concurrent connections beyond this are answered `busy` and closed.
  int max_connections = 8;
  /// Optional: a readable fd (signalfd, pipe) that triggers a graceful
  /// drain, letting main() translate SIGTERM without any global state.
  /// Not owned; -1 disables.
  int shutdown_fd = -1;
};

/// Fail-point sites of the serving layer, for fault sweeps and the
/// analyzer's coverage check.
std::vector<std::string> ServeFailPointSites();

class CrhServer {
 public:
  /// `universe` must outlive the server: it defines the entry space
  /// (objects, sources, schema, dictionaries) truths are maintained and
  /// served in.
  CrhServer(const Dataset& universe, const IncrementalCrhOptions& options,
            const StreamResilienceOptions& resilience, ServeOptions serve);
  ~CrhServer();

  CrhServer(const CrhServer&) = delete;
  CrhServer& operator=(const CrhServer&) = delete;

  /// Opens the engine (resuming from the newest checkpoint when asked),
  /// publishes epoch 0, binds the socket and starts the acceptor and
  /// ingest threads. On error nothing is left running.
  [[nodiscard]] Status Start();

  /// Blocks until a drain completes (SIGTERM via shutdown_fd, or a
  /// `drain`/`shutdown` command), then stops the acceptor, joins every
  /// thread and removes the socket. Returns the first fatal ingest error,
  /// or OK for a clean drain.
  [[nodiscard]] Status Wait();

  /// Initiates a graceful drain: admission stops, queued chunks flush,
  /// a final checkpoint is written, Wait() returns. Idempotent.
  void RequestDrain();

  /// Handles one protocol request line and returns the reply line (no
  /// trailing newline). Public as the unit-test surface: everything the
  /// socket path does beyond this is framing and I/O.
  std::string HandleRequestLine(std::string_view line);

  /// The publication point, exposed for the concurrent-reader race test.
  const SnapshotPublisher& publisher() const { return publisher_; }

 private:
  void AcceptLoop();
  void ConnectionThread(uint64_t id, int fd);
  void ConnectionLoop(int fd);
  void IngestLoop();
  /// Applies one chunk and publishes the next epoch. A publish fail point
  /// failure leaves readers on the previous epoch (they catch up with the
  /// next publish); an apply failure is fatal for ingest.
  [[nodiscard]] Status ApplyAndPublish(const DataChunk& chunk);
  void PublishFromEngine();
  [[nodiscard]] Status SetupSocket();
  void TearDownSocket();
  /// Writes `line` + '\n', honoring the send fail point and send timeout.
  bool SendLine(int fd, const std::string& line);
  /// Joins connection threads that have signalled completion.
  void ReapFinishedConnections();
  void RecordIngestFailure(const Status& status) CRH_EXCLUDES(mu_);

  std::string HandleTruth(const JsonObject& request);
  std::string HandleWeights();
  std::string HandleSource(const JsonObject& request);
  std::string HandleStatus();
  std::string HandleIngest(const JsonObject& request);

  const Dataset* universe_;
  IncrementalCrhOptions options_;
  StreamResilienceOptions resilience_;
  ServeOptions serve_;

  std::unique_ptr<StreamEngine> engine_;  ///< Ingest thread only after Start.
  /// Decodes ingested chunks; its id index also serves truth/source lookups.
  const ChunkCodec codec_;

  IngestQueue queue_;
  SnapshotPublisher publisher_;
  uint64_t epoch_ = 0;  ///< Ingest thread only.

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> ingest_failed_{false};
  std::atomic<uint64_t> io_errors_{0};

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  bool started_ = false;
  std::thread acceptor_;
  std::thread ingest_;

  mutable Mutex mu_;
  CondVar finished_cv_;
  std::map<uint64_t, std::thread> connections_ CRH_GUARDED_BY(mu_);
  std::vector<uint64_t> finished_connection_ids_ CRH_GUARDED_BY(mu_);
  uint64_t next_connection_id_ CRH_GUARDED_BY(mu_) = 0;
  int active_connections_ CRH_GUARDED_BY(mu_) = 0;
  uint64_t next_enqueue_seq_ CRH_GUARDED_BY(mu_) = 0;
  bool finished_ CRH_GUARDED_BY(mu_) = false;
  Status final_status_ CRH_GUARDED_BY(mu_);
  std::string last_error_ CRH_GUARDED_BY(mu_);
};

}  // namespace crh

#endif  // CRH_SERVE_SERVER_H_
