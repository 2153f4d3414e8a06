/// \file crh_serve_main.cc
/// The crh_serve daemon: resident truth serving over a Unix-domain socket.
///
///   crh_serve --socket /tmp/crh.sock --schema "temp:continuous"
///             --universe claims.csv [--checkpoint-dir D [--resume]] ...
///
/// The universe CSV (claim tuples, as for crh_cli) defines the entry space
/// — objects, sources, dictionaries — truths are maintained and served in;
/// its claims are NOT pre-ingested. Clients stream chunks in with `ingest`
/// requests and read truths/weights/status back; see serve/server.h for
/// the protocol and docs/ROBUSTNESS.md for the overload, drain and
/// kill/resume semantics. SIGTERM and SIGINT trigger a graceful drain with
/// a final checkpoint.
///
/// --fail-point SITE@HIT=fail|kill|trunc:N arms deterministic faults in
/// the daemon (common/fault_injection.h) — the chaos suite uses `kill` to
/// SIGKILL the daemon at exact moments and then proves resume converges.

#include <sys/signalfd.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "data/csv.h"
#include "serve/server.h"
#include "tools/cli.h"

namespace {

std::string Usage() {
  return
      "usage: crh_serve --socket PATH --schema SPEC --universe CLAIMS.csv [options]\n"
      "  --socket PATH        Unix-domain socket to listen on (required)\n"
      "  --schema SPEC        property list, e.g. \"temp:continuous,cond:categorical\"\n"
      "  --universe FILE      claim CSV defining the object/source universe\n"
      "  --checkpoint-dir D   write crash-recovery checkpoints into D\n"
      "  --checkpoint-every N checkpoint every N ingested chunks (default 1)\n"
      "  --resume             resume from the newest good checkpoint in D\n"
      "  --window N           timestamps per chunk window (default 1)\n"
      "  --decay A            decay rate in [0,1] (default 0.5)\n"
      "  --quarantine         quarantine malformed claims instead of failing\n"
      "  --delta-solve M      off (default) | full\n"
      "  --threads N          solver threads (default 1; 0 = hardware)\n"
      "  --queue-capacity N   ingest admission queue bound (default 32)\n"
      "  --retry-after-ms N   retry hint returned on shed ingests (default 50)\n"
      "  --io-timeout-ms N    per-connection request deadline (default 5000)\n"
      "  --max-connections N  concurrent connection cap (default 8)\n"
      "  --fail-point SPEC    arm a deterministic fault, SITE@HIT=fail|kill|trunc:N\n"
      "                       (repeatable; e.g. stream.process_chunk@2=kill)\n";
}

struct ServeArgs {
  std::string socket_path;
  std::string schema_spec;
  std::string universe_path;
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  bool resume = false;
  int64_t window = 1;
  double decay = 0.5;
  bool quarantine = false;
  std::string delta_solve = "off";
  int threads = 1;
  int64_t queue_capacity = 32;
  int64_t retry_after_ms = 50;
  int64_t io_timeout_ms = 5000;
  int64_t max_connections = 8;
  std::vector<std::string> fail_points;
};

crh::Result<ServeArgs> ParseArgs(const std::vector<std::string>& args) {
  ServeArgs parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto take = [&]() -> crh::Result<std::string> {
      if (i + 1 >= args.size()) {
        return crh::Status::InvalidArgument(arg + " requires a value\n" + Usage());
      }
      return args[++i];
    };
    const auto take_int = [&](int64_t* into) -> crh::Status {
      auto value = take();
      if (!value.ok()) return value.status();
      *into = std::atoll(value->c_str());
      return crh::Status::OK();
    };
    if (arg == "--socket") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.socket_path = *value;
    } else if (arg == "--schema") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.schema_spec = *value;
    } else if (arg == "--universe") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.universe_path = *value;
    } else if (arg == "--checkpoint-dir") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.checkpoint_dir = *value;
    } else if (arg == "--checkpoint-every") {
      CRH_RETURN_NOT_OK(take_int(&parsed.checkpoint_every));
    } else if (arg == "--resume") {
      parsed.resume = true;
    } else if (arg == "--window") {
      CRH_RETURN_NOT_OK(take_int(&parsed.window));
    } else if (arg == "--decay") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.decay = std::atof(value->c_str());
    } else if (arg == "--quarantine") {
      parsed.quarantine = true;
    } else if (arg == "--delta-solve") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.delta_solve = *value;
    } else if (arg == "--threads") {
      int64_t threads = 1;
      CRH_RETURN_NOT_OK(take_int(&threads));
      parsed.threads = static_cast<int>(threads);
    } else if (arg == "--queue-capacity") {
      CRH_RETURN_NOT_OK(take_int(&parsed.queue_capacity));
    } else if (arg == "--retry-after-ms") {
      CRH_RETURN_NOT_OK(take_int(&parsed.retry_after_ms));
    } else if (arg == "--io-timeout-ms") {
      CRH_RETURN_NOT_OK(take_int(&parsed.io_timeout_ms));
    } else if (arg == "--max-connections") {
      CRH_RETURN_NOT_OK(take_int(&parsed.max_connections));
    } else if (arg == "--fail-point") {
      auto value = take();
      if (!value.ok()) return value.status();
      parsed.fail_points.push_back(*value);
    } else {
      return crh::Status::InvalidArgument("unknown flag " + arg + "\n" + Usage());
    }
  }
  if (parsed.socket_path.empty() || parsed.schema_spec.empty() ||
      parsed.universe_path.empty()) {
    return crh::Status::InvalidArgument(
        "--socket, --schema and --universe are required\n" + Usage());
  }
  if (parsed.queue_capacity < 1 || parsed.max_connections < 1 ||
      parsed.io_timeout_ms < 1 || parsed.retry_after_ms < 0) {
    return crh::Status::InvalidArgument("server limits must be positive");
  }
  return parsed;
}

crh::Result<crh::DeltaSolveMode> ParseDeltaSolve(const std::string& mode) {
  if (mode == "off") return crh::DeltaSolveMode::kOff;
  if (mode == "full") return crh::DeltaSolveMode::kFull;
  return crh::Status::InvalidArgument("--delta-solve must be off or full");
}

int Run(const std::vector<std::string>& args) {
  auto parsed = ParseArgs(args);
  if (!parsed.ok()) {
    std::cerr << parsed.status().message() << "\n";
    return 2;
  }
  for (const std::string& spec : parsed->fail_points) {
    const crh::Status armed = crh::FailPoints::Instance().ArmFromSpec(spec);
    if (!armed.ok()) {
      std::cerr << "crh_serve: " << armed.ToString() << "\n";
      return 2;
    }
  }

  auto schema = crh::cli::ParseSchemaSpec(parsed->schema_spec);
  if (!schema.ok()) {
    std::cerr << "crh_serve: " << schema.status().ToString() << "\n";
    return 1;
  }
  auto universe = crh::ReadObservationsCsv(*schema, parsed->universe_path);
  if (!universe.ok()) {
    std::cerr << "crh_serve: " << universe.status().ToString() << "\n";
    return 1;
  }

  crh::IncrementalCrhOptions options;
  options.decay = parsed->decay;
  options.window_size = parsed->window;
  options.quarantine_bad_claims = parsed->quarantine;
  options.base.num_threads = parsed->threads;
  auto delta = ParseDeltaSolve(parsed->delta_solve);
  if (!delta.ok()) {
    std::cerr << "crh_serve: " << delta.status().ToString() << "\n";
    return 2;
  }
  options.delta_solve = *delta;

  crh::StreamResilienceOptions resilience;
  resilience.checkpoint_dir = parsed->checkpoint_dir;
  resilience.checkpoint_every = parsed->checkpoint_every < 1
                                    ? 1u
                                    : static_cast<uint64_t>(parsed->checkpoint_every);
  resilience.resume = parsed->resume;

  // SIGTERM/SIGINT arrive on a signalfd the acceptor polls, so shutdown is
  // an ordinary readable event — no async-signal-safety puzzles, no
  // globals, and the drain path is the same one the `drain` command takes.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (sigprocmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::cerr << "crh_serve: sigprocmask failed\n";
    return 1;
  }
  const int shutdown_fd = signalfd(-1, &mask, SFD_CLOEXEC);
  if (shutdown_fd < 0) {
    std::cerr << "crh_serve: signalfd failed\n";
    return 1;
  }

  crh::ServeOptions serve;
  serve.socket_path = parsed->socket_path;
  serve.ingest_queue_capacity = static_cast<size_t>(parsed->queue_capacity);
  serve.shed_retry_after_ms = static_cast<uint64_t>(parsed->retry_after_ms);
  serve.io_timeout_ms = static_cast<int>(parsed->io_timeout_ms);
  serve.max_connections = static_cast<int>(parsed->max_connections);
  serve.shutdown_fd = shutdown_fd;

  crh::CrhServer server(*universe, options, resilience, serve);
  const crh::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "crh_serve: " << started.ToString() << "\n";
    return 1;
  }
  // The readiness line scripts wait for before connecting.
  std::cout << "crh_serve: listening on " << parsed->socket_path << "\n" << std::flush;
  const crh::Status final_status = server.Wait();
  if (!final_status.ok()) {
    std::cerr << "crh_serve: " << final_status.ToString() << "\n";
    return 1;
  }
  std::cout << "crh_serve: drained cleanly\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << Usage();
      return 0;
    }
  }
  return Run(args);
}
