// The end-to-end runs: crh_serve over its Unix socket and crh_cli as a
// child process, both from this one load-generator process, plus the
// checks that their outputs are correct.

#include <sys/prctl.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "client.h"
#include "common/check.h"
#include "core/crh.h"
#include "data/csv.h"
#include "eval/metrics.h"
#include "mapreduce/parallel_crh.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

/// Total query rate of the open loop, split evenly over two connections.
constexpr double kQueryRatePerSecond = 2000;
constexpr size_t kQueryConnections = 2;
/// Ingest is a closed loop with at most this many chunks unpublished.
constexpr uint64_t kMaxUnpublished = 2;
/// Pause between `status` polls while waiting for a chunk to publish.
constexpr double kStatusPollPauseSeconds = 200e-6;
constexpr int kReplyTimeoutMs = 5000;
/// The query generator spins (instead of sleeping) for this long before a
/// request is due and while it waits for the reply, so the virtual
/// machine's wake-up latency for a sleeping thread lands in neither the
/// schedule nor the measured latency; only the daemon's own wake-ups do.
constexpr double kSpinSeconds = 150e-6;
/// The query p99 is the median over one-second windows of each window's
/// p99 (a window of 2,000 queries has 20 beyond its p99), so one stall of
/// the machine does not decide a run's p99.
constexpr double kWindowSeconds = 1.0;
constexpr size_t kMinWindowQueries = 1000;
/// Set-up is measured at least kSetupSamples times and until the samples
/// add up to kSetupSeconds (at most kMaxSetupSamples); the median is
/// reported.
constexpr size_t kSetupSamples = 5;
constexpr size_t kMaxSetupSamples = 25;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kMaxSessions = 8;
/// Batch: crh_cli runs at least kMinBatchRuns times over the whole input,
/// then answers one-chunk queries for kQuerySeconds (cycling over the
/// first kQueryInputs chunks).
constexpr size_t kMinBatchRuns = 3;
constexpr size_t kMaxBatchRuns = 40;
constexpr size_t kQueryInputs = 10;
constexpr size_t kMinQueries = 50;
constexpr size_t kMaxQueries = 1000;
constexpr double kQuerySeconds = 3.0;
constexpr size_t kSampleChunks = 20;
/// Serve throughput is the median over windows of this many consecutive
/// chunks of each window's claims published per second of guest time, so
/// a stall of the machine moves one window, not the run's figure.
constexpr uint64_t kThroughputWindowChunks = 50;
constexpr double kChildTimeoutSeconds = 150;

uint64_t CountClaims(const std::string& csv) {
  uint64_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  return lines - 1;  // header
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

bool NeedSetupSample(const std::vector<double>& samples) {
  double total = 0;
  for (const double s : samples) total += s;
  return samples.size() < kSetupSamples ||
         (total < kSetupSeconds && samples.size() < kMaxSetupSamples);
}

void Fail(Report* report, const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  report->problems.push_back(problem);
}

/// A running daemon with its control connection.
struct Daemon {
  Child child;
  LineClient control;
  std::string socket_path;
  std::string checkpoint_dir;
};

/// Spawns crh_serve with its defaults (one solver thread, delta re-solve
/// off, a checkpoint after every chunk into a fresh directory) and waits
/// for its first answered ping. Returns the set-up time, or -1, and adds
/// the machine's CPU ticks over it to `steal`.
double StartDaemon(const RunInputs& in, const RunContext& ctx, size_t index, Daemon* d,
                   StealMeter* steal) {
  d->socket_path = "serve-" + std::to_string(index) + ".sock";
  d->checkpoint_dir = "ckpt-" + std::to_string(index);
  std::filesystem::remove_all(d->checkpoint_dir);
  std::filesystem::create_directory(d->checkpoint_dir);
  const CpuTicks ticks = ReadCpuTicks();
  const double start = Now();
  if (!d->child.Spawn({ctx.bin_dir + "/crh_serve", "--socket", d->socket_path, "--schema",
                       kSchemaSpec, "--universe", in.universe_path, "--checkpoint-dir",
                       d->checkpoint_dir},
                      "serve.log")) {
    return -1;
  }
  std::string reply;
  while (Now() - start < kChildTimeoutSeconds) {
    if (d->control.Connect(d->socket_path) &&
        d->control.Call("{\"cmd\":\"ping\"}", &reply, kReplyTimeoutMs) && ReplyOk(reply)) {
      const double setup = Now() - start;
      steal->Add(ticks, ReadCpuTicks());
      return setup;
    }
    if (!d->child.Alive()) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return -1;
}

bool StopDaemon(Daemon* d) {
  std::string reply;
  const bool asked = d->control.Call("{\"cmd\":\"shutdown\"}", &reply, kReplyTimeoutMs);
  d->control.Close();
  const int code = asked ? d->child.Wait(kChildTimeoutSeconds) : -1;
  d->child.Kill();
  std::filesystem::remove_all(d->checkpoint_dir);
  std::filesystem::remove(d->socket_path);
  return code == 0;
}

struct QueryLoad {
  std::vector<double> due_s;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Open-loop query client: request j is due at start + j * period and is
/// timed from that due time, so a stall also delays the requests behind it.
void QueryLoop(const std::string& socket_path, uint64_t seed, size_t num_objects,
               double start, double period, const std::atomic<bool>& stop,
               QueryLoad* load) {
  // Wake-ups as close to the due time as the kernel allows (the default
  // 50us timer slack would read as generator lateness).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  LineClient client;
  QueryMix mix(seed, num_objects);
  std::string reply;
  for (uint64_t j = 0; !stop.load(std::memory_order_relaxed); ++j) {
    const double due = start + static_cast<double>(j) * period;
    WaitUntil(due, kSpinSeconds);
    if (stop.load(std::memory_order_relaxed)) break;
    const std::string line = mix.Next();
    if (!client.connected() && !client.Connect(socket_path)) {
      ++load->attempted;
      ++load->failed;
      continue;
    }
    const double sent = Now();
    const bool answered = client.Call(line, &reply, kReplyTimeoutMs, kSpinSeconds);
    const double done = Now();
    ++load->attempted;
    if (!answered || !ReplyOk(reply)) {
      ++load->failed;
      if (!answered) client.Close();
      continue;
    }
    load->due_s.push_back(due);
    load->latency_us.push_back((done - due) * 1e6);
    load->late_us.push_back((sent - due) * 1e6);
  }
}

uint64_t UintField(const std::string& reply, const char* key) {
  return std::strtoull(RawField(reply, key).c_str(), nullptr, 10);
}

/// One daemon session: start, ingest the fixed chunk sequence under the
/// query load, read back weights and the truth sample, shut down.
bool RunSession(const RunInputs& in, const RunContext& ctx, size_t index,
                ServeResult* out, Report* report) {
  Daemon d;
  const double setup = StartDaemon(in, ctx, index, &d, &out->setup_steal);
  if (setup < 0) {
    Fail(report, "crh_serve did not answer ping after start");
    return false;
  }
  out->setup_s.push_back(setup);

  std::atomic<bool> stop{false};
  std::vector<QueryLoad> loads(kQueryConnections);
  std::vector<std::thread> threads;
  const double period = static_cast<double>(kQueryConnections) / kQueryRatePerSecond;
  const double query_start = Now() + 0.001;
  for (size_t t = 0; t < kQueryConnections; ++t) {
    threads.emplace_back(QueryLoop, d.socket_path,
                         Mix(ctx.seed ^ Mix(index * kQueryConnections + t + 1)),
                         in.gen.num_objects(),
                         query_start + static_cast<double>(t) * period /
                                           static_cast<double>(kQueryConnections),
                         period, std::cref(stop), &loads[t]);
  }

  const uint64_t chunks = in.chunk_csvs.size();
  std::vector<double> sent_at(chunks, 0.0);
  std::vector<double> visible_ms(chunks, 0.0);
  std::vector<double> published_at(chunks, 0.0);
  uint64_t next = 0;
  uint64_t solved = 0;
  bool fatal = false;
  std::string reply;
  // The machine's CPU ticks at the start of the ingest and when each
  // window's last chunk is seen published.
  const uint64_t ingest_windows =
      (chunks + kThroughputWindowChunks - 1) / kThroughputWindowChunks;
  std::vector<CpuTicks> window_ticks = {ReadCpuTicks()};
  const double begin = Now();
  while (solved < chunks && !fatal) {
    while (next < chunks && next < solved + kMaxUnpublished && !fatal) {
      const std::string line = IngestLine(next, in.chunk_csvs[next]);
      const double sent = Now();
      ++report->attempted;
      if (!d.control.Call(line, &reply, kReplyTimeoutMs)) {
        ++report->failed;
        Fail(report, "ingest of chunk " + std::to_string(next) + " got no reply");
        fatal = true;
      } else if (ReplyOk(reply) && RawField(reply, "duplicate").empty()) {
        sent_at[next++] = sent;
      } else {
        ++report->failed;
        if (RawField(reply, "error") == "\"overloaded\"") {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(UintField(reply, "retry_after_ms")));
        } else {
          Fail(report, "ingest of chunk " + std::to_string(next) + " rejected: " + reply);
          fatal = true;
        }
      }
    }
    if (fatal) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(kStatusPollPauseSeconds));
    if (!d.control.Call("{\"cmd\":\"status\"}", &reply, kReplyTimeoutMs)) {
      Fail(report, "status poll got no reply");
      fatal = true;
      break;
    }
    const double now = Now();
    ++out->status_polls;
    if (RawField(reply, "ingest_failed") == "true") {
      Fail(report, "crh_serve reports a failed ingest: " + reply);
      fatal = true;
      break;
    }
    const uint64_t now_solved = std::min(UintField(reply, "chunks_solved"), next);
    for (uint64_t c = solved; c < now_solved; ++c) {
      visible_ms[c] = (now - sent_at[c]) * 1e3;
      published_at[c] = now;
    }
    solved = std::max(solved, now_solved);
    while (window_ticks.size() <= ingest_windows &&
           solved >= std::min(chunks, window_ticks.size() * kThroughputWindowChunks)) {
      window_ticks.push_back(ReadCpuTicks());
    }
  }
  const double end = Now();
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  std::vector<std::vector<double>> windows;
  for (const QueryLoad& load : loads) {
    report->attempted += load.attempted;
    report->failed += load.failed;
    out->query_us.insert(out->query_us.end(), load.latency_us.begin(), load.latency_us.end());
    out->query_late_us.insert(out->query_late_us.end(), load.late_us.begin(),
                              load.late_us.end());
    for (size_t q = 0; q < load.due_s.size(); ++q) {
      const auto window = static_cast<size_t>((load.due_s[q] - query_start) / kWindowSeconds);
      if (windows.size() <= window) windows.resize(window + 1);
      windows[window].push_back(load.latency_us[q]);
    }
  }
  for (const std::vector<double>& window : windows) {
    if (window.size() >= kMinWindowQueries) {
      out->query_window_p99_us.push_back(Quantile(window, 0.99));
    }
  }
  if (fatal) {
    StopDaemon(&d);
    return false;
  }
  out->ingest_seconds += end - begin;
  out->ingest_steal.Add(window_ticks.front(), window_ticks.back());
  out->chunks += chunks;
  for (const uint64_t claims : in.chunk_claims) out->claims += claims;
  // Guest time: wall time less the share of the CPU time the guest wanted
  // over the window that the hypervisor gave to other guests, so that a
  // busy neighbour does not read as a slower program.
  for (uint64_t w = 0; w < ingest_windows; ++w) {
    const uint64_t first = w * kThroughputWindowChunks;
    const uint64_t after = std::min(chunks, first + kThroughputWindowChunks);
    const double guest = 1.0 - StealShare(window_ticks[w], window_ticks[w + 1]);
    uint64_t claims = 0;
    for (uint64_t c = first; c < after; ++c) {
      claims += in.chunk_claims[c];
      visible_ms[c] *= guest;
    }
    const double window_start = first == 0 ? begin : published_at[first - 1];
    out->window_claims_per_s.push_back(static_cast<double>(claims) /
                                       ((published_at[after - 1] - window_start) * guest));
  }
  out->visible_ms.insert(out->visible_ms.end(), visible_ms.begin(), visible_ms.end());
  const size_t tenth = std::max<size_t>(1, chunks / 10);
  out->visible_first_tenth_ms.insert(out->visible_first_tenth_ms.end(), visible_ms.begin(),
                                     visible_ms.begin() + static_cast<ptrdiff_t>(tenth));
  out->visible_last_tenth_ms.insert(out->visible_last_tenth_ms.end(),
                                    visible_ms.end() - static_cast<ptrdiff_t>(tenth),
                                    visible_ms.end());

  ServedAnswers answers;
  bool answered = d.control.Call("{\"cmd\":\"status\"}", &reply, kReplyTimeoutMs);
  out->shed += UintField(reply, "shed");
  out->io_errors += UintField(reply, "io_errors");
  answered = answered && d.control.Call("{\"cmd\":\"weights\"}", &reply, kReplyTimeoutMs);
  answers.weights = RawField(reply, "weights");
  const crh::Schema& schema = in.gen.truth().schema();
  for (const size_t object : in.sample_objects) {
    for (size_t m = 0; m < schema.num_properties() && answered; ++m) {
      answered = d.control.Call("{\"cmd\":\"truth\",\"object\":\"" +
                                    in.gen.truth().object_id(object) + "\",\"property\":\"" +
                                    schema.property(m).name + "\"}",
                                &reply, kReplyTimeoutMs);
      answers.values.push_back(RawField(reply, "value"));
    }
  }
  out->peak_rss_mb.push_back(PeakRssMb(d.child.pid()));
  if (!answered) Fail(report, "crh_serve stopped answering after ingest");
  if (!StopDaemon(&d)) Fail(report, "crh_serve did not drain cleanly on shutdown");
  out->sessions.push_back(std::move(answers));
  return answered;
}

/// Runs crh_cli; returns wall seconds, or -1 on a nonzero exit. Adds the
/// machine's CPU ticks over the run to `steal` when given.
double RunCli(const RunContext& ctx, const std::vector<std::string>& args, double* rss_mb,
              StealMeter* steal) {
  std::vector<std::string> argv = {ctx.bin_dir + "/crh_cli", "--schema", kSchemaSpec};
  argv.insert(argv.end(), args.begin(), args.end());
  Child child;
  const CpuTicks ticks = ReadCpuTicks();
  const double start = Now();
  if (!child.Spawn(argv, "cli.log")) return -1;
  struct rusage usage = {};
  const int code = child.Wait(kChildTimeoutSeconds, &usage);
  const double wall = Now() - start;
  if (steal != nullptr) steal->Add(ticks, ReadCpuTicks());
  if (rss_mb != nullptr) *rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return code == 0 ? wall : -1;
}

/// Formats a truth cell exactly as crh_serve's `truth` reply does.
std::string ServedValueText(const crh::Dataset& universe, size_t m, const crh::Value& v) {
  std::string text;
  if (v.is_missing() || (!v.is_continuous() && v.category() == crh::kInvalidCategory)) {
    return "null";
  }
  if (v.is_continuous()) {
    crh::AppendJsonDouble(&text, v.continuous());
  } else {
    crh::AppendJsonString(&text, universe.dict(m).label(v.category()));
  }
  return text;
}

}  // namespace

std::unique_ptr<RunInputs> PrepareInputs(const WorkloadSpec& spec, uint64_t seed) {
  auto in = std::make_unique<RunInputs>(spec, seed);
  const Generator& gen = in->gen;
  const bool serve = spec.kind == WorkloadKind::kServe;
  const size_t chunks = serve ? spec.session_chunks : gen.chunks_per_cycle();
  for (uint64_t c = 0; c < chunks; ++c) {
    in->chunk_csvs.push_back(gen.ChunkCsv(c));
    in->chunk_claims.push_back(CountClaims(in->chunk_csvs.back()));
  }
  const size_t cycle = std::min(chunks, gen.chunks_per_cycle());
  for (size_t c = 0; c < cycle; ++c) in->batch_claims += in->chunk_claims[c];
  if (serve) {
    in->universe_path = "universe.csv";
    in->batch_path = "cycle.csv";
    CRH_CHECK(WriteFile(in->universe_path, gen.UniverseCsv()));
    for (uint64_t c = chunks - std::min(chunks, kSampleChunks); c < chunks; ++c) {
      for (const size_t object : gen.ChunkObjects(c)) in->sample_objects.push_back(object);
    }
  } else {
    in->universe_path = in->batch_path = "batch.csv";
    in->truth_path = "truth.csv";
    CRH_CHECK(WriteFile(in->truth_path, gen.TruthCsv()));
  }
  CRH_CHECK(WriteFile(in->batch_path, ConcatClaimsCsv(in->chunk_csvs, cycle)));
  return in;
}

ServeResult RunServe(const RunInputs& in, const RunContext& ctx, Report* report) {
  ServeResult result;
  const double start = Now();
  size_t sessions = 0;
  do {
    if (!RunSession(in, ctx, sessions++, &result, report)) return result;
  } while (Now() - start < ctx.seconds && sessions < kMaxSessions);
  // Set-up only: start, first ping, shut down.
  while (NeedSetupSample(result.setup_s)) {
    Daemon d;
    const double setup = StartDaemon(in, ctx, sessions++, &d, &result.setup_steal);
    if (setup < 0) {
      Fail(report, "crh_serve did not answer ping after start");
      return result;
    }
    result.setup_s.push_back(setup);
    if (!StopDaemon(&d)) Fail(report, "crh_serve did not drain cleanly on shutdown");
  }
  return result;
}

BatchResult RunBatch(const RunInputs& in, const RunContext& ctx, Report* report) {
  BatchResult result;
  const std::string algorithm = in.gen.spec().algorithm;
  const double start = Now();
  while (result.wall_s.size() < kMinBatchRuns ||
         (Now() - start < ctx.seconds && result.wall_s.size() < kMaxBatchRuns)) {
    std::filesystem::remove("fused.csv");
    double rss = 0;
    StealMeter steal;
    const double wall = RunCli(ctx,
                               {"--input", in.batch_path, "--truth", in.truth_path,
                                "--output", "fused.csv", "--algorithm", algorithm},
                               &rss, &steal);
    ++report->attempted;
    if (wall < 0) {
      ++report->failed;
      Fail(report, "crh_cli exited nonzero (see cli.log)");
      return result;
    }
    std::string fused;
    CRH_CHECK(ReadFile("fused.csv", &fused));
    if (result.wall_s.empty()) {
      result.fused_csv = std::move(fused);
    } else if (fused != result.fused_csv) {
      Fail(report, "crh_cli wrote a different fused CSV on a repeated run");
    }
    result.wall_s.push_back(wall);
    result.guest_s.push_back(wall * (1.0 - steal.share()));
    result.run_steal.Add(steal);
    result.peak_rss_mb.push_back(rss);
  }
  // Set-up: the load floor of a batch run (parse and index the claims,
  // then the trivial mean/vote resolver).
  while (NeedSetupSample(result.setup_s)) {
    const double wall = RunCli(ctx, {"--input", in.batch_path, "--algorithm", "mean"}, nullptr,
                               &result.setup_steal);
    ++report->attempted;
    if (wall < 0) {
      ++report->failed;
      Fail(report, "crh_cli --algorithm mean exited nonzero");
      return result;
    }
    result.setup_s.push_back(wall);
  }
  // Small queries: the batch tool asked to fuse one chunk's claims (100
  // objects), the latency a caller sees for a small request. They use the
  // serial solver on both batch workloads: the MapReduce engine is for
  // large inputs, and on a 100-object input its time is thread hand-offs.
  const size_t inputs = std::min(kQueryInputs, in.chunk_csvs.size());
  for (size_t c = 0; c < inputs; ++c) {
    CRH_CHECK(WriteFile("query-" + std::to_string(c) + ".csv", in.chunk_csvs[c]));
  }
  const double query_start = Now();
  for (size_t q = 0; result.query_us.size() < kMinQueries ||
                     (Now() - query_start < kQuerySeconds && q < kMaxQueries);
       ++q) {
    const double wall = RunCli(
        ctx, {"--input", "query-" + std::to_string(q % inputs) + ".csv", "--algorithm", "crh"},
        nullptr, nullptr);
    ++report->attempted;
    if (wall < 0) {
      ++report->failed;
      Fail(report, "crh_cli exited nonzero on a one-chunk input");
      return result;
    }
    result.query_us.push_back(wall * 1e6);
  }
  return result;
}

void AddServeMetrics(const ServeResult& r, Report* report) {
  report->Add("claims_per_s", Median(r.window_claims_per_s), "claims/s");
  report->Add("visible_p50_ms", Quantile(r.visible_ms, 0.5), "ms");
  // One set-up is too short to read its own steal share from clock ticks;
  // the share is pooled over all of them.
  report->Add("setup_s", Median(r.setup_s) * (1.0 - r.setup_steal.share()), "s");
  report->Add("peak_rss_mb", Median(r.peak_rss_mb), "MB");
}

void AddBatchMetrics(const RunInputs& in, const BatchResult& r, Report* report) {
  const double guest = Median(r.guest_s);
  report->Add("claims_per_s", static_cast<double>(in.batch_claims) / guest, "claims/s");
  report->Add("visible_p50_ms", guest * 1e3, "ms");
  report->Add("setup_s", Median(r.setup_s) * (1.0 - r.setup_steal.share()), "s");
  report->Add("peak_rss_mb", Median(r.peak_rss_mb), "MB");
}

crh::Dataset ReadClaims(const std::string& path) {
  auto data = crh::ReadObservationsCsv(WeatherSchema(), path);
  CRH_CHECK_MSG(data.ok(), data.status().ToString());
  return std::move(data).ValueOrDie();
}

void Score::Add(const crh::Dataset& claims, const crh::ValueTable& estimate) {
  auto eval = crh::Evaluate(claims, estimate);
  CRH_CHECK(eval.ok());
  categorical += eval->categorical_evaluated;
  errors += eval->categorical_errors;
  continuous += eval->continuous_evaluated;
  distance += eval->mnad * static_cast<double>(eval->continuous_evaluated);
}

void Score::AddChunk(const Generator& gen, crh::DataChunk* chunk,
                     const crh::ValueTable& truths) {
  const size_t properties = truths.num_properties();
  crh::ValueTable estimate(chunk->parent_object.size(), properties);
  crh::ValueTable truth(chunk->parent_object.size(), properties);
  for (size_t local = 0; local < chunk->parent_object.size(); ++local) {
    for (size_t m = 0; m < properties; ++m) {
      estimate.Set(local, m, truths.Get(chunk->parent_object[local], m));
      truth.Set(local, m, gen.truth().ground_truth().Get(chunk->parent_object[local], m));
    }
  }
  chunk->data.set_ground_truth(std::move(truth));
  Add(chunk->data, estimate);
}

double Score::mnad() const {
  return continuous > 0 ? distance / static_cast<double>(continuous) : 0;
}

double Score::error_rate() const {
  return categorical > 0 ? static_cast<double>(errors) / static_cast<double>(categorical) : 0;
}

void CheckQuality(const Score& score, Report* report) {
  // A fused result this far from the generator's truth is wrong, not merely
  // worse: CRH lands near 0.1 MNAD and well under 1% errors on these inputs.
  if (!(score.mnad() > 0 && score.mnad() < 0.5) || !(score.error_rate() < 0.05)) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "fused truths far from ground truth: mnad %.4f, error rate %.4f",
                  score.mnad(), score.error_rate());
    Fail(report, line);
  }
}

std::unique_ptr<crh::StreamEngine> ReferenceEngine(const crh::Dataset& universe,
                                                   const RunInputs& in, Score* score) {
  auto engine = crh::StreamEngine::Open(universe, crh::IncrementalCrhOptions{}, {});
  CRH_CHECK(engine.ok());
  crh::ChunkCodec codec(universe);
  for (size_t c = 0; c < in.chunk_csvs.size(); ++c) {
    auto decoded = codec.Decode(in.chunk_csvs[c], static_cast<int64_t>(c), false);
    CRH_CHECK(decoded.ok());
    crh::DataChunk chunk = std::move(decoded).ValueOrDie();
    CRH_CHECK((*engine)->ApplyChunk(chunk, false).ok());
    score->AddChunk(in.gen, &chunk, (*engine)->truths());
  }
  return std::move(engine).ValueOrDie();
}

std::string ReferenceFusedCsv(const crh::Dataset& batch, const std::string& algorithm) {
  crh::CrhOptions options;  // crh_cli's defaults (--weights max)
  crh::ValueTable truths;
  if (algorithm == "parallel") {
    crh::ParallelCrhOptions parallel;
    parallel.base = options;
    parallel.mr.num_reducers = 10;
    auto result = crh::RunParallelCrh(batch, parallel);
    CRH_CHECK(result.ok());
    truths = std::move(result->truths);
  } else {
    auto result = crh::RunCrh(batch, options);
    CRH_CHECK(result.ok());
    truths = std::move(result->truths);
  }
  crh::Dataset fused = batch;
  fused.set_ground_truth(std::move(truths));
  std::ostringstream out;
  CRH_CHECK(crh::WriteGroundTruthCsv(fused, out).ok());
  return out.str();
}

void CheckServe(const RunInputs& in, const ServeResult& result,
                const crh::StreamEngine& reference, const crh::Dataset& universe,
                Report* report) {
  crh::JsonWriter writer;
  writer.AddDoubleArray("weights", reference.source_weights());
  const std::string weights = RawField(std::move(writer).Finish(), "weights");
  std::vector<std::string> values;
  const size_t properties = universe.num_properties();
  for (const size_t object : in.sample_objects) {
    for (size_t m = 0; m < properties; ++m) {
      values.push_back(ServedValueText(universe, m, reference.truths().Get(object, m)));
    }
  }
  for (size_t s = 0; s < result.sessions.size(); ++s) {
    const ServedAnswers& served = result.sessions[s];
    if (served.weights != weights) {
      Fail(report, "session " + std::to_string(s) + ": served weights " + served.weights +
                       " differ from the in-process engine's " + weights);
    }
    if (served.values != values) {
      size_t first = 0;
      while (first < values.size() && first < served.values.size() &&
             served.values[first] == values[first]) {
        ++first;
      }
      Fail(report, "session " + std::to_string(s) + ": served truth #" +
                       std::to_string(first) + " differs from the in-process engine's");
    }
  }
}

void CheckBatch(const RunInputs& in, const BatchResult& result, const std::string& expected,
                Report* report, Score* score) {
  if (result.fused_csv.empty()) return;  // crh_cli failed; already reported
  if (result.fused_csv != expected) {
    Fail(report, "crh_cli's fused CSV differs from the in-process solver's");
  }
  crh::Dataset data = ReadClaims(in.batch_path);
  std::istringstream fused(result.fused_csv);
  CRH_CHECK(crh::ReadGroundTruthCsv(fused, &data).ok());
  const crh::ValueTable estimate = data.ground_truth();
  CRH_CHECK(crh::ReadGroundTruthCsv(in.truth_path, &data).ok());
  score->Add(data, estimate);
}

}  // namespace perfbench
