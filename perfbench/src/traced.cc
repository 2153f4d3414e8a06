// The traced run: each layer's public calls made in-process on the run's
// own inputs, with a span around every call. Spans live in the benchmark's
// files only; nothing inside the program is instrumented.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "bench.h"
#include "client.h"
#include "common/check.h"
#include "core/crh.h"
#include "data/claim_index.h"
#include "data/csv.h"
#include "data/stats.h"
#include "mapreduce/parallel_crh.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/incremental_crh.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Every per-layer metric, its unit, and the end-to-end metric and
/// workload it should move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"serve.protocol.parse_query_us", "us", "loadgen.query_p50_us on serve_2k, serve_200k"},
    {"serve.protocol.parse_ingest_ms", "ms", "visible_p50_ms on serve_2k, serve_200k"},
    {"serve.query.handle_us", "us",
     "loadgen.query_p50_us, loadgen.query_p99_us on serve_2k, serve_200k (std::map lookup "
     "grows with N)"},
    {"serve.chunk_codec.decode_ms", "ms",
     "claims_per_s, visible_p50_ms on serve_2k, serve_200k"},
    {"serve.snapshot.publish_ms", "ms",
     "visible_p50_ms, claims_per_s on serve_200k; near zero on serve_2k"},
    {"serve.snapshot.bytes", "bytes", "peak_rss_mb on serve_200k"},
    {"serve.admission.shed", "count", "failed on serve_2k, serve_200k"},
    {"serve.io_errors", "count", "failed on serve_2k, serve_200k"},
    {"stream.apply_chunk_ms.p50", "ms", "visible_p50_ms on serve_2k, serve_200k"},
    {"stream.apply_chunk_ms.p99", "ms", "loadgen.visible_p99_ms on serve_2k, serve_200k"},
    {"stream.checkpoint_ms", "ms",
     "loadgen.visible_p99_ms on serve_2k (stream age), visible_p50_ms on serve_200k (N)"},
    {"stream.checkpoint_bytes.first", "bytes", "loadgen.visible_p99_ms on serve_2k"},
    {"stream.checkpoint_bytes.last", "bytes", "loadgen.visible_p99_ms on serve_2k"},
    {"stream.process_chunk_ms", "ms", "claims_per_s on serve_2k, serve_200k"},
    {"stream.visible_p50_ms.first_tenth", "ms", "loadgen.visible_p99_ms on serve_2k (stream age)"},
    {"stream.visible_p50_ms.last_tenth", "ms", "loadgen.visible_p99_ms on serve_2k (stream age)"},
    {"data.csv.read_ns_per_claim", "ns/claim",
     "claims_per_s on batch_crh, batch_parallel; setup_s on serve_2k, serve_200k"},
    {"data.csv.write_ms", "ms", "claims_per_s on batch_crh, batch_parallel"},
    {"data.claim_index.build_ns_per_claim", "ns/claim",
     "claims_per_s on batch_crh; visible_p50_ms on serve_2k, serve_200k"},
    {"data.entry_stats_ns_per_cell", "ns/cell",
     "claims_per_s on batch_crh; visible_p50_ms on serve_2k, serve_200k"},
    {"data.dense_bytes", "bytes", "peak_rss_mb, setup_s on serve_200k"},
    {"core.run_crh_ms", "ms", "claims_per_s on batch_crh"},
    {"core.iterations", "count", "claims_per_s on batch_crh"},
    {"core.ns_per_claim_iter", "ns", "claims_per_s on batch_crh"},
    {"losses.truth_pass_ns_per_claim", "ns/claim", "claims_per_s on batch_crh"},
    {"core.deviation_pass_ns_per_claim", "ns/claim", "claims_per_s on batch_crh"},
    {"mapreduce.run_parallel_crh_ms", "ms", "claims_per_s, peak_rss_mb on batch_parallel"},
    {"mapreduce.iterations", "count", "claims_per_s, peak_rss_mb on batch_parallel"},
    {"mapreduce.shuffle_records", "count", "claims_per_s, peak_rss_mb on batch_parallel"},
    {"mapreduce.combiner_ratio", "ratio", "claims_per_s, peak_rss_mb on batch_parallel"},
    {"mapreduce.task_retries", "count", "claims_per_s, peak_rss_mb on batch_parallel"},
    {"loadgen.query_p50_us", "us",
     "the query median on every workload (end-to-end, unbounded: see README)"},
    {"loadgen.query_p99_us", "us",
     "the query tail on every workload (end-to-end, unbounded: see README)"},
    {"loadgen.visible_p99_ms", "ms",
     "the visibility tail on every workload (end-to-end, unbounded: see README)"},
    {"loadgen.query_late_p99_us", "us", "loadgen.query_p99_us on serve_2k, serve_200k"},
    {"loadgen.status_polls_per_chunk", "count", "visible_p50_ms on serve_2k, serve_200k"},
    {"loadgen.steal_share", "ratio",
     "none: the wanted CPU time stolen by the hypervisor, taken out of every time"},
    {"loadgen.wall_claims_per_s", "claims/s", "claims_per_s, as wall-clock time (see README)"},
    {"quality.error_rate", "ratio", "correctness on every workload (gated, < 0.05)"},
    {"trace.chunk_total_ms", "ms", "visible_p50_ms on serve_2k, serve_200k"},
    {"trace.visible_p50_ms", "ms", "the untraced visible_p50_ms, beside the traced total"},
    {"trace.gap_ms", "ms", "socket, queueing, polling and tracing cost on serve_*"},
    {"trace.self_ms.serve", "ms", "see the serve.* metrics"},
    {"trace.self_ms.stream", "ms", "see the stream.* metrics"},
    {"trace.self_ms.data", "ms", "see the data.* metrics"},
    {"trace.self_ms.core", "ms", "see the core.* metrics"},
    {"trace.self_ms.losses", "ms", "see the losses.* metrics"},
    {"trace.self_ms.mapreduce", "ms", "see the mapreduce.* metrics"},
};

/// Query lines replayed through the protocol parser and the in-process
/// server, and chunks the in-process server ingests before them.
constexpr size_t kTracedQueries = 5000;
constexpr size_t kServerChunks = 20;
/// Repeats of each single-pass kernel; the median pass is reported.
constexpr int kPassRepeats = 5;

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

uint64_t LargestFileBytes(const std::string& dir) {
  uint64_t largest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) largest = std::max<uint64_t>(largest, entry.file_size());
  }
  return largest;
}

}  // namespace

void RunTraced(const RunInputs& in, const RunContext& ctx, const ServeResult* serve,
               const BatchResult* batch, Report* report) {
  Tracer tracer;
  std::map<std::string, double> v;
  const bool is_serve = serve != nullptr;

  // --- data: the universe (serve) or batch (batch) claims CSV.
  crh::Dataset universe;
  {
    Tracer::Scope span(tracer, "data.csv.read", 0);
    universe = ReadClaims(in.universe_path);
  }
  v["data.csv.read_ns_per_claim"] = Median(tracer.Durations("data.csv.read")) * 1e9 /
                                    static_cast<double>(universe.num_observations());
  const size_t n = universe.num_objects();
  const size_t m = universe.num_properties();
  const size_t k = universe.num_sources();
  v["data.dense_bytes"] = static_cast<double>(k * n * m * sizeof(crh::Value));

  // --- serve + stream: the per-chunk pipeline a daemon runs, decode through
  // publish, with an explicit checkpoint after each chunk (the same work as
  // checkpoint_every=1) so it gets its own span.
  const std::string checkpoint_dir = "trace-ckpt";
  std::filesystem::remove_all(checkpoint_dir);
  std::filesystem::create_directory(checkpoint_dir);
  crh::StreamResilienceOptions resilience;
  resilience.checkpoint_dir = checkpoint_dir;
  resilience.checkpoint_every = std::numeric_limits<uint64_t>::max();
  const crh::IncrementalCrhOptions options;
  auto opened = crh::StreamEngine::Open(universe, options, resilience);
  CRH_CHECK(opened.ok());
  std::unique_ptr<crh::StreamEngine> engine = std::move(opened).ValueOrDie();
  crh::ChunkCodec codec(universe);
  crh::SnapshotPublisher publisher;
  crh::IncrementalCrhProcessor processor(k, options);
  Score score;
  const size_t max_request_bytes = crh::ServeOptions{}.max_request_bytes;
  for (uint64_t c = 0; c < in.chunk_csvs.size(); ++c) {
    const std::string line = IngestLine(c, in.chunk_csvs[c]);
    crh::DataChunk chunk;
    {
      Tracer::Scope whole(tracer, "serve.chunk", c);
      std::string csv;
      {
        Tracer::Scope span(tracer, "serve.protocol.parse_ingest", c);
        auto parsed = crh::ParseJsonObject(line, max_request_bytes);
        CRH_CHECK(parsed.ok());
        csv = *parsed->GetString("csv");
      }
      {
        Tracer::Scope span(tracer, "serve.chunk_codec.decode", c);
        auto decoded = codec.Decode(csv, static_cast<int64_t>(c), false);
        CRH_CHECK(decoded.ok());
        chunk = std::move(decoded).ValueOrDie();
      }
      {
        Tracer::Scope span(tracer, "stream.apply_chunk", c);
        CRH_CHECK(engine->ApplyChunk(chunk, false).ok());
      }
      {
        Tracer::Scope span(tracer, "stream.checkpoint", c);
        CRH_CHECK(engine->WriteCheckpoint().ok());
      }
      {
        Tracer::Scope span(tracer, "serve.snapshot.publish", c);
        publisher.Publish(std::make_shared<const crh::ServeSnapshot>(
            crh::SnapshotFromEngine(*engine, c + 1)));
      }
    }
    if (is_serve) score.AddChunk(in.gen, &chunk, engine->truths());
    if (c == 0) {
      v["stream.checkpoint_bytes.first"] = static_cast<double>(LargestFileBytes(checkpoint_dir));
    }
    if (c + 1 == in.chunk_csvs.size()) {
      v["stream.checkpoint_bytes.last"] = static_cast<double>(LargestFileBytes(checkpoint_dir));
    }
    // The processor alone, outside the chunk pipeline: I-CRH's per-chunk
    // step without the fused-table maintenance around it.
    Tracer::Scope span(tracer, "stream.process_chunk", c);
    CRH_CHECK(processor.ProcessChunk(chunk.data).ok());
  }
  std::filesystem::remove_all(checkpoint_dir);
  v["serve.protocol.parse_ingest_ms"] =
      Median(tracer.Durations("serve.protocol.parse_ingest")) * 1e3;
  v["serve.chunk_codec.decode_ms"] = Median(tracer.Durations("serve.chunk_codec.decode")) * 1e3;
  v["serve.snapshot.publish_ms"] = Median(tracer.Durations("serve.snapshot.publish")) * 1e3;
  v["serve.snapshot.bytes"] = static_cast<double>(sizeof(crh::ServeSnapshot) +
                                                  n * m * sizeof(crh::Value) +
                                                  k * (2 * sizeof(double) + sizeof(uint64_t)));
  const std::vector<double> apply = tracer.Durations("stream.apply_chunk");
  v["stream.apply_chunk_ms.p50"] = Quantile(apply, 0.5) * 1e3;
  v["stream.apply_chunk_ms.p99"] = Quantile(apply, 0.99) * 1e3;
  v["stream.checkpoint_ms"] = Median(tracer.Durations("stream.checkpoint")) * 1e3;
  v["stream.process_chunk_ms"] = Median(tracer.Durations("stream.process_chunk")) * 1e3;
  v["trace.chunk_total_ms"] = Median(tracer.Durations("serve.chunk")) * 1e3;

  // --- serve: the protocol parser and a started in-process server on the
  // query lines the load generator's first connection sends.
  std::vector<std::string> queries;
  QueryMix mix(Mix(ctx.seed ^ Mix(1)), n);
  for (size_t q = 0; q < kTracedQueries; ++q) queries.push_back(mix.Next());
  for (size_t q = 0; q < queries.size(); ++q) {
    Tracer::Scope span(tracer, "serve.protocol.parse_query", q);
    CRH_CHECK(crh::ParseJsonObject(queries[q], max_request_bytes).ok());
  }
  v["serve.protocol.parse_query_us"] = Median(tracer.Durations("serve.protocol.parse_query")) * 1e6;
  {
    crh::ServeOptions serve_options;
    serve_options.socket_path = "trace.sock";
    crh::CrhServer server(universe, options, crh::StreamResilienceOptions{}, serve_options);
    CRH_CHECK(server.Start().ok());
    const size_t warm = std::min(kServerChunks, in.chunk_csvs.size());
    for (uint64_t c = 0; c < warm; ++c) {
      CRH_CHECK(ReplyOk(server.HandleRequestLine(IngestLine(c, in.chunk_csvs[c]))));
    }
    while (std::strtoull(RawField(server.HandleRequestLine("{\"cmd\":\"status\"}"),
                                  "chunks_solved").c_str(), nullptr, 10) < warm) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      Tracer::Scope span(tracer, "serve.query.handle", q);
      CRH_CHECK(ReplyOk(server.HandleRequestLine(queries[q])));
    }
    server.RequestDrain();
    CRH_CHECK(server.Wait().ok());
  }
  v["serve.query.handle_us"] = Median(tracer.Durations("serve.query.handle")) * 1e6;

  // --- data, core, losses, mapreduce on the batch claims.
  crh::Dataset cycle;
  if (is_serve) {
    Tracer::Scope span(tracer, "data.csv.read_cycle", 0);
    cycle = ReadClaims(in.batch_path);
  }
  const crh::Dataset& claims = is_serve ? cycle : universe;
  const double num_claims = static_cast<double>(claims.num_observations());
  crh::ClaimIndex index;
  {
    Tracer::Scope span(tracer, "data.claim_index.build", 0);
    index = crh::ClaimIndex::Build(claims);
  }
  v["data.claim_index.build_ns_per_claim"] =
      Median(tracer.Durations("data.claim_index.build")) * 1e9 / num_claims;
  crh::EntryStats stats;
  {
    Tracer::Scope span(tracer, "data.entry_stats", 0);
    stats = crh::ComputeEntryStats(claims);
  }
  v["data.entry_stats_ns_per_cell"] =
      Median(tracer.Durations("data.entry_stats")) * 1e9 /
      static_cast<double>(claims.num_sources() * claims.num_entries());

  const crh::CrhOptions crh_options;  // crh_cli's defaults
  crh::Result<crh::CrhResult> solved = crh::Status::OK();
  {
    Tracer::Scope span(tracer, "core.run_crh", 0);
    solved = crh::RunCrh(claims, crh_options);
  }
  CRH_CHECK(solved.ok());
  const double run_crh = Median(tracer.Durations("core.run_crh"));
  v["core.run_crh_ms"] = run_crh * 1e3;
  v["core.iterations"] = solved->iterations;
  v["core.ns_per_claim_iter"] = run_crh * 1e9 / (num_claims * std::max(1, solved->iterations));

  crh::SolverWorkspace workspace;
  crh::ValueTable truths;
  for (int r = 0; r < kPassRepeats; ++r) {
    Tracer::Scope span(tracer, "losses.truth_pass", static_cast<uint64_t>(r));
    truths = crh::ComputeTruthsGivenWeights(claims, index, solved->source_weights, crh_options,
                                            nullptr, workspace);
  }
  v["losses.truth_pass_ns_per_claim"] =
      Median(tracer.Durations("losses.truth_pass")) * 1e9 / num_claims;
  for (int r = 0; r < kPassRepeats; ++r) {
    Tracer::Scope span(tracer, "core.deviation_pass", static_cast<uint64_t>(r));
    crh::ComputeSourceDeviations(claims, index, truths, stats, crh_options, nullptr, workspace);
  }
  v["core.deviation_pass_ns_per_claim"] =
      Median(tracer.Durations("core.deviation_pass")) * 1e9 / num_claims;

  crh::ParallelCrhOptions parallel_options;
  parallel_options.base = crh_options;
  parallel_options.mr.num_reducers = 10;  // crh_cli's --reducers default
  crh::Result<crh::ParallelCrhResult> parallel = crh::Status::OK();
  {
    Tracer::Scope span(tracer, "mapreduce.run_parallel_crh", 0);
    parallel = crh::RunParallelCrh(claims, parallel_options);
  }
  CRH_CHECK(parallel.ok());
  v["mapreduce.run_parallel_crh_ms"] = Median(tracer.Durations("mapreduce.run_parallel_crh")) * 1e3;
  v["mapreduce.iterations"] = parallel->iterations;
  double shuffle = 0, map_output = 0, retries = 0;
  for (const crh::JobStats& job : parallel->job_stats) {
    shuffle += static_cast<double>(job.shuffle_records);
    map_output += static_cast<double>(job.map_output_records);
    retries += static_cast<double>(job.task_retries);
  }
  v["mapreduce.shuffle_records"] = shuffle;
  v["mapreduce.combiner_ratio"] = map_output > 0 ? shuffle / map_output : 0;
  v["mapreduce.task_retries"] = retries;

  const bool parallel_output = !is_serve && std::string(in.gen.spec().algorithm) == "parallel";
  crh::Dataset fused = claims;
  fused.set_ground_truth(parallel_output ? parallel->truths : solved->truths);
  {
    Tracer::Scope span(tracer, "data.csv.write", 0);
    CRH_CHECK(crh::WriteGroundTruthCsv(fused, "trace-fused.csv").ok());
  }
  v["data.csv.write_ms"] = Median(tracer.Durations("data.csv.write")) * 1e3;

  // --- correctness, against the end-to-end run's outputs.
  if (is_serve) {
    CheckServe(in, *serve, *engine, universe, report);
  } else {
    std::string expected;
    CRH_CHECK(ReadFile("trace-fused.csv", &expected));
    CheckBatch(in, *batch, expected, report, &score);
  }
  std::filesystem::remove("trace-fused.csv");
  CheckQuality(score, report);
  v["quality.error_rate"] = score.error_rate();

  // --- the load generator and stream age, from the untraced run.
  if (is_serve) {
    v["loadgen.visible_p99_ms"] = Quantile(serve->visible_ms, 0.99);
    v["loadgen.query_p50_us"] = Median(serve->query_us);
    v["loadgen.query_p99_us"] = Median(serve->query_window_p99_us);
    v["loadgen.query_late_p99_us"] = Quantile(serve->query_late_us, 0.99);
    v["loadgen.status_polls_per_chunk"] =
        static_cast<double>(serve->status_polls) / static_cast<double>(serve->chunks);
    v["serve.admission.shed"] = static_cast<double>(serve->shed);
    v["serve.io_errors"] = static_cast<double>(serve->io_errors);
    v["stream.visible_p50_ms.first_tenth"] = Median(serve->visible_first_tenth_ms);
    v["stream.visible_p50_ms.last_tenth"] = Median(serve->visible_last_tenth_ms);
    v["trace.visible_p50_ms"] = Median(serve->visible_ms);
    v["loadgen.steal_share"] = serve->ingest_steal.share();
    v["loadgen.wall_claims_per_s"] =
        static_cast<double>(serve->claims) / serve->ingest_seconds;
  } else {
    // No socket, poller or stream in a batch run.
    for (const char* name : {"loadgen.query_late_p99_us", "loadgen.status_polls_per_chunk",
                             "serve.admission.shed", "serve.io_errors",
                             "stream.visible_p50_ms.first_tenth",
                             "stream.visible_p50_ms.last_tenth"}) {
      v[name] = 0;
    }
    v["loadgen.visible_p99_ms"] = Quantile(batch->guest_s, 0.99) * 1e3;
    v["loadgen.query_p50_us"] = Median(batch->query_us);
    v["loadgen.query_p99_us"] = Quantile(batch->query_us, 0.99);
    v["trace.visible_p50_ms"] = Median(batch->guest_s) * 1e3;
    v["loadgen.steal_share"] = batch->run_steal.share();
    v["loadgen.wall_claims_per_s"] =
        static_cast<double>(in.batch_claims) / Median(batch->wall_s);
  }
  v["trace.gap_ms"] = v["trace.visible_p50_ms"] - v["trace.chunk_total_ms"];
  const std::map<std::string, double> self = tracer.SelfTimeByLayer();
  for (const char* layer : {"serve", "stream", "data", "core", "losses", "mapreduce"}) {
    const auto it = self.find(layer);
    v[std::string("trace.self_ms.") + layer] = it == self.end() ? 0.0 : it->second * 1e3;
  }

  std::printf("traced run: %s, seed %llu, %zu spans written to %s\n", in.gen.spec().name,
              static_cast<unsigned long long>(ctx.seed), tracer.spans().size(),
              ctx.trace_path.c_str());
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = v.find(metric.name);
    CRH_CHECK_MSG(it != v.end(), std::string("no value for ") + metric.name);
    std::printf("  %-38s %16.4f %-9s moves %s\n", metric.name, it->second, metric.unit,
                metric.moves);
    report->Add(metric.name, it->second, metric.unit);
  }
  CRH_CHECK(tracer.WriteJson(ctx.trace_path));
}

}  // namespace perfbench
