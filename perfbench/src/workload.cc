#include "workload.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "data/csv.h"
#include "datagen/noise.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

// Why these four: serve_2k makes the per-chunk solver work dominate (the
// O(N) snapshot and checkpoint copies are small); serve_200k runs the same
// stream over a universe 100x larger, where the per-publish snapshot copy
// and per-checkpoint truth-table encode dominate; batch_crh and
// batch_parallel run the claims-CSV-to-fused-CSV path through the serial
// and the MapReduce solver. See perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"serve_2k", WorkloadKind::kServe, 2000, 1000, ""},
    {"serve_200k", WorkloadKind::kServe, 200000, 400, ""},
    {"batch_crh", WorkloadKind::kBatch, 20000, 0, "crh"},
    {"batch_parallel", WorkloadKind::kBatch, 20000, 0, "parallel"},
};

constexpr const char* kConditions[] = {"sunny", "cloudy", "rain", "fog", "snow", "storm"};
constexpr double kConditionShares[] = {0.35, 0.25, 0.2, 0.08, 0.07, 0.05};

double Round1(double v) { return std::round(v * 10.0) / 10.0; }

/// Per-source claim probability proportional to 1/(k+1), capped at 1,
/// scaled so the expected claims per entry is kClaimsPerObject / 3.
std::vector<double> SkewedCoverage() {
  const double target = kClaimsPerObject / 3.0;
  const auto expected = [](double scale) {
    double sum = 0;
    for (size_t k = 0; k < kNumSources; ++k) {
      sum += std::min(1.0, scale / static_cast<double>(k + 1));
    }
    return sum;
  };
  double lo = 0, hi = static_cast<double>(kNumSources);
  for (int it = 0; it < 60; ++it) {
    const double mid = (lo + hi) / 2;
    (expected(mid) < target ? lo : hi) = mid;
  }
  std::vector<double> coverage(kNumSources);
  for (size_t k = 0; k < kNumSources; ++k) {
    coverage[k] = std::min(1.0, hi / static_cast<double>(k + 1));
  }
  return coverage;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

crh::Schema WeatherSchema() {
  crh::Schema schema;
  CRH_CHECK(schema.AddContinuous("high_temp", 0.1).ok());
  CRH_CHECK(schema.AddContinuous("low_temp", 0.1).ok());
  CRH_CHECK(schema.AddCategorical("condition").ok());
  return schema;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

NuRand::NuRand(uint64_t seed, int64_t a) : rng_(seed), a_(a), c_(rng_.UniformInt(0, a)) {}

int64_t NuRand::Next(int64_t x, int64_t y) {
  return (((rng_.UniformInt(0, a_) | rng_.UniformInt(x, y)) + c_) % (y - x + 1)) + x;
}

int64_t NuRandConstantFor(size_t n) {
  int64_t a = 1;
  while ((a + 1) * 2 - 1 <= static_cast<int64_t>(n / 2)) a = (a + 1) * 2 - 1;
  return a;
}

QueryMix::QueryMix(uint64_t seed, size_t num_objects)
    : rng_(Mix(seed ^ 0x51u)),
      objects_(Mix(seed ^ 0x52u), NuRandConstantFor(num_objects)),
      num_objects_(num_objects) {}

std::string QueryMix::Next() {
  constexpr const char* kProperties[] = {"high_temp", "low_temp", "condition"};
  const double draw = rng_.Uniform();
  if (draw < 0.90) {
    const int64_t object = objects_.Next(0, static_cast<int64_t>(num_objects_) - 1);
    return "{\"cmd\":\"truth\",\"object\":\"o" + std::to_string(object) +
           "\",\"property\":\"" + kProperties[rng_.UniformInt(0, 2)] + "\"}";
  }
  if (draw < 0.99) {
    return "{\"cmd\":\"source\",\"source\":\"source_" +
           std::to_string(rng_.UniformInt(0, kNumSources - 1)) + "\"}";
  }
  return "{\"cmd\":\"weights\"}";
}

std::string IngestLine(uint64_t seq, const std::string& csv) {
  crh::JsonWriter writer;
  writer.AddString("cmd", "ingest");
  writer.AddUint("seq", seq);
  writer.AddInt("window_start", static_cast<int64_t>(seq));
  writer.AddString("csv", csv);
  return std::move(writer).Finish();
}

Generator::Generator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(&spec), seed_(seed), coverage_(SkewedCoverage()) {
  const std::vector<double> paper = crh::PaperSimulationGammas();
  for (size_t k = 0; k < kNumSources; ++k) {
    gammas_.push_back(paper[paper.size() - 1 - k % paper.size()]);
  }
  chunks_per_cycle_ = (spec.objects + kObjectsPerChunk - 1) / kObjectsPerChunk;

  std::vector<std::string> ids;
  ids.reserve(spec.objects);
  for (size_t i = 0; i < spec.objects; ++i) ids.push_back("o" + std::to_string(i));
  truth_ = crh::Dataset(WeatherSchema(), std::move(ids), {});
  for (const char* label : kConditions) truth_.InternCategorical(2, label);
  const std::vector<double> shares(std::begin(kConditionShares), std::end(kConditionShares));
  crh::ValueTable table(spec.objects, 3);
  crh::Rng rng(Mix(seed));
  for (size_t i = 0; i < spec.objects; ++i) {
    const double climate = rng.Uniform(20.0, 90.0);
    const double high = Round1(climate + rng.Gaussian(0.0, 6.0));
    table.Set(i, 0, crh::Value::Continuous(high));
    table.Set(i, 1, crh::Value::Continuous(Round1(high - rng.Uniform(8.0, 20.0))));
    table.Set(i, 2, crh::Value::Categorical(static_cast<crh::CategoryId>(rng.Categorical(shares))));
  }
  truth_.set_ground_truth(std::move(table));
}

std::vector<size_t> Generator::ChunkObjects(uint64_t chunk) const {
  std::vector<size_t> objects;
  for (size_t i = chunk % chunks_per_cycle_; i < num_objects(); i += chunks_per_cycle_) {
    objects.push_back(i);
  }
  return objects;
}

crh::Dataset Generator::ChunkClaims(uint64_t chunk) const {
  const std::vector<size_t> objects = ChunkObjects(chunk);
  std::vector<std::string> ids;
  crh::ValueTable slice_truth(objects.size(), 3);
  for (size_t local = 0; local < objects.size(); ++local) {
    ids.push_back(truth_.object_id(objects[local]));
    for (size_t m = 0; m < 3; ++m) {
      slice_truth.Set(local, m, truth_.ground_truth().Get(objects[local], m));
    }
  }
  crh::Dataset slice(truth_.schema(), std::move(ids), {});
  slice.mutable_dict(2) = truth_.dict(2);
  slice.set_ground_truth(std::move(slice_truth));

  crh::NoiseOptions noise;
  noise.gammas = gammas_;
  noise.seed = Mix(seed_ ^ Mix(chunk + 1));
  auto noisy = crh::MakeNoisyDataset(slice, noise);
  CRH_CHECK(noisy.ok());
  crh::Dataset claims = std::move(noisy).ValueOrDie();
  crh::Rng thin(Mix(noise.seed + 1));
  for (size_t k = 0; k < kNumSources; ++k) {
    crh::ValueTable& table = claims.mutable_observations(k);
    for (size_t i = 0; i < claims.num_objects(); ++i) {
      for (size_t m = 0; m < 3; ++m) {
        if (!thin.Bernoulli(coverage_[k])) table.Clear(i, m);
      }
    }
  }
  return claims;
}

std::string Generator::ChunkCsv(uint64_t chunk) const {
  std::ostringstream out;
  CRH_CHECK(crh::WriteObservationsCsv(ChunkClaims(chunk), out).ok());
  return out.str();
}

std::string Generator::UniverseCsv() const {
  const crh::ValueTable& table = truth_.ground_truth();
  std::ostringstream out;
  out << "object_id,property,source_id,value\n";
  // Sources first, in roster order, so source k gets index k.
  for (size_t k = 0; k < kNumSources; ++k) {
    out << truth_.object_id(0) << ",low_temp,source_" << k << ",0\n";
  }
  for (size_t l = 0; l < std::size(kConditions); ++l) {
    out << truth_.object_id(0) << ",condition,source_" << l << "," << kConditions[l] << "\n";
  }
  for (size_t i = 0; i < num_objects(); ++i) {
    out << truth_.object_id(i) << ",high_temp,source_" << i % kNumSources << ","
        << table.Get(i, 0).continuous() << "\n";
  }
  return out.str();
}

std::string ConcatClaimsCsv(const std::vector<std::string>& csvs, size_t count) {
  std::string csv = "object_id,property,source_id,value\n";
  for (size_t c = 0; c < count && c < csvs.size(); ++c) {
    csv.append(csvs[c], csvs[c].find('\n') + 1, std::string::npos);
  }
  return csv;
}

std::string Generator::TruthCsv() const {
  std::ostringstream out;
  CRH_CHECK(crh::WriteGroundTruthCsv(truth_, out).ok());
  return out.str();
}

}  // namespace perfbench
