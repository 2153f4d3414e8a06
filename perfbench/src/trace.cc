#include "trace.h"

#include <cstdio>
#include <fstream>

#include "client.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t id)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.parent = tracer.open_.empty() ? -1 : static_cast<int64_t>(tracer.open_.back());
  span.id = id;
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(index_);
  tracer.spans_[index_].start = Now();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = Now();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= span.end - span.start;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  }
  return by_layer;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld,"
                  "\"id\":%llu}%s\n",
                  span.name.c_str(), (span.start - origin) * 1e6, (span.end - origin) * 1e6,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.id),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
