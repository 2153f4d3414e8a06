#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory spans for the traced run.
///
/// A span records its name, start, end, parent span and a chunk or request
/// id. Spans are named "<layer>.<what>", where the layer is one of the
/// repository's modules (serve, stream, data, core, losses, mapreduce); a
/// layer's self time is the time its spans cover minus the part their
/// child spans cover. Spans stay in memory until the run ends and are then
/// written out as JSON.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    uint64_t id = 0;
  };

  /// Opens a span for the current scope; the innermost open span is its
  /// parent.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self time in seconds per layer (the name's first component).
  std::map<std::string, double> SelfTimeByLayer() const;
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
