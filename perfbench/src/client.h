#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

/// \file client.h
/// Process and socket plumbing for the load generator: a blocking
/// newline-delimited client for crh_serve's Unix socket, a child-process
/// handle that always reaps what it spawns, and small reply helpers.

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double Now();

/// Waits until steady-clock time `t`: sleeps until `spin` seconds before
/// it, then spins, so the wake-up latency of a sleeping thread does not
/// delay the moment `t` (returns at once if `t` has passed).
void WaitUntil(double t, double spin);

/// One connection to a Unix-domain socket speaking one JSON object per line.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to `path`; false if nothing listens there (yet).
  bool Connect(const std::string& path);
  bool connected() const { return fd_ >= 0; }
  /// Writes `line` plus '\n'.
  bool Send(std::string_view line);
  /// Reads one reply line (without '\n'); false on EOF, error or timeout.
  /// Polls without sleeping for the first `spin` seconds.
  bool Receive(std::string* line, int timeout_ms, double spin = 0);
  bool Call(std::string_view request, std::string* reply, int timeout_ms, double spin = 0);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A spawned program. The destructor kills and reaps it if it still runs,
/// so no error path leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] (a path) with stdout and stderr appended to `log_path`.
  bool Spawn(const std::vector<std::string>& argv, const std::string& log_path);
  pid_t pid() const { return pid_; }
  /// True while the process has not exited (reaps it if it has).
  bool Alive();
  /// Waits up to `timeout_s` for exit; returns the exit code, or -1 if the
  /// process was killed by a signal or had to be killed on timeout.
  int Wait(double timeout_s, struct rusage* usage = nullptr);
  /// SIGKILL and reap.
  void Kill();

 private:
  pid_t pid_ = -1;
};

/// Peak resident set (VmHWM) of a live process, in MB; 0 if unreadable.
double PeakRssMb(pid_t pid);

/// The machine's CPU time so far from /proc/stat, in clock ticks: the
/// time its virtual CPUs wanted to run (every field but idle and iowait),
/// and the part of it the hypervisor gave to other guests (steal).
struct CpuTicks {
  uint64_t wanted = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Above this share of the wanted CPU time stolen, the share stops
/// tracking the time a run loses (at 64% stolen a serve run lost 54%), so
/// a larger share is taken as this one: a run stolen from that heavily
/// reads slower than it is, never faster.
inline constexpr double kMaxStealShare = 0.4;
/// The share of the wanted CPU time between two readings that was stolen,
/// at most kMaxStealShare; 0 if no tick passed.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// CPU ticks pooled over several measured intervals.
struct StealMeter {
  uint64_t wanted = 0;
  uint64_t steal = 0;
  void Add(const CpuTicks& from, const CpuTicks& to) {
    wanted += to.wanted - from.wanted;
    steal += to.steal - from.steal;
  }
  void Add(const StealMeter& other) {
    wanted += other.wanted;
    steal += other.steal;
  }
  double share() const { return StealShare({}, {wanted, steal}); }
};

/// The raw JSON text of field `key` in a flat one-line JSON object: a
/// number, `null`, `true`/`false`, a quoted string (quotes kept) or an
/// array (brackets kept). Empty if absent.
std::string RawField(std::string_view reply, std::string_view key);

/// True if the reply carries "ok":true.
bool ReplyOk(std::string_view reply);

/// Writes `bytes` to `path`; false on failure.
bool WriteFile(const std::string& path, std::string_view bytes);
bool ReadFile(const std::string& path, std::string* bytes);

/// Quantile q in [0, 1] by nearest rank of an unsorted sample (copied).
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
