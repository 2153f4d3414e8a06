#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WaitUntil(double t, double spin) {
  const double wait = t - spin - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  while (Now() < t) {
  }
}

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::Connect(const std::string& path) {
  Close();
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool LineClient::Send(std::string_view line) {
  if (fd_ < 0) return false;
  std::string framed(line);
  framed.push_back('\n');
  size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + offset, framed.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::Receive(std::string* line, int timeout_ms, double spin) {
  if (fd_ < 0) return false;
  const double start = Now();
  const double deadline = start + timeout_ms / 1000.0;
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    const double now = Now();
    const double left = deadline - now;
    if (left <= 0) return false;
    const bool spinning = now - start < spin;
    if (!spinning) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1000)));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), spinning ? MSG_DONTWAIT : 0);
    if (n < 0 && (errno == EINTR || (spinning && (errno == EAGAIN || errno == EWOULDBLOCK)))) {
      continue;
    }
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool LineClient::Call(std::string_view request, std::string* reply, int timeout_ms,
                      double spin) {
  return Send(request) && Receive(reply, timeout_ms, spin);
}

Child::~Child() { Kill(); }

bool Child::Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  pid_ = pid;
  return true;
}

int Child::Wait(double timeout_s, struct rusage* usage) {
  if (pid_ <= 0) return -1;
  const double deadline = Now() + timeout_s;
  struct rusage local;
  struct rusage* into = usage != nullptr ? usage : &local;
  while (true) {
    int status = 0;
    const pid_t done = ::wait4(pid_, &status, WNOHANG, into);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (Now() > deadline) {
      Kill();
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Child::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

void Child::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal (guest time is
  // already counted in user and nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) return CpuTicks{};
    if (field != 3 && field != 4) ticks.wanted += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.wanted <= from.wanted) return 0.0;
  return std::min(kMaxStealShare, static_cast<double>(to.steal - from.steal) /
                                       static_cast<double>(to.wanted - from.wanted));
}

std::string RawField(std::string_view reply, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const size_t at = reply.find(pattern);
  if (at == std::string_view::npos) return "";
  size_t begin = at + pattern.size();
  size_t end = begin;
  if (end < reply.size() && reply[end] == '"') {
    ++end;
    while (end < reply.size() && reply[end] != '"') {
      end += reply[end] == '\\' ? size_t{2} : size_t{1};
    }
    ++end;
  } else if (end < reply.size() && reply[end] == '[') {
    end = reply.find(']', end);
    end = end == std::string_view::npos ? reply.size() : end + 1;
  } else {
    while (end < reply.size() && reply[end] != ',' && reply[end] != '}') ++end;
  }
  return std::string(reply.substr(begin, std::min(end, reply.size()) - begin));
}

bool ReplyOk(std::string_view reply) { return RawField(reply, "ok") == "true"; }

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
