#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace crh::internal {

namespace {

std::string FormatReport(const char* file, int line, const char* expr,
                         const std::string& details) {
  std::string report = std::string(file) + ":" + std::to_string(line) +
                       ": CRH_CHECK failed: " + expr;
  if (!details.empty()) report += " (" + details + ")";
  return report;
}

}  // namespace

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& details) {
  const std::string report = FormatReport(file, line, expr, details);
  std::fputs(report.c_str(), stderr);
  std::fputc('\n', stderr);
  std::fflush(stderr);  // analyzer:allow(unchecked-io-write) crash path; abort follows
  std::abort();
}

std::string VerifyFailureMessage(const char* file, int line, const char* expr,
                                 const std::string& details) {
  return FormatReport(file, line, expr, details);
}

}  // namespace crh::internal
