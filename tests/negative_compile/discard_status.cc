/// \file discard_status.cc
/// MUST NOT COMPILE under -Wall -Werror (GCC or clang): crh::Status is a
/// [[nodiscard]] class, so calling a Status-returning function as a bare
/// statement is a hard error. Registered with WILL_FAIL in
/// tests/negative_compile/CMakeLists.txt — if this file ever compiles, the
/// [[nodiscard]] contract has been broken and the ctest run fails.

#include "common/status.h"

namespace {

crh::Status MightFail(int x) {
  if (x < 0) return crh::Status::InvalidArgument("negative");
  return crh::Status::OK();
}

void Broken() {
  MightFail(3);  // analyzer:allow(status-path) — the violation under test
}

}  // namespace

int main() {
  Broken();
  return 0;
}
