/// \file discard_result.cc
/// MUST NOT COMPILE under -Wall -Werror: crh::Result<T> is a [[nodiscard]]
/// class template, so computing a Result and dropping it — value *and*
/// error — is a hard error on GCC and clang alike.

#include "common/status.h"

namespace {

crh::Result<int> Halve(int x) {
  if (x % 2 != 0) return crh::Status::InvalidArgument("odd");
  return x / 2;
}

void Broken() {
  Halve(4);  // analyzer:allow(status-path) — the violation under test: value and error vanish
}

}  // namespace

int main() {
  Broken();
  return 0;
}
