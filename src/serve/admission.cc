#include "serve/admission.h"

#include <utility>

namespace crh {

bool IngestQueue::TryPush(PendingChunk item) {
  const MutexLock lock(&mu_);
  if (closed_ || items_.size() >= capacity_) {
    ++shed_;
    return false;
  }
  items_.push_back(std::move(item));
  cv_.NotifyAll();
  return true;
}

std::optional<PendingChunk> IngestQueue::PopBlocking() {
  const MutexLock lock(&mu_);
  while (true) {
    if (closed_) {
      // Drain semantics: remaining items flow out in order even when
      // paused; nullopt only once the queue is both closed and empty.
      if (items_.empty()) return std::nullopt;
      break;
    }
    if (!items_.empty() && !paused_) break;
    cv_.Wait(&mu_);
  }
  // The returned item is constructed in place and the fields moved into
  // it: move-constructing a PendingChunk into the optional trips gcc 12's
  // -Wmaybe-uninitialized (through Dataset's optional ground-truth table)
  // at -O3.
  std::optional<PendingChunk> item(std::in_place);
  item->seq = items_.front().seq;
  item->chunk = std::move(items_.front().chunk);
  items_.pop_front();
  return item;
}

void IngestQueue::SetPaused(bool paused) {
  const MutexLock lock(&mu_);
  paused_ = paused;
  cv_.NotifyAll();
}

void IngestQueue::Close() {
  const MutexLock lock(&mu_);
  closed_ = true;
  cv_.NotifyAll();
}

size_t IngestQueue::depth() const {
  const MutexLock lock(&mu_);
  return items_.size();
}

uint64_t IngestQueue::shed_count() const {
  const MutexLock lock(&mu_);
  return shed_;
}

bool IngestQueue::paused() const {
  const MutexLock lock(&mu_);
  return paused_;
}

}  // namespace crh
