#include "stream/epoch.h"

#include <algorithm>
#include <thread>

namespace coconut {
namespace stream {
namespace epoch {

namespace {

/// One reader slot per thread, padded so concurrent enters/exits never
/// share a cache line. 0 = idle; otherwise the epoch the thread entered
/// at. `claimed` hands slots out to threads; a thread keeps its slot for
/// its lifetime and the thread_local destructor returns it.
struct alignas(64) Slot {
  std::atomic<uint64_t> epoch{0};
  std::atomic<bool> claimed{false};
};

/// Static storage (no destructor) so late-exiting threads can always
/// release their slot, regardless of static destruction order.
constexpr size_t kMaxReaderSlots = 256;
Slot g_slots[kMaxReaderSlots];

Slot* ClaimSlot() {
  for (size_t i = 0; i < kMaxReaderSlots; ++i) {
    bool expected = false;
    if (g_slots[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      return &g_slots[i];
    }
  }
  // More than kMaxReaderSlots live threads reading concurrently would be
  // a deployment we never run (the container is single-core, and the
  // service caps worker threads far below this). Fail loudly rather
  // than corrupting reclamation.
  std::terminate();
}

struct ThreadState {
  Slot* slot = nullptr;
  int depth = 0;
  ~ThreadState() {
    if (slot != nullptr) {
      slot->epoch.store(0, std::memory_order_release);
      slot->claimed.store(false, std::memory_order_release);
    }
  }
};

thread_local ThreadState t_state;

}  // namespace

EpochManager& EpochManager::Global() {
  // Immortal, like g_slots: an index held in a static that was built
  // before the manager's first use is destroyed after the manager would
  // be, and its destructor still retires and synchronizes. Garbage left
  // at exit stays reachable through this pointer, so leak checkers keep
  // quiet.
  static EpochManager* const manager = new EpochManager;
  return *manager;
}

void EpochManager::Enter() {
  ThreadState& t = t_state;
  if (t.depth++ > 0) return;  // Nested guard: keep the outer epoch.
  if (t.slot == nullptr) t.slot = ClaimSlot();
  // Publish-and-validate: after the seq_cst store, re-read the global
  // epoch and republish until stable. This guarantees that once a
  // reclaimer's scan observes the slot, its value was current at some
  // point after publication — a slot can pin an old epoch only by
  // having genuinely entered at it, never by a stale store landing
  // late. Either the reclaimer's scan sees our slot (and spares
  // anything we might reach), or our final epoch load came after its
  // advance, in which case the snapshot pointer we subsequently load is
  // the replacement the writer published before retiring.
  uint64_t e = epoch_.load(std::memory_order_seq_cst);
  while (true) {
    t.slot->epoch.store(e, std::memory_order_seq_cst);
    const uint64_t now = epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
}

void EpochManager::Exit() {
  ThreadState& t = t_state;
  if (--t.depth > 0) return;
  // Release: every read the guard protected happens-before a reclaimer
  // observing the slot idle, which happens-before the free.
  t.slot->epoch.store(0, std::memory_order_release);
}

void EpochManager::CollectLocked(std::vector<Item>* ready) {
  uint64_t min_active = UINT64_MAX;
  for (const Slot& slot : g_slots) {
    const uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    if (e != 0) min_active = std::min(min_active, e);
  }
  auto keep = garbage_.begin();
  for (auto it = garbage_.begin(); it != garbage_.end(); ++it) {
    if (it->tag < min_active) {
      ready->push_back(*it);
    } else {
      *keep++ = *it;
    }
  }
  garbage_.erase(keep, garbage_.end());
}

void EpochManager::RetireRaw(void* p, void (*del)(void*)) {
  std::vector<Item> ready;
  {
    std::lock_guard<std::mutex> lock(garbage_mu_);
    garbage_.push_back(Item{p, del, epoch_.load(std::memory_order_relaxed)});
    // Advance so future readers provably entered after this retire; the
    // collect below then frees whatever older garbage has quiesced.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    CollectLocked(&ready);
  }
  // Deleters outside the mutex: they close files and may take locks.
  for (Item& item : ready) item.del(item.p);
}

void EpochManager::Synchronize() {
  const uint64_t target = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Loop rather than single-pass: a reader mid-publish can transiently
  // expose an old epoch value (its validate loop will correct it), which
  // a one-shot collect could observe, leaving pre-call garbage pending.
  // The guarantee here is strict — return only once everything retired
  // before this call is freed — because DropIndex tears files down right
  // after and the shutdown leak check counts on it.
  while (true) {
    for (const Slot& slot : g_slots) {
      while (true) {
        const uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
        if (e == 0 || e >= target) break;
        std::this_thread::yield();
      }
    }
    std::vector<Item> ready;
    bool stale_remaining = false;
    {
      std::lock_guard<std::mutex> lock(garbage_mu_);
      CollectLocked(&ready);
      for (const Item& item : garbage_) {
        if (item.tag < target) {
          stale_remaining = true;
          break;
        }
      }
    }
    for (Item& item : ready) item.del(item.p);
    if (!stale_remaining) return;
    std::this_thread::yield();
  }
}

size_t EpochManager::pending_retired() const {
  std::lock_guard<std::mutex> lock(garbage_mu_);
  return garbage_.size();
}

}  // namespace epoch
}  // namespace stream
}  // namespace coconut
