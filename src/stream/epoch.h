#ifndef COCONUT_STREAM_EPOCH_H_
#define COCONUT_STREAM_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace coconut {
namespace stream {
namespace epoch {

/// Process-global epoch-based reclamation for the lock-free read path.
///
/// Readers bracket every snapshot access in an EpochGuard; writers hand
/// superseded snapshots to Retire() instead of deleting them. An object
/// retired at epoch T is freed only once every active reader entered at
/// an epoch strictly greater than T — at which point each of them must
/// have loaded the replacement pointer the writer published *before*
/// retiring, so none can still hold the old one.
///
/// The design is the classic fixed-slot scheme (flock-style): a static
/// array of cache-line-padded reader slots, one claimed per thread on
/// first use and released at thread exit. Entering publishes the current
/// global epoch into the slot with a validate loop (store, re-read the
/// global, repeat until stable) so a slot can never linger below the
/// global epoch at publication time; exiting stores 0 (release) which
/// gives the reclaimer the happens-before edge from every reader access
/// to the eventual free. Guards nest: only the outermost enter/exit
/// touches the slot, inner guards inherit the outer (more conservative)
/// epoch.
///
/// Retire() appends {object, deleter, tag = current epoch} to a small
/// mutex-protected list, advances the global epoch, then opportunistically
/// frees every item whose tag is below the minimum epoch held by any
/// active slot. Deleters run after the list mutex is released (they may
/// close files or take other locks). Retires happen only at structural
/// edges (seal publish, merge install, manifest restore, drop), so the
/// list mutex is nowhere near any hot path.
///
/// Synchronize() is the full barrier: it advances the epoch, waits until
/// every slot is idle or has re-entered at the new epoch, and drains all
/// garbage retired before the call. DropIndex and index destructors use
/// it so teardown never races a straggling reader.
///
/// The manager is never destroyed, so an index may be torn down at any
/// point of static destruction.
class EpochManager {
 public:
  /// The process-wide instance every index shares.
  static EpochManager& Global();

  /// Defers `delete p` to epoch quiescence. Null is a no-op.
  template <typename T>
  void Retire(const T* p) {
    if (p == nullptr) return;
    RetireRaw(const_cast<void*>(static_cast<const void*>(p)),
              [](void* q) { delete static_cast<const T*>(q); });
  }

  /// Type-erased form: `del(p)` runs once p is provably unreachable.
  void RetireRaw(void* p, void (*del)(void*));

  /// Waits for every reader active at the time of the call to exit (or
  /// re-enter at a fresher epoch), then frees everything retired before
  /// the call. Must not be called while holding an EpochGuard.
  void Synchronize();

  /// Test hooks.
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  size_t pending_retired() const;

 private:
  friend class EpochGuard;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  void Enter();
  void Exit();

  struct Item {
    void* p;
    void (*del)(void*);
    uint64_t tag;
  };

  /// Moves every item freeable at the current slot occupancy into *ready.
  void CollectLocked(std::vector<Item>* ready);

  /// Global epoch. Starts at 1 so slot value 0 can mean "idle".
  std::atomic<uint64_t> epoch_{1};
  mutable std::mutex garbage_mu_;
  std::vector<Item> garbage_;
};

/// RAII reader section against EpochManager::Global(). Cheap enough for
/// every query: two or three atomic ops on enter, one release store on
/// exit, no allocation, no locks.
class EpochGuard {
 public:
  EpochGuard() { EpochManager::Global().Enter(); }
  ~EpochGuard() { EpochManager::Global().Exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
};

}  // namespace epoch
}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_EPOCH_H_
