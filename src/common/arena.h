// Pool memory for the simulator hot loop.
//
// The per-contact simulation path (session setup, buffer scans, the
// Eq. 7/Alg. 1 exchange) used to allocate per event: three "kept" vectors
// per transfer direction, half a dozen scratch containers per replacement
// plan, and one heap node per in-flight bundle. The scheme's
// ContactWorkspace now owns the scratch containers; this header provides
// the pooled bundle storage that removes the rest:
//
//  * SlabPool<T> — typed slab storage with a free list, used for in-flight
//    bundles (push tokens, query copies, response bundles). Slots live in
//    fixed-capacity slabs (stable addresses, contiguous within a slab) and
//    are recycled through a LIFO free list; the `next` link doubles as the
//    intrusive per-node chain link while a slot is live. Double release is
//    a DTN_CHECK abort, not silent corruption (tests/check_test.cpp).
//  * BundleChain<T> — a FIFO chain of one node's pooled slots.
//
// Neither is thread-safe: one scheme's run is one thread at a time
// (parallelism lives at the sweep, (repetition x scheme) cell and
// all-pairs layers), and the pools are owned per scheme instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/instrument.h"

namespace dtn {

/// Typed slab pool with handle-based access and an intrusive link per slot.
///
/// Handles are stable 32-bit indices (slab = h / slab_capacity, slot =
/// h % slab_capacity); slabs never move once created, so references
/// obtained from get() stay valid across acquire() of *other* slots. The
/// per-slot `next` link serves the free list while a slot is dead and the
/// owner's bundle chain while it is live — in-flight bundles need exactly
/// one forward link, so the pool stores it once instead of per container.
template <typename T>
class SlabPool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xFFFFFFFFu;

  explicit SlabPool(std::size_t slab_capacity = 256)
      : slab_capacity_(slab_capacity) {
    DTN_CHECK(slab_capacity_ > 0, "slab capacity must be positive");
  }

  /// Returns a live slot holding a default-constructed T. Recycles the
  /// most recently released slot when one exists (LIFO keeps the working
  /// set hot); only grows a slab when the free list is empty.
  Handle acquire() {
    Handle h;
    if (free_head_ != kNull) {
      h = free_head_;
      free_head_ = next_[h];
      slot(h) = T{};
      ++pool_hits_;
      DTN_COUNT(kBundlePoolHits);
    } else {
      if (size_ == slabs_.size() * slab_capacity_) {
        slabs_.emplace_back(std::make_unique<T[]>(slab_capacity_));
      }
      h = static_cast<Handle>(size_++);
      next_.push_back(kNull);
      live_.push_back(0);
    }
    DTN_CHECK(!live_[h], "acquired bundle-pool slot must be dead");
    live_[h] = 1;
    next_[h] = kNull;
    ++live_count_;
    return h;
  }

  /// Returns a slot to the free list. Releasing a dead (or never acquired)
  /// handle is a contract violation: the slot would enter the free list
  /// twice and two bundles would later alias one slot.
  void release(Handle h) {
    DTN_CHECK(h < size_, "bundle-pool release of an out-of-range handle");
    DTN_CHECK(live_[h], "bundle-pool double release");
    live_[h] = 0;
    next_[h] = free_head_;
    free_head_ = h;
    --live_count_;
  }

  T& get(Handle h) {
    DTN_CHECK(h < size_ && live_[h], "bundle-pool access to a dead slot");
    return slot(h);
  }
  const T& get(Handle h) const {
    DTN_CHECK(h < size_ && live_[h], "bundle-pool access to a dead slot");
    return slot(h);
  }

  /// Intrusive chain link of a live slot (kNull-terminated).
  Handle next(Handle h) const { return next_[h]; }
  void set_next(Handle h, Handle n) { next_[h] = n; }

  std::size_t live() const { return live_count_; }
  std::size_t capacity() const { return slabs_.size() * slab_capacity_; }

  /// Slots served from the free list instead of fresh slab storage.
  std::uint64_t pool_hits() const { return pool_hits_; }

 private:
  T& slot(Handle h) { return slabs_[h / slab_capacity_][h % slab_capacity_]; }
  const T& slot(Handle h) const {
    return slabs_[h / slab_capacity_][h % slab_capacity_];
  }

  std::size_t slab_capacity_;
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<Handle> next_;        ///< chain link (live) / free link (dead)
  std::vector<std::uint8_t> live_;  ///< double-release / stale-handle guard
  Handle free_head_ = kNull;
  std::size_t size_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t pool_hits_ = 0;
};

/// FIFO chain of pooled slots: the SoA replacement for a per-node
/// std::vector of in-flight bundles. Keeps insertion order (append at the
/// tail, iterate head to tail), which the exchange logic depends on for
/// bit-identical replay of the legacy vector path.
template <typename T>
struct BundleChain {
  using Handle = typename SlabPool<T>::Handle;
  Handle head = SlabPool<T>::kNull;
  Handle tail = SlabPool<T>::kNull;
  std::size_t size = 0;

  bool empty() const { return size == 0; }

  /// Appends an already acquired slot (relinks it at the tail).
  void append(SlabPool<T>& pool, Handle h) {
    pool.set_next(h, SlabPool<T>::kNull);
    if (tail == SlabPool<T>::kNull) {
      head = h;
    } else {
      pool.set_next(tail, h);
    }
    tail = h;
    ++size;
  }

  /// Acquires a slot, copies `value` into it and appends it.
  Handle push_back(SlabPool<T>& pool, const T& value) {
    const Handle h = pool.acquire();
    pool.get(h) = value;
    append(pool, h);
    return h;
  }

  /// Releases every slot back to the pool and empties the chain.
  void clear(SlabPool<T>& pool) {
    Handle h = head;
    while (h != SlabPool<T>::kNull) {
      const Handle next = pool.next(h);
      pool.release(h);
      h = next;
    }
    head = tail = SlabPool<T>::kNull;
    size = 0;
  }
};

}  // namespace dtn
