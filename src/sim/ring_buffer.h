// FIFO ring buffer over raw slot storage.
//
// Two shapes, one class:
//  - Bounded: Init(capacity) once at wiring time. The router input VCs and
//    NI injection queues are bounded by construction (buffer_depth /
//    inject_queue_flits), so their slots are allocated exactly once.
//  - Growing: never Init. The slot array doubles when a push finds it full
//    and never shrinks, so a message FIFO (monitor inbox/outbox, an
//    accelerator's pending queue, the NI delivery queue) reaches its
//    high-water mark during warmup and then stops touching the heap —
//    unlike std::deque, which frees and reallocates blocks as the queue
//    advances.
// Either way a push/pop is two index updates.
//
// Elements are constructed in place on push and destroyed in place on pop,
// so reference-holding elements (Flit's PacketRef, a Message's PayloadBuf)
// release their target the moment they leave the queue, not when the slot
// is later overwritten — the packet pool's acquire/release balance depends
// on this — and a pop costs one destructor, not a default-construct plus an
// assignment.
//
// Ownership contract: RingBuffer is a SINGLE-OWNER queue — producer and
// consumer run in the same simulation domain (one Simulator, one thread),
// so there is no synchronization and no atomics (apiary-sync-discipline
// bans them at this layer). Debug builds enforce the structural half of
// the contract: Init() at most once and only while empty, a bounded
// capacity never exceeded, never pop from empty (the asserts below).
#ifndef SRC_SIM_RING_BUFFER_H_
#define SRC_SIM_RING_BUFFER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

namespace apiary {

template <typename T>
class RingBuffer {
 public:
  // An empty growing ring; no storage until the first push.
  RingBuffer() = default;
  // A bounded ring (see Init).
  explicit RingBuffer(uint32_t capacity) { Init(capacity); }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;
  ~RingBuffer() {
    clear();
    std::allocator<T>().deallocate(slots_, SlotCount());
  }

  // Makes the ring bounded to `capacity` and allocates its slot storage
  // (power-of-two rounded so the index wrap is a mask). Called once at
  // wiring time.
  void Init(uint32_t capacity) {
    assert(capacity > 0);
    assert(slots_ == nullptr && size_ == 0 && "RingBuffer::Init must run exactly once");
    capacity_ = capacity;
    uint32_t slots = 1;
    while (slots < capacity) {
      slots <<= 1;
    }
    Reallocate(slots);
  }

  // The bound set by Init; 0 for a growing ring.
  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return capacity_ != 0 && size_ == capacity_; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    assert(capacity_ == 0 || size_ < capacity_);
    if (size_ == SlotCount()) {
      Reallocate(size_ == 0 ? 4 : 2 * size_);  // Growing ring only.
    }
    T* slot = std::construct_at(&slots_[(head_ + size_) & mask_], std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T value) { emplace_back(std::move(value)); }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }
  // The i-th element from the front.
  const T& operator[](uint32_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  // Moves the head element out and pops — one fewer copy than
  // front()+pop_front() for reference-holding elements.
  T take_front() {
    assert(size_ > 0);
    T value = std::move(slots_[head_]);
    pop_front();
    return value;
  }

  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }

 private:
  uint32_t SlotCount() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  // Moves the live elements, in order, into a fresh array of `slots`
  // (a power of two) starting at index 0.
  void Reallocate(uint32_t slots) {
    T* fresh = std::allocator<T>().allocate(slots);
    for (uint32_t i = 0; i < size_; ++i) {
      T& old = slots_[(head_ + i) & mask_];
      std::construct_at(&fresh[i], std::move(old));
      std::destroy_at(&old);
    }
    std::allocator<T>().deallocate(slots_, SlotCount());
    slots_ = fresh;
    mask_ = slots - 1;
    head_ = 0;
  }

  T* slots_ = nullptr;
  uint32_t capacity_ = 0;
  uint32_t mask_ = 0;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_RING_BUFFER_H_
