// Message and mailbox primitives for the in-process parallel environment.
//
// GRASP's published prototype ran on MPI across grid middleware; here the
// same role — node initialisation, point-to-point data movement, collective
// synchronisation — is played by an in-process runtime whose ranks are
// threads.  Messages are byte buffers with a tag, exactly the envelope MPI
// gives us, so skeleton code written against this API has the structure of
// the original.
//
// Performance notes.  Most traffic is tiny — heartbeats, ChunkProgress
// reports, collective control values, all 32 bytes or less — so `Payload`
// stores small buffers inline and only heap-allocates past the inline
// capacity.  The mailbox keeps, besides the global arrival-order list, a
// per-(source, tag) list over the same slot storage: a non-wildcard
// receive is an O(1) head pop instead of a scan of everything queued.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "support/ids.hpp"

namespace grasp::mp {

/// Wildcards for receive matching (mirrors MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Byte buffer with small-payload inline storage.  Buffers of up to
/// kInlineCapacity bytes (heartbeats, progress reports, collective doubles)
/// live inside the object; larger ones fall back to the heap.
class Payload {
 public:
  static constexpr std::size_t kInlineCapacity = 32;

  // An empty payload never reads `heap`, but g++ cannot always prove that
  // through inlined moves and assignments (-Wmaybe-uninitialized).
  Payload() noexcept : size_(0) { storage_.heap = nullptr; }

  /// An uninitialised buffer of `size` bytes (callers memcpy into data()).
  explicit Payload(std::size_t size) : size_(size) {
    if (!is_inline()) storage_.heap = new std::byte[size];
  }

  Payload(const std::byte* bytes, std::size_t size) : Payload(size) {
    if (size > 0) std::memcpy(data(), bytes, size);
  }

  /// Conversion from a raw byte vector (copies; the hot paths construct
  /// Payloads directly via pack/pack_vector instead).
  Payload(const std::vector<std::byte>& bytes)  // NOLINT(google-explicit-constructor)
      : Payload(bytes.data(), bytes.size()) {}

  Payload(const Payload& other) : Payload(other.data(), other.size_) {}
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);  // may throw; *this stays intact if it does
      release();
      steal(copy);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] std::byte* data() {
    return is_inline() ? storage_.inline_bytes : storage_.heap;
  }
  [[nodiscard]] const std::byte* data() const {
    return is_inline() ? storage_.inline_bytes : storage_.heap;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the bytes live inside the object (no heap allocation).
  [[nodiscard]] bool is_inline() const { return size_ <= kInlineCapacity; }

 private:
  void release() noexcept {
    if (!is_inline()) delete[] storage_.heap;
    size_ = 0;
  }
  void steal(Payload& other) noexcept {
    size_ = other.size_;
    if (is_inline()) {
      if (size_ > 0) std::memcpy(storage_.inline_bytes, other.storage_.inline_bytes, size_);
    } else {
      storage_.heap = other.storage_.heap;
    }
    other.size_ = 0;  // heap pointer (if any) transferred
  }

  std::size_t size_;
  union {
    std::byte inline_bytes[kInlineCapacity];
    std::byte* heap;
  } storage_;
};

struct Message {
  int source = kAnySource;
  int tag = 0;
  Payload payload;

  /// Serialise a trivially copyable value into a payload.
  template <typename T>
  static Payload pack(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pack requires a trivially copyable type");
    Payload bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    return bytes;
  }

  /// Deserialise; throws std::runtime_error on size mismatch.
  template <typename T>
  [[nodiscard]] T unpack() const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unpack requires a trivially copyable type");
    if (payload.size() != sizeof(T))
      throw std::runtime_error("Message::unpack: size mismatch");
    T value;
    std::memcpy(&value, payload.data(), sizeof(T));
    return value;
  }

  /// Serialise a vector of trivially copyable elements.
  template <typename T>
  static Payload pack_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload bytes(values.size() * sizeof(T));
    if (!values.empty())
      std::memcpy(bytes.data(), values.data(), bytes.size());
    return bytes;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> unpack_vector() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() % sizeof(T) != 0)
      throw std::runtime_error("Message::unpack_vector: size mismatch");
    std::vector<T> values(payload.size() / sizeof(T));
    if (!values.empty())
      std::memcpy(values.data(), payload.data(), payload.size());
    return values;
  }
};

/// Thread-safe in-order mailbox with (source, tag) matching.
///
/// Complexity: deliver is O(1); receive/try_receive with both source and
/// tag given is O(1) (per-key list head); wildcard receives scan the global
/// arrival-order list, preserving the no-overtaking guarantee — among
/// matches, messages are always returned in global arrival order, never
/// grouped per source.
class Mailbox {
 public:
  /// Enqueue a message and wake matching receivers.
  void deliver(Message msg);

  /// Block until a message matching (source, tag) arrives, then remove and
  /// return it.  Wildcards kAnySource / kAnyTag match anything.  Among
  /// matches, delivery order is preserved (no overtaking).
  [[nodiscard]] Message receive(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking variant; empty optional when nothing matches.
  [[nodiscard]] std::optional<Message> try_receive(int source = kAnySource,
                                                   int tag = kAnyTag);

  [[nodiscard]] std::size_t pending() const;

 private:
  static constexpr int kNil = -1;

  /// Message storage slot, linked into the global arrival list and its
  /// exact (source, tag) list.  Slots are recycled through a free list.
  struct Slot {
    Message msg;
    int prev_global = kNil, next_global = kNil;
    int prev_key = kNil, next_key = kNil;
  };
  struct KeyList {
    int head = kNil;
    int tail = kNil;
  };

  [[nodiscard]] static bool matches(const Message& m, int source, int tag) {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }
  [[nodiscard]] static std::uint64_t key_of(int source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Slot of the first message matching (source, tag), or kNil.  Requires
  /// the lock.
  [[nodiscard]] int find_match(int source, int tag) const;
  /// Unlink and return the message in `slot`.  Requires the lock.
  Message extract(int slot);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  int global_head_ = kNil, global_tail_ = kNil;
  std::unordered_map<std::uint64_t, KeyList> by_key_;
  std::size_t count_ = 0;
};

}  // namespace grasp::mp
