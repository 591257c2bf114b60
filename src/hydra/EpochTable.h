//===- hydra/EpochTable.h - Flat speculative-state tables ------------------==//
//
// The TLS engine refills every core's speculative state on each spawn,
// commit and squash: the buffered stores, the lines they touch, and the
// words and lines the thread has read. Node-based hash containers made
// each of those clears and every per-access insert an allocation-heavy
// operation. These tables are flat and open-addressed (linear probing
// over a power-of-two slot array, as in tracer/TimestampStores.h), and
// clear() is O(1): each slot records the epoch it was written in, and a
// slot is live only while that epoch is the table's current one.
//
// Capacity follows the working set: a table doubles (rehashing its live
// slots) when it becomes half full and never shrinks, so it is sized by
// the largest set its core has held, never by the heap. Table 1 bounds
// that set for every speculative thread except the head, and the head
// keeps no read state at all (nothing ever checks it).
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_HYDRA_EPOCHTABLE_H
#define JRPM_HYDRA_EPOCHTABLE_H

#include <cstdint>
#include <vector>

namespace jrpm {
namespace hydra {

/// A set of 32-bit keys that numbers its members densely in insertion
/// order (0, 1, 2, ...), so callers can keep per-member payloads in plain
/// vectors indexed by that number.
class EpochIndex {
public:
  static constexpr std::uint32_t NotFound = ~std::uint32_t(0);

  EpochIndex() { Slots.resize(InitialSlots); }

  std::uint32_t size() const { return Live; }

  /// The dense number of \p Key, or NotFound.
  std::uint32_t find(std::uint32_t Key) const {
    const std::uint32_t Mask = static_cast<std::uint32_t>(Slots.size()) - 1;
    for (std::uint32_t I = home(Key);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return NotFound;
      if (S.Key == Key)
        return S.Index;
    }
  }

  bool contains(std::uint32_t Key) const { return find(Key) != NotFound; }

  /// Adds \p Key if absent; returns whether the call added it.
  bool insert(std::uint32_t Key) {
    bool Added;
    insert(Key, Added);
    return Added;
  }

  /// Adds \p Key if absent. Returns its dense number; \p Added tells
  /// whether the call inserted it (the number is then size() - 1).
  std::uint32_t insert(std::uint32_t Key, bool &Added) {
    std::uint32_t Mask = static_cast<std::uint32_t>(Slots.size()) - 1;
    std::uint32_t I = home(Key);
    for (;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        break;
      if (S.Key == Key) {
        Added = false;
        return S.Index;
      }
    }
    Added = true;
    if (2 * (Live + 1) > Slots.size()) {
      grow();
      Mask = static_cast<std::uint32_t>(Slots.size()) - 1;
      for (I = home(Key); Slots[I].Epoch == Epoch; I = (I + 1) & Mask) {
      }
    }
    Slots[I] = Slot{Key, Epoch, Live};
    return Live++;
  }

  /// Forgets every member in O(1).
  void clear() {
    Live = 0;
    if (++Epoch != 0)
      return;
    // The epoch counter wrapped: stale slots could alias the new epoch.
    for (Slot &S : Slots)
      S.Epoch = 0;
    Epoch = 1;
  }

private:
  struct Slot {
    std::uint32_t Key = 0;
    std::uint32_t Epoch = 0; ///< live iff equal to the table's Epoch
    std::uint32_t Index = 0;
  };

  static constexpr std::uint32_t InitialSlots = 64;

  /// Fibonacci hashing: consecutive word and line numbers, the common
  /// access pattern, land far apart.
  std::uint32_t home(std::uint32_t Key) const {
    return static_cast<std::uint32_t>(
               (std::uint64_t(Key) * 0x9E3779B97F4A7C15ull) >> 32) &
           (static_cast<std::uint32_t>(Slots.size()) - 1);
  }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.assign(Old.size() * 2, Slot{});
    const std::uint32_t Mask = static_cast<std::uint32_t>(Slots.size()) - 1;
    const std::uint32_t Current = Epoch;
    Epoch = 1;
    for (const Slot &S : Old) {
      if (S.Epoch != Current)
        continue;
      std::uint32_t I = home(S.Key);
      while (Slots[I].Epoch == Epoch)
        I = (I + 1) & Mask;
      Slots[I] = Slot{S.Key, Epoch, S.Index};
    }
  }

  std::vector<Slot> Slots;
  std::uint32_t Epoch = 1;
  std::uint32_t Live = 0;
};

/// A speculative thread's store buffer: word address -> buffered value,
/// with O(1) clear and insertion-ordered iteration for the commit drain.
class StoreBuffer {
public:
  /// The buffered value for \p Addr, or null.
  const std::uint64_t *find(std::uint32_t Addr) const {
    std::uint32_t I = Index.find(Addr);
    return I == EpochIndex::NotFound ? nullptr : &Values[I];
  }
  bool contains(std::uint32_t Addr) const { return Index.contains(Addr); }

  void store(std::uint32_t Addr, std::uint64_t Value) {
    bool Added;
    std::uint32_t I = Index.insert(Addr, Added);
    if (Added) {
      Addrs.push_back(Addr);
      Values.push_back(Value);
    } else {
      Values[I] = Value;
    }
  }

  /// Calls \p Visit(Addr, Value) for every buffered word, oldest first.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (std::size_t I = 0; I < Addrs.size(); ++I)
      Visit(Addrs[I], Values[I]);
  }

  void clear() {
    Index.clear();
    Addrs.clear();
    Values.clear();
  }

private:
  EpochIndex Index;
  std::vector<std::uint32_t> Addrs;
  std::vector<std::uint64_t> Values;
};

} // namespace hydra
} // namespace jrpm

#endif // JRPM_HYDRA_EPOCHTABLE_H
