//===- support/packed_edge_map.h - Flat map over packed edges ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing hash map keyed by a packed (src << 32 | dst) edge,
/// replacing std::unordered_map in the saturation engine's persisted edge
/// set (checker/saturation_state.h). Every flush touches the edge set once
/// or twice per delta edge (refcount up on insert, down on source re-run),
/// so the node-based map's allocation and pointer-chasing churn dominated
/// the residual per-flush cost; the flat table keeps probes inside one or
/// two cache lines and frees nothing on erase (backward-shift deletion, no
/// tombstones, so load stays what the live edges need).
///
/// Keys are packed transaction-id pairs and can never be all-ones (NoTxn is
/// not a valid edge endpoint), which frees ~0ULL as the empty sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_PACKED_EDGE_MAP_H
#define AWDIT_SUPPORT_PACKED_EDGE_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace awdit {

/// Open-addressing map from a packed edge (uint64_t, never ~0ULL) to \p V.
/// Linear probing, power-of-two capacity, max load factor 2/3 on insert,
/// backward-shift deletion. Each slot holds its key and value together, so
/// a probe that finds its key has the value in the same cache line. \p V
/// must be default-constructible and cheap to move (the saturation engine
/// stores an 8-byte refcount pair).
template <typename V> class PackedEdgeMap {
public:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  PackedEdgeMap() { rehash(MinCapacity); }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  void clear() {
    Table.assign(Table.size(), Slot());
    Count = 0;
  }

  /// Returns the value for \p Key, inserting a default-constructed one if
  /// absent.
  V &operator[](uint64_t Key) {
    // Cap load at ~2/3: linear probing degrades sharply past that, and the
    // slots are only 8+sizeof(V) bytes, so headroom is cheap.
    if ((Count + 1) * 3 >= Table.size() * 2)
      rehash(Table.size() * 2);
    Slot &S = Table[probe(Key)];
    if (S.Key != Key) {
      S.Key = Key;
      S.Value = V{};
      ++Count;
    }
    return S.Value;
  }

  V *find(uint64_t Key) {
    Slot &S = Table[probe(Key)];
    return S.Key == Key ? &S.Value : nullptr;
  }

  const V *find(uint64_t Key) const {
    const Slot &S = Table[probe(Key)];
    return S.Key == Key ? &S.Value : nullptr;
  }

  size_t count(uint64_t Key) const { return find(Key) ? 1 : 0; }

  /// Removes \p Key if present; returns true when an entry was removed.
  /// Backward-shift deletion: subsequent displaced entries slide back so
  /// probe chains stay gap-free without tombstones.
  bool erase(uint64_t Key) {
    size_t Hole = probe(Key);
    if (Table[Hole].Key != Key)
      return false;
    size_t Mask = Table.size() - 1;
    size_t Next = (Hole + 1) & Mask;
    while (Table[Next].Key != EmptyKey) {
      size_t Home = hash(Table[Next].Key) & Mask;
      // Move the entry at Next back into the hole unless its home slot
      // lies (cyclically) after the hole — then the hole does not break
      // its probe chain.
      bool HoleInChain = Next >= Home ? (Home <= Hole && Hole < Next)
                                      : (Home <= Hole || Hole < Next);
      if (HoleInChain) {
        Table[Hole] = std::move(Table[Next]);
        Hole = Next;
      }
      Next = (Next + 1) & Mask;
    }
    Table[Hole] = Slot();
    --Count;
    return true;
  }

  /// Calls \p Fn(key, value) for every live entry, in table order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Slot &S : Table)
      if (S.Key != EmptyKey)
        F(S.Key, S.Value);
  }

private:
  static constexpr size_t MinCapacity = 16;

  struct Slot {
    uint64_t Key = EmptyKey;
    V Value{};
  };

  static uint64_t hash(uint64_t X) {
    // splitmix64 finalizer: full-avalanche over the packed (src, dst)
    // halves so sequential transaction ids spread across the table.
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  size_t probe(uint64_t Key) const {
    size_t Mask = Table.size() - 1;
    size_t I = hash(Key) & Mask;
    while (Table[I].Key != EmptyKey && Table[I].Key != Key)
      I = (I + 1) & Mask;
    return I;
  }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old = std::move(Table);
    Table.assign(NewCapacity, Slot());
    Count = 0;
    for (Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      Table[probe(S.Key)] = std::move(S);
      ++Count;
    }
  }

  std::vector<Slot> Table;
  size_t Count = 0;
};

} // namespace awdit

#endif // AWDIT_SUPPORT_PACKED_EDGE_MAP_H
